/**
 * @file
 * Fuzzing regression suite.
 *
 * Three layers, matching DESIGN.md §11:
 *   1. Corpus replay — every minimized fixture under tests/fuzz_corpus/
 *      is parsed and re-run through the full differential oracle
 *      (Scan vs Event, traced vs untraced); a fixture that diverges
 *      again means a fixed bug regressed.
 *   2. Deadlock-watchdog boundary — both kernels must abort a
 *      no-commit run on exactly the same cycle (the event kernel's
 *      idle fast-forward clamps to the horizon; the scan kernel walks
 *      there cycle by cycle).
 *   3. Invariant audit — every InvariantAudit enumerator has a unit
 *      test that corrupts the checked state and asserts the exact
 *      violation fires (the lint rule audit-complete enforces that
 *      this file mentions every enumerator), plus an end-to-end run
 *      with REDSOC_AUDIT=1.
 *   4. Core reuse — a second run on one OooCore must match a fresh
 *      core's run under the same full-stats comparator the oracle
 *      uses.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/invariant_audit.h"
#include "fuzz_lib.h"
#include "helpers.h"
#include "workloads/registry.h"

namespace redsoc::fuzz {
namespace {

#ifndef REDSOC_FUZZ_CORPUS
#error "REDSOC_FUZZ_CORPUS must point at tests/fuzz_corpus"
#endif

const std::string kCorpus = REDSOC_FUZZ_CORPUS;

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> out;
    for (const auto &ent :
         std::filesystem::directory_iterator(kCorpus))
        if (ent.path().extension() == ".fuzz")
            out.push_back(ent.path().string());
    std::sort(out.begin(), out.end());
    return out;
}

FuzzCase
loadFixture(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return parseCase(text.str());
}

// ---------------------------------------------------------------------
// 1. Corpus replay
// ---------------------------------------------------------------------

TEST(FuzzCorpus, HasCommittedFixtures)
{
    EXPECT_GE(corpusFiles().size(), 6u);
}

TEST(FuzzCorpus, EveryFixtureAgreesUnderTheFullOracle)
{
    for (const std::string &path : corpusFiles()) {
        const FuzzCase fc = loadFixture(path);
        EXPECT_EQ(checkCase(fc), "") << path;
    }
}

TEST(FuzzCorpus, FixturesRoundTripThroughTheSerializer)
{
    for (const std::string &path : corpusFiles()) {
        const FuzzCase fc = loadFixture(path);
        const FuzzCase again = parseCase(serializeCase(fc));
        // Serialization is canonical: one round trip is a fixpoint.
        EXPECT_EQ(serializeCase(fc), serializeCase(again)) << path;
    }
}

// ---------------------------------------------------------------------
// Harness self-tests: the oracle and generator must be trustworthy
// ---------------------------------------------------------------------

TEST(FuzzHarness, GenerationIsDeterministicPerSeed)
{
    EXPECT_EQ(serializeCase(randomCase(42)),
              serializeCase(randomCase(42)));
    EXPECT_NE(serializeCase(randomCase(42)),
              serializeCase(randomCase(43)));
}

TEST(FuzzHarness, EveryGeneratedPointBuildsAndAgrees)
{
    for (u64 seed = 1000; seed < 1016; ++seed) {
        const FuzzCase fc = randomCase(seed);
        EXPECT_FALSE(fc.prog.empty());
        EXPECT_EQ(checkCase(fc), "") << "seed " << seed;
    }
}

TEST(FuzzHarness, DiffOutcomeReportsTheFirstDifferingField)
{
    RunOutcome a;
    a.stats.cycles = 100;
    a.stats.committed = 40;
    RunOutcome b = a;
    EXPECT_EQ(diffOutcome(a, b), "");

    b.stats.commit_checksum ^= 1;
    EXPECT_NE(diffOutcome(a, b).find("commit_checksum"),
              std::string::npos);

    b = a;
    b.deadlock = true;
    EXPECT_NE(diffOutcome(a, b).find("deadlock"), std::string::npos);

    a.deadlock = true;
    a.deadlock_cycle = 7;
    b.deadlock_cycle = 9;
    EXPECT_NE(diffOutcome(a, b).find("deadlock_cycle"),
              std::string::npos);
    // Deadlocked runs carry no meaningful stats beyond the cycle.
    b.deadlock_cycle = 7;
    EXPECT_EQ(diffOutcome(a, b), "");
}

TEST(FuzzHarness, MinimizeReturnsACleanCaseUnchanged)
{
    const FuzzCase fc = randomCase(7);
    ASSERT_EQ(checkCase(fc), "");
    EXPECT_EQ(serializeCase(minimizeCase(fc)), serializeCase(fc));
}

TEST(FuzzHarness, ParserRejectsMalformedFixtures)
{
    EXPECT_THROW(parseCase(""), std::runtime_error);
    EXPECT_THROW(parseCase("config core=medium\n"), std::runtime_error);
    EXPECT_THROW(parseCase("inst alu sel=1 d=1 a=1 b=1 imm=0\n"),
                 std::runtime_error);
    EXPECT_THROW(
        parseCase("config core=warp\ninst alu sel=1 d=1 a=1 b=1 imm=0\n"),
        std::runtime_error);
    EXPECT_THROW(
        parseCase("config core=small bogus=1\ninst alu sel=1 d=1 a=1 "
                  "b=1 imm=0\n"),
        std::runtime_error);
    EXPECT_THROW(
        parseCase("config core=small\ninst warp sel=1 d=1 a=1 b=1 "
                  "imm=0\n"),
        std::runtime_error);
}

// ---------------------------------------------------------------------
// Multi-core points: generator, oracle, and fixture format
// ---------------------------------------------------------------------

TEST(FuzzProc, GenerationIsDeterministicPerSeed)
{
    EXPECT_EQ(serializeCase(randomProcCase(42)),
              serializeCase(randomProcCase(42)));
    EXPECT_NE(serializeCase(randomProcCase(42)),
              serializeCase(randomProcCase(43)));
    // The proc and scalar streams are salted differently.
    EXPECT_NE(serializeCase(randomProcCase(42)),
              serializeCase(randomCase(42)));
}

TEST(FuzzProc, EveryGeneratedPointBuildsAndAgrees)
{
    bool saw_multi = false;
    for (u64 seed = 2000; seed < 2010; ++seed) {
        const FuzzCase fc = randomProcCase(seed);
        EXPECT_FALSE(fc.prog.empty());
        EXPECT_EQ(fc.extra_progs.size(), fc.cores - 1);
        saw_multi |= fc.cores > 1;
        EXPECT_EQ(checkCase(fc), "") << "proc seed " << seed;
    }
    EXPECT_TRUE(saw_multi) << "distribution never drew > 1 core";
}

TEST(FuzzProc, FixtureRoundTripsMultiCoreCases)
{
    for (u64 seed = 2000; seed < 2010; ++seed) {
        const FuzzCase fc = randomProcCase(seed);
        const FuzzCase again = parseCase(serializeCase(fc));
        EXPECT_EQ(serializeCase(again), serializeCase(fc))
            << "proc seed " << seed;
        EXPECT_EQ(again.cores, fc.cores);
        EXPECT_EQ(again.extra_progs.size(), fc.extra_progs.size());
        // The shared-hierarchy knobs are inert (and deliberately not
        // serialized) for a single-core draw.
        if (fc.cores > 1) {
            EXPECT_EQ(again.llc_kb, fc.llc_kb);
            EXPECT_EQ(again.dram_banks, fc.dram_banks);
            EXPECT_EQ(again.bank_occupancy, fc.bank_occupancy);
            EXPECT_EQ(again.share_addr, fc.share_addr);
        }
    }
}

TEST(FuzzProc, ParserRejectsMalformedProcFixtures)
{
    const std::string base =
        "config core=small\ninst alu sel=1 d=1 a=1 b=1 imm=0\n";
    // Zero or absurd core counts.
    EXPECT_THROW(parseCase(base + "proc cores=0\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCase(base + "proc cores=65\n"),
                 std::runtime_error);
    // A core section with no proc line, or out of sequence.
    EXPECT_THROW(parseCase(base + "core 1\ninst alu sel=1 d=1 a=1 "
                                  "b=1 imm=0\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCase(base + "proc cores=3\ncore 2\ninst alu "
                                  "sel=1 d=1 a=1 b=1 imm=0\n"),
                 std::runtime_error);
    // Missing or empty extra-core programs.
    EXPECT_THROW(parseCase(base + "proc cores=2\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCase(base + "proc cores=2\ncore 1\n"),
                 std::runtime_error);
    EXPECT_THROW(parseCase(base + "proc bogus=1\n"),
                 std::runtime_error);
}

TEST(FuzzProc, DiffProcOutcomeWalksEveryLayer)
{
    ProcOutcome a;
    a.stats.cycles = 500;
    a.stats.cores.resize(2);
    a.stats.llc.per_core.resize(2);
    ProcOutcome b = a;
    EXPECT_EQ(diffProcOutcome(a, b), "");

    b.stats.cycles = 501;
    EXPECT_NE(diffProcOutcome(a, b).find("cycles"), std::string::npos);

    b = a;
    b.stats.cores[1].commit_checksum ^= 1;
    const std::string core_diff = diffProcOutcome(a, b);
    EXPECT_NE(core_diff.find("core 1"), std::string::npos);
    EXPECT_NE(core_diff.find("commit_checksum"), std::string::npos);

    b = a;
    b.stats.llc.per_core[0].mshr_merges = 9;
    const std::string llc_diff = diffProcOutcome(a, b);
    EXPECT_NE(llc_diff.find("llc core 0"), std::string::npos);
    EXPECT_NE(llc_diff.find("mshr_merges"), std::string::npos);

    b = a;
    b.stats.llc.writebacks = 3;
    EXPECT_NE(diffProcOutcome(a, b).find("llc.writebacks"),
              std::string::npos);

    b = a;
    b.deadlock = true;
    EXPECT_NE(diffProcOutcome(a, b).find("deadlock"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// 2. Deadlock-watchdog boundary
// ---------------------------------------------------------------------

FuzzCase
deadlockingCase(Cycle horizon)
{
    FuzzCase fc;
    fc.name = "deadlock";
    fc.config = smallCore();
    fc.config.no_commit_horizon = horizon;
    fc.config.memory.mem_latency = 3000;
    fc.config.memory.prefetch = false;
    FuzzInst load;
    load.kind = FuzzInst::Kind::Load;
    fc.prog.push_back(load);
    return fc;
}

TEST(DeadlockHorizon, BothKernelsAbortOnTheSameCycle)
{
    const FuzzCase fc = deadlockingCase(60);
    const Trace trace = buildTrace(fc);
    const RunOutcome scan =
        runOne(trace, fc.config, SchedKernel::Scan, false);
    const RunOutcome event =
        runOne(trace, fc.config, SchedKernel::Event, false);
    ASSERT_TRUE(scan.deadlock);
    ASSERT_TRUE(event.deadlock);
    EXPECT_EQ(scan.deadlock_cycle, event.deadlock_cycle);
}

TEST(DeadlockHorizon, AbortCycleTracksTheHorizonExactly)
{
    // The watchdog fires at last_commit + horizon + 1 in both
    // kernels: lengthening the horizon by one must move the abort
    // by exactly one cycle (the event kernel's fast-forward clamp
    // cannot overshoot it, a strict > check cannot fire early).
    const Trace trace = buildTrace(deadlockingCase(60));
    for (const SchedKernel kernel :
         {SchedKernel::Scan, SchedKernel::Event}) {
        const RunOutcome h60 =
            runOne(trace, deadlockingCase(60).config, kernel, false);
        const RunOutcome h61 =
            runOne(trace, deadlockingCase(61).config, kernel, false);
        ASSERT_TRUE(h60.deadlock && h61.deadlock);
        EXPECT_EQ(h61.deadlock_cycle, h60.deadlock_cycle + 1);
    }
}

TEST(DeadlockHorizon, DeadlockErrorCarriesTheAbortCycle)
{
    const FuzzCase fc = deadlockingCase(60);
    const Trace trace = buildTrace(fc);
    CoreConfig config = fc.config;
    config.sched_kernel = SchedKernel::Scan;
    OooCore core(std::move(config));
    try {
        core.run(trace);
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError &e) {
        EXPECT_GT(e.cycle(), 60u);
        EXPECT_NE(std::string(e.what()).find("no commit progress"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// 3. Invariant audit: every check fires on corrupted state
// ---------------------------------------------------------------------

/** The violation a check returned, or FAIL accessors on nullopt. */
void
expectViolation(const std::optional<AuditViolation> &v,
                InvariantAudit kind, const std::string &substr)
{
    ASSERT_TRUE(v.has_value()) << invariantAuditName(kind);
    EXPECT_EQ(v->kind, kind);
    EXPECT_NE(v->message.find(substr), std::string::npos)
        << v->message;
}

TEST(InvariantAuditChecks, RsPendingCount)
{
    EXPECT_FALSE(
        InvariantAuditor::checkPendingCount(7, 2, 2).has_value());
    expectViolation(InvariantAuditor::checkPendingCount(7, 2, 1),
                    InvariantAudit::RsPendingCount,
                    "records 2 pending wakeups but 1");
}

TEST(InvariantAuditChecks, RsOccupancy)
{
    EXPECT_FALSE(InvariantAuditor::checkRsOccupancy(0, 0).has_value());
    EXPECT_FALSE(InvariantAuditor::checkRsOccupancy(12, 12).has_value());
    // A leaked count (an issue that forgot to free its entry) and a
    // lost one (an entry the window walk cannot see) both fire.
    expectViolation(InvariantAuditor::checkRsOccupancy(13, 12),
                    InvariantAudit::RsOccupancy,
                    "RS counts 13 entries but the window holds 12");
    expectViolation(InvariantAuditor::checkRsOccupancy(11, 12),
                    InvariantAudit::RsOccupancy, "counts 11");
}

TEST(InvariantAuditChecks, RobOccupancy)
{
    EXPECT_FALSE(
        InvariantAuditor::checkRobOccupancy(0, 40, 40).has_value());
    EXPECT_FALSE(
        InvariantAuditor::checkRobOccupancy(8, 40, 48).has_value());
    expectViolation(InvariantAuditor::checkRobOccupancy(7, 40, 48),
                    InvariantAudit::RobOccupancy,
                    "ROB holds 7 ops but the window [40, 48)");
    // A window whose fetch pointer trails commit is corrupt at any
    // size (the unsigned difference must not wrap into a match).
    expectViolation(InvariantAuditor::checkRobOccupancy(
                        static_cast<size_t>(SeqNum{0} - 8), 48, 40),
                    InvariantAudit::RobOccupancy, "window [48, 40)");
}

TEST(InvariantAuditChecks, LsqOccupancy)
{
    EXPECT_FALSE(InvariantAuditor::checkLsqOccupancy({}, {}).has_value());
    EXPECT_FALSE(InvariantAuditor::checkLsqOccupancy({3, 5, 9}, {3, 5, 9})
                     .has_value());
    // A lost entry, a stale one the window already committed past, and
    // an out-of-order pair all diverge from the window's memory ops.
    expectViolation(InvariantAuditor::checkLsqOccupancy({3, 9}, {3, 5, 9}),
                    InvariantAudit::LsqOccupancy,
                    "LSQ entry 1 holds seq 9 but the window's memory op "
                    "there is seq 5");
    expectViolation(InvariantAuditor::checkLsqOccupancy({1, 3, 5}, {3, 5}),
                    InvariantAudit::LsqOccupancy, "entry 0 holds seq 1");
    expectViolation(InvariantAuditor::checkLsqOccupancy({5, 3}, {3, 5}),
                    InvariantAudit::LsqOccupancy, "entry 0 holds seq 5");
    expectViolation(InvariantAuditor::checkLsqOccupancy({3}, {3, 4}),
                    InvariantAudit::LsqOccupancy,
                    "entry 1 holds nothing but the window's memory op "
                    "there is seq 4");
}

TEST(InvariantAuditChecks, CiRange)
{
    EXPECT_FALSE(InvariantAuditor::checkCiRange(9, 0, 8).has_value());
    EXPECT_FALSE(InvariantAuditor::checkCiRange(9, 7, 8).has_value());
    expectViolation(InvariantAuditor::checkCiRange(9, 8, 8),
                    InvariantAudit::CiRange, "outside [0, 8)");
}

TEST(InvariantAuditChecks, EgpwLeftoverSlot)
{
    EXPECT_FALSE(
        InvariantAuditor::checkEgpwLeftover(5, 1).has_value());
    expectViolation(InvariantAuditor::checkEgpwLeftover(5, 0),
                    InvariantAudit::EgpwLeftoverSlot,
                    "no leftover FU slot");
}

TEST(InvariantAuditChecks, TransparentLink)
{
    // Producer wrote back at tick 33, consumer starts there, CI 1.
    EXPECT_FALSE(InvariantAuditor::checkTransparentLink(6, 2, 33, 33, 1)
                     .has_value());
    expectViolation(
        InvariantAuditor::checkTransparentLink(6, kNoSeq, 0, 33, 1),
        InvariantAudit::TransparentLink, "names no producer");
    expectViolation(
        InvariantAuditor::checkTransparentLink(6, 2, 32, 33, 1),
        InvariantAudit::TransparentLink, "wrote back at tick 32");
    expectViolation(
        InvariantAuditor::checkTransparentLink(6, 2, 32, 32, 0),
        InvariantAudit::TransparentLink, "cycle boundary");
}

TEST(InvariantAuditChecks, ReadyRsAgreement)
{
    constexpr Cycle never = InvariantAuditor::kNeverArmed;
    // Reachable: pending producer, parked, in a ready set, or a
    // live future arm.
    EXPECT_FALSE(InvariantAuditor::checkReadyAgreement(
                     3, 1, never, 50, false, false)
                     .has_value());
    EXPECT_FALSE(InvariantAuditor::checkReadyAgreement(
                     3, 0, never, 50, true, false)
                     .has_value());
    EXPECT_FALSE(InvariantAuditor::checkReadyAgreement(
                     3, 0, 40, 50, false, true)
                     .has_value());
    EXPECT_FALSE(InvariantAuditor::checkReadyAgreement(
                     3, 0, 51, 50, false, false)
                     .has_value());
    expectViolation(InvariantAuditor::checkReadyAgreement(
                        3, 0, never, 50, false, false),
                    InvariantAudit::ReadyRsAgreement, "never armed");
    expectViolation(InvariantAuditor::checkReadyAgreement(
                        3, 0, 50, 50, false, false),
                    InvariantAudit::ReadyRsAgreement,
                    "last armed for past cycle 50");
}

TEST(InvariantAuditNames, EveryEnumeratorHasAUniqueName)
{
    std::vector<std::string> names;
    for (unsigned k = 0;
         k < static_cast<unsigned>(InvariantAudit::NUM); ++k)
        names.push_back(
            invariantAuditName(static_cast<InvariantAudit>(k)));
    std::vector<std::string> uniq = names;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    EXPECT_EQ(uniq.size(), names.size());
    EXPECT_EQ(std::count(names.begin(), names.end(), "?"), 0);
}

TEST(InvariantAuditEnd2End, AuditedRunsMatchUnauditedRuns)
{
    // The audit must be an observer: REDSOC_AUDIT=1 runs produce
    // bit-identical stats, and every corpus fixture passes with the
    // auditor checking each cycle.
    ASSERT_EQ(setenv("REDSOC_AUDIT", "1", 1), 0);
    ASSERT_TRUE(InvariantAuditor::enabledFromEnv());
    for (const std::string &path : corpusFiles()) {
        const FuzzCase fc = loadFixture(path);
        EXPECT_EQ(checkCase(fc), "") << path << " (REDSOC_AUDIT=1)";
    }
    ASSERT_EQ(unsetenv("REDSOC_AUDIT"), 0);
    EXPECT_FALSE(InvariantAuditor::enabledFromEnv());
}

// ---------------------------------------------------------------------
// 4. Core reuse
// ---------------------------------------------------------------------

// OooCore::beginRun resets every piece of run state, including what a
// run learns (cache tags, prefetcher, predictors) and the FU pool's
// cycle-tagged booking ring, whose stale tags would otherwise read as
// phantom bookings. Reuse must be invisible: the same trace again,
// or after a different trace, gives a fresh core's exact result.
TEST(CoreReuse, ReusedCoreMatchesFreshCore)
{
    CoreConfig cfg = bigCore();
    cfg.mode = SchedMode::ReDSOC;
    const Trace warmup = traceWorkload("soplex");
    for (const char *workload : {"crc", "xalanc", "act"}) {
        const Trace trace = traceWorkload(workload);
        RunOutcome fresh;
        fresh.stats = OooCore(cfg).run(trace);

        OooCore core(cfg);
        RunOutcome first, again, after_other;
        first.stats = core.run(trace);
        again.stats = core.run(trace);
        core.run(warmup);
        after_other.stats = core.run(trace);
        EXPECT_EQ(diffOutcome(fresh, first), "") << workload;
        EXPECT_EQ(diffOutcome(fresh, again), "") << workload;
        EXPECT_EQ(diffOutcome(fresh, after_other), "") << workload;
    }
}

// The FU pool's booking ring is tagged with absolute cycles, so its
// last run's tags name cycles the next run will reach. A run that
// books nothing for the ring's length (one DRAM miss) and then fills
// the pools on exactly those cycles would find the old bookings
// still tagged live and see the units already taken.
TEST(CoreReuse, ReusedCoreForgetsFuBookings)
{
    MemoryImage mem;
    ProgramBuilder b("fu_reuse");
    b.movImm(x(1), 0);
    b.load(Opcode::LDR, x(2), x(1), 0x10000); // cold miss: idle pools
    for (unsigned k = 0; k < 120; ++k)
        b.alui(Opcode::ADD, x(3 + k % 8), x(2), k); // one ready burst
    b.halt();
    const Trace trace = test::makeTrace(b, &mem);
    CoreConfig cfg = bigCore();
    cfg.mode = SchedMode::ReDSOC;
    RunOutcome fresh, again;
    fresh.stats = OooCore(cfg).run(trace);
    OooCore core(cfg);
    core.run(trace);
    again.stats = core.run(trace);
    EXPECT_EQ(diffOutcome(fresh, again), "");
}

} // namespace
} // namespace redsoc::fuzz
