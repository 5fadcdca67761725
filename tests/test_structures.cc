/**
 * @file
 * Pipeline-structure tests: ROB ordering, LSQ ordering/forwarding
 * (including a randomized ring-vs-deque model), the window-derived
 * reservation-station view, RAT, FU-pool booking (including the 2-cycle
 * transparent holds), and the cache-model property suite (LRU state
 * equality, prefetcher replay determinism, shared-LLC inclusion and
 * MSHR accounting).
 */

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/fu_pool.h"
#include "core/lsq.h"
#include "isa/builder.h"
#include "core/rat.h"
#include "core/ooo_core.h"
#include "core/rob.h"
#include "mem/cache.h"
#include "mem/prefetcher.h"
#include "proc/llc.h"
#include "trace/pipe_tracer.h"
#include "workloads/registry.h"

namespace redsoc {
namespace {

TEST(Rob, FifoDiscipline)
{
    Rob rob(3);
    rob.push(0);
    rob.push(1);
    rob.push(2);
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.head(), 0u);
    rob.pop(0);
    EXPECT_EQ(rob.head(), 1u);
    EXPECT_THROW(rob.pop(2), std::logic_error); // out of order
    EXPECT_THROW(rob.push(0), std::logic_error); // not in order
}

TEST(Rob, OverflowPanics)
{
    Rob rob(1);
    rob.push(0);
    EXPECT_THROW(rob.push(1), std::logic_error);
}

// The ROB is a [head, tail) sequence range: a push that skips, repeats
// or rewinds a sequence number would silently corrupt the window, so
// it must panic instead.
TEST(Rob, NonConsecutivePushPanics)
{
    Rob rob(8);
    rob.push(0);
    EXPECT_THROW(rob.push(2), std::logic_error); // skips seq 1
    EXPECT_THROW(rob.push(0), std::logic_error); // repeats seq 0
    rob.push(1);
    EXPECT_EQ(rob.size(), 2u);
    EXPECT_EQ(rob.tail(), 2u);
    rob.pop(0);
    rob.pop(1);
    EXPECT_TRUE(rob.empty());
    EXPECT_THROW(rob.push(1), std::logic_error); // rewinds past commit
    rob.push(2); // the range continues where it left off
    EXPECT_EQ(rob.head(), 2u);
    rob.reset();
    EXPECT_TRUE(rob.empty());
    EXPECT_THROW(rob.push(3), std::logic_error);
    rob.push(0);
}

TEST(Lsq, OlderStoreGatesLoads)
{
    Lsq lsq(8);
    lsq.dispatch(1, true);  // store, address unknown
    lsq.dispatch(2, false); // load
    EXPECT_TRUE(lsq.olderStoreUnresolved(2));
    lsq.resolve(1, 0x100, 8, 50);
    EXPECT_FALSE(lsq.olderStoreUnresolved(2));
}

TEST(Lsq, FullCoverForwarding)
{
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, false);
    lsq.resolve(1, 0x100, 8, 40);
    const auto fwd = lsq.forwardFrom(2, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_TRUE(fwd->full_cover);
    EXPECT_EQ(fwd->store_complete, 40u);
}

TEST(Lsq, PartialOverlapIsFlagged)
{
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, false);
    lsq.resolve(1, 0x104, 4, 40);
    const auto fwd = lsq.forwardFrom(2, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_FALSE(fwd->full_cover);
    EXPECT_TRUE(fwd->partial);
}

TEST(Lsq, YoungestOlderStoreWins)
{
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, true);
    lsq.dispatch(3, false);
    lsq.resolve(1, 0x100, 8, 10);
    lsq.resolve(2, 0x100, 8, 20);
    const auto fwd = lsq.forwardFrom(3, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_EQ(fwd->store_complete, 20u);
}

TEST(Lsq, YoungerStoresDoNotForwardBackwards)
{
    Lsq lsq(8);
    lsq.dispatch(1, false); // load
    lsq.dispatch(2, true);  // younger store
    lsq.resolve(2, 0x100, 8, 20);
    EXPECT_FALSE(lsq.forwardFrom(1, 0x100, 8).has_value());
}

TEST(Lsq, YoungerPartialStoreShadowsOlderFullCover)
{
    // An older store covers the whole load, but a younger store owns
    // four of its bytes: no single store sources every byte, so the
    // load cannot forward and must wait for BOTH stores (the byte
    // sources) before reading the cache. The youngest-first
    // early-return used to report only the younger store's (earlier)
    // completion here.
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, true);
    lsq.dispatch(3, false);
    lsq.resolve(1, 0x100, 8, 90); // full cover, completes late
    lsq.resolve(2, 0x104, 4, 20); // partial shadow, completes early
    const auto fwd = lsq.forwardFrom(3, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_FALSE(fwd->full_cover);
    EXPECT_TRUE(fwd->partial);
    EXPECT_EQ(fwd->store_complete, 90u);
}

TEST(Lsq, TwoPartialStoresJointlyCoverTheLoad)
{
    // Each store owns half the load: jointly covered, but not by a
    // single store, so it is still a stall (not a forward), gated on
    // the later of the two contributors.
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, true);
    lsq.dispatch(3, false);
    lsq.resolve(1, 0x100, 4, 70);
    lsq.resolve(2, 0x104, 4, 30);
    const auto fwd = lsq.forwardFrom(3, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_FALSE(fwd->full_cover);
    EXPECT_TRUE(fwd->partial);
    EXPECT_EQ(fwd->store_complete, 70u);
}

TEST(Lsq, FullyShadowedOlderStoreHasNoTimingEffect)
{
    // The youngest store covers the whole load; an older overlapping
    // store contributes no byte and must not delay (or un-forward)
    // the load no matter how late it completes.
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, true);
    lsq.dispatch(3, false);
    lsq.resolve(1, 0x100, 8, 500); // fully shadowed, very late
    lsq.resolve(2, 0x100, 8, 20);  // youngest: sources every byte
    const auto fwd = lsq.forwardFrom(3, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_TRUE(fwd->full_cover);
    EXPECT_EQ(fwd->store_complete, 20u);
}

TEST(Lsq, DisjointYoungerStoreDoesNotHideOlderFullCover)
{
    // A younger store that does not overlap the load at all leaves an
    // older full-cover store as the single byte source: forwardable.
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, true);
    lsq.dispatch(3, false);
    lsq.resolve(1, 0x100, 8, 60);
    lsq.resolve(2, 0x200, 8, 10); // disjoint
    const auto fwd = lsq.forwardFrom(3, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_TRUE(fwd->full_cover);
    EXPECT_EQ(fwd->store_complete, 60u);
}

TEST(Lsq, UnresolvedStoreDoesNotContribute)
{
    // Only resolved stores enter the byte scan (the conservative
    // olderStoreUnresolved gate keeps the load from issuing anyway).
    Lsq lsq(8);
    lsq.dispatch(1, true);
    lsq.dispatch(2, true);
    lsq.dispatch(3, false);
    lsq.resolve(1, 0x100, 8, 40);
    const auto fwd = lsq.forwardFrom(3, 0x100, 8);
    ASSERT_TRUE(fwd.has_value());
    EXPECT_TRUE(fwd->full_cover);
    EXPECT_EQ(fwd->store_complete, 40u);
}

TEST(Lsq, SeqsReportsProgramOrder)
{
    Lsq lsq(4);
    lsq.dispatch(3, true);
    lsq.dispatch(5, false);
    std::vector<SeqNum> out;
    lsq.seqs(out);
    EXPECT_EQ(out, (std::vector<SeqNum>{3, 5}));
}

TEST(Lsq, CommitInProgramOrder)
{
    Lsq lsq(4);
    lsq.dispatch(1, true);
    lsq.dispatch(2, false);
    EXPECT_THROW(lsq.commit(2), std::logic_error);
    lsq.commit(1);
    lsq.commit(2);
    EXPECT_EQ(lsq.size(), 0u);
}

// A naive reference LSQ: a deque walked front to back, with
// store-to-load forwarding computed byte by byte (for each load byte,
// the youngest older resolved store writing it sources it).
struct LsqModel
{
    struct Entry
    {
        SeqNum seq;
        bool is_store;
        bool resolved = false;
        Addr addr = 0;
        unsigned size = 0;
        Tick complete = 0;
    };
    std::deque<Entry> q;

    bool olderStoreUnresolved(SeqNum seq) const
    {
        for (const Entry &e : q)
            if (e.seq < seq && e.is_store && !e.resolved)
                return true;
        return false;
    }

    SeqNum youngestUnresolvedStoreBefore(SeqNum seq) const
    {
        SeqNum found = kNoSeq;
        for (const Entry &e : q)
            if (e.seq < seq && e.is_store && !e.resolved)
                found = e.seq;
        return found;
    }

    std::optional<Lsq::ForwardResult>
    forwardFrom(SeqNum load_seq, Addr addr, unsigned size) const
    {
        std::vector<const Entry *> source(size, nullptr);
        for (unsigned b = 0; b < size; ++b)
            for (const Entry &e : q)
                if (e.seq < load_seq && e.is_store && e.resolved &&
                    e.addr <= addr + b && addr + b < e.addr + e.size)
                    source[b] = &e; // later = younger wins
        std::vector<const Entry *> contributors;
        for (const Entry *e : source)
            if (e && std::find(contributors.begin(), contributors.end(),
                               e) == contributors.end())
                contributors.push_back(e);
        if (contributors.empty())
            return std::nullopt;
        Lsq::ForwardResult r;
        r.full_cover =
            contributors.size() == 1 &&
            std::find(source.begin(), source.end(), nullptr) ==
                source.end();
        r.partial = !r.full_cover;
        for (const Entry *e : contributors)
            r.store_complete = std::max(r.store_complete, e->complete);
        return r;
    }
};

// Randomized differential test of the LSQ ring against the deque
// model: in-order dispatch with sequence gaps (non-memory ops),
// out-of-order resolves, in-order commits (sometimes of a store the
// model never resolved), enough rounds to wrap the 8-slot ring many
// times, and every query checked at every entry boundary.
TEST(Lsq, RingMatchesDequeModelAcrossWraps)
{
    constexpr unsigned kCapacity = 6; // rounds up to an 8-slot ring
    Lsq lsq(kCapacity);
    LsqModel model;
    Rng rng(0x15c0ffee);
    SeqNum next = 0;
    u64 commits = 0;
    std::vector<SeqNum> seqs;
    for (int step = 0; step < 20000; ++step) {
        const unsigned action = static_cast<unsigned>(rng.below(10));
        if (action < 4 && !lsq.full()) {
            next += 1 + rng.below(3);
            const bool is_store = rng.below(2) == 0;
            lsq.dispatch(next, is_store);
            model.q.push_back({next, is_store});
        } else if (action < 8 && !model.q.empty()) {
            auto &e = model.q[rng.below(model.q.size())];
            if (!e.resolved) {
                static constexpr unsigned kSizes[] = {1, 2, 4, 8};
                e.resolved = true;
                e.addr = 0x100 + rng.below(24);
                e.size = kSizes[rng.below(4)];
                e.complete = rng.below(1000);
                lsq.resolve(e.seq, e.addr, e.size, e.complete);
            } else if (rng.below(2) == 0) {
                e.complete = rng.below(1000);
                lsq.setComplete(e.seq, e.complete);
            }
        } else if (!model.q.empty() &&
                   (model.q.front().resolved || rng.below(4) == 0)) {
            lsq.commit(model.q.front().seq);
            model.q.pop_front();
            ++commits;
        }

        ASSERT_EQ(lsq.size(), model.q.size()) << "step " << step;
        ASSERT_EQ(lsq.full(), model.q.size() >= kCapacity);
        lsq.seqs(seqs);
        ASSERT_EQ(seqs.size(), model.q.size());
        for (size_t i = 0; i < seqs.size(); ++i)
            ASSERT_EQ(seqs[i], model.q[i].seq) << "step " << step;

        // Query at, between and beyond every live entry.
        std::vector<SeqNum> queries = {0, next + 1};
        for (const auto &e : model.q) {
            queries.push_back(e.seq);
            queries.push_back(e.seq + 1);
        }
        for (SeqNum q : queries) {
            ASSERT_EQ(lsq.olderStoreUnresolved(q),
                      model.olderStoreUnresolved(q))
                << "step " << step << " seq " << q;
            ASSERT_EQ(lsq.youngestUnresolvedStoreBefore(q),
                      model.youngestUnresolvedStoreBefore(q))
                << "step " << step << " seq " << q;
            const Addr addr = 0x100 + rng.below(24);
            const unsigned size = 1u << rng.below(4);
            const auto got = lsq.forwardFrom(q, addr, size);
            const auto want = model.forwardFrom(q, addr, size);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "step " << step << " seq " << q;
            if (got) {
                EXPECT_EQ(got->full_cover, want->full_cover);
                EXPECT_EQ(got->partial, want->partial);
                EXPECT_EQ(got->store_complete, want->store_complete);
            }
        }
    }
    EXPECT_GT(commits, 50u * 8u); // the ring wrapped many times over
}

// The RS is no container of its own: its membership is the window's
// InRs ops (OooCore::rsEntries). Check that view against a reference
// set built independently from the pipeline event stream — an op
// enters at Dispatch and leaves at Writeback, which every op emits
// exactly once, at issue (or at dispatch when the front end resolves
// it) — after every simulated step, under both scheduler kernels and
// all three modes.
class RsReferenceSink : public TraceSink
{
  public:
    void onBeginRun(Tick) override { live.clear(); }
    void onEvent(const PipeEvent &e) override
    {
        if (e.kind == PipeEventKind::Dispatch)
            live.insert(e.seq);
        else if (e.kind == PipeEventKind::Writeback)
            live.erase(e.seq);
    }
    std::set<SeqNum> live;
};

TEST(RsView, WindowDerivedMembershipMatchesReferenceSet)
{
    for (const char *workload : {"act", "crc"}) {
        const Trace trace = traceWorkload(workload);
        for (SchedKernel kernel : {SchedKernel::Scan, SchedKernel::Event})
            for (SchedMode mode :
                 {SchedMode::Baseline, SchedMode::ReDSOC, SchedMode::MOS}) {
                CoreConfig cfg = mediumCore();
                cfg.mode = mode;
                cfg.sched_kernel = kernel;
                OooCore core(cfg);
                PipeTracer tracer(1024);
                RsReferenceSink sink;
                tracer.setSink(&sink);
                core.setTracer(&tracer);
                std::vector<SeqNum> view;
                size_t max_live = 0;
                core.beginRun(trace);
                for (u64 step = 0; core.stepRun(); ++step) {
                    core.rsEntries(view);
                    const std::vector<SeqNum> want(sink.live.begin(),
                                                   sink.live.end());
                    ASSERT_EQ(view, want)
                        << workload << " " << schedKernelName(kernel)
                        << " mode " << static_cast<int>(mode)
                        << " step " << step;
                    max_live = std::max(max_live, view.size());
                }
                core.finishRun();
                EXPECT_TRUE(sink.live.empty());
                EXPECT_GT(max_live, 8u) << workload; // a non-trivial RS
            }
    }
}

TEST(Rat, TracksYoungestWriter)
{
    Rat rat;
    EXPECT_EQ(rat.writer(x(3)), kNoSeq);
    rat.setWriter(x(3), 7);
    rat.setWriter(x(3), 9);
    EXPECT_EQ(rat.writer(x(3)), 9u);
    rat.reset();
    EXPECT_EQ(rat.writer(x(3)), kNoSeq);
    EXPECT_THROW(rat.setWriter(kZeroReg, 1), std::logic_error);
}

TEST(Rat, VectorRegistersAreSeparate)
{
    Rat rat;
    rat.setWriter(x(3), 1);
    rat.setWriter(v(3), 2);
    EXPECT_EQ(rat.writer(x(3)), 1u);
    EXPECT_EQ(rat.writer(v(3)), 2u);
}

TEST(FuPool, PoolKindMapping)
{
    EXPECT_EQ(fuPoolKind(FuClass::IntAlu), FuPoolKind::Alu);
    EXPECT_EQ(fuPoolKind(FuClass::IntMul), FuPoolKind::Alu);
    EXPECT_EQ(fuPoolKind(FuClass::SimdMul), FuPoolKind::Simd);
    EXPECT_EQ(fuPoolKind(FuClass::FpDiv), FuPoolKind::Fp);
    EXPECT_EQ(fuPoolKind(FuClass::MemWrite), FuPoolKind::Mem);
}

TEST(FuPool, CapacityBoundsBooking)
{
    FuPool fu(smallCore()); // 3 ALUs
    EXPECT_EQ(fu.capacity(FuPoolKind::Alu), 3u);
    EXPECT_EQ(fu.freeUnits(FuPoolKind::Alu, 10), 3u);
    fu.book(FuPoolKind::Alu, 10);
    fu.book(FuPoolKind::Alu, 10);
    fu.book(FuPoolKind::Alu, 10);
    EXPECT_EQ(fu.freeUnits(FuPoolKind::Alu, 10), 0u);
    EXPECT_THROW(fu.book(FuPoolKind::Alu, 10), std::logic_error);
    // Other cycles are unaffected.
    EXPECT_EQ(fu.freeUnits(FuPoolKind::Alu, 11), 3u);
}

TEST(FuPool, TwoCycleHoldSpansBothCycles)
{
    FuPool fu(smallCore());
    fu.book(FuPoolKind::Alu, 5, 2); // IT3: boundary-crossing op
    EXPECT_EQ(fu.busyUnits(FuPoolKind::Alu, 5), 1u);
    EXPECT_EQ(fu.busyUnits(FuPoolKind::Alu, 6), 1u);
    EXPECT_EQ(fu.busyUnits(FuPoolKind::Alu, 7), 0u);
    fu.release(FuPoolKind::Alu, 5, 2);
    EXPECT_EQ(fu.busyUnits(FuPoolKind::Alu, 5), 0u);
}

TEST(FuPool, RingRecyclesOldCycles)
{
    FuPool fu(mediumCore());
    fu.book(FuPoolKind::Simd, 1);
    // 64+ cycles later the same ring slot is reused cleanly.
    EXPECT_EQ(fu.freeUnits(FuPoolKind::Simd, 65),
              fu.capacity(FuPoolKind::Simd));
    fu.book(FuPoolKind::Simd, 65);
    EXPECT_EQ(fu.busyUnits(FuPoolKind::Simd, 65), 1u);
}

TEST(FuPool, ReleaseUnbookedPanics)
{
    FuPool fu(smallCore());
    EXPECT_THROW(fu.release(FuPoolKind::Fp, 3), std::logic_error);
}

// --- Cache-model properties (DESIGN.md §14) --------------------------

/**
 * Inclusion invariant: with L1s attached, every L1-resident line is
 * also LLC-resident at all times. The LLC is deliberately smaller
 * than the combined L1 footprint so capacity evictions must fire
 * back-invalidations to keep the invariant.
 */
TEST(CacheProperties, SharedLlcPreservesInclusionUnderEviction)
{
    SharedLlc llc(CacheConfig{"llc", 4 * 1024, 2, 64},
                  DramConfig{4, 0}, 2, 100);
    Cache l1a(CacheConfig{"l1a", 8 * 1024, 4, 64});
    Cache l1b(CacheConfig{"l1b", 8 * 1024, 4, 64});
    llc.attachL1(0, &l1a);
    llc.attachL1(1, &l1b);

    std::vector<Addr> touched;
    Rng rng(41);
    for (Cycle now = 0; now < 400; ++now) {
        const Addr addr = Addr{rng.range(0, 255)} * 64;
        const bool is_write = rng.chance(0.3);
        const unsigned core = static_cast<unsigned>(rng.range(0, 1));
        Cache &l1 = core == 0 ? l1a : l1b;
        l1.access(addr, is_write);
        llc.access(core, addr, is_write, now);
        touched.push_back(addr);

        for (Addr line : touched) {
            if (l1a.contains(line) || l1b.contains(line)) {
                ASSERT_TRUE(llc.tags().contains(line))
                    << "L1 line 0x" << std::hex << line
                    << " not backed by the LLC";
            }
        }
    }

    const LlcStats stats = llc.collectStats();
    EXPECT_GT(stats.evictions, 0u) << "grid too small to evict";
    u64 back_invals = 0;
    for (const LlcCoreStats &cs : stats.per_core)
        back_invals += cs.back_invalidations;
    EXPECT_GT(back_invals, 0u)
        << "evictions never found an L1 copy to invalidate";
}

/**
 * MSHR accounting: a cross-core access inside another core's fill
 * window rides the in-flight fill (one merge), never a second miss,
 * and per-core accesses always decompose as hits + misses + merges.
 */
TEST(CacheProperties, MshrMergeNeverDoubleCountsAMiss)
{
    SharedLlc llc(CacheConfig{"llc", 64 * 1024, 4, 64},
                  DramConfig{1, 0}, 2, 100);
    const Addr line = 0x4000;

    auto first = llc.access(0, line, false, 0);
    EXPECT_EQ(first.level, SharedLlc::Level::Miss);
    EXPECT_EQ(first.wait, 0u); // no cross-core bank conflict yet

    // Core 1 arrives mid-fill: merge, paying only the remainder.
    auto merged = llc.access(1, line, false, 10);
    EXPECT_EQ(merged.level, SharedLlc::Level::Merge);
    EXPECT_EQ(merged.wait, 90u);

    // Core 0 re-touches its own in-flight fill: free (infinite
    // same-core MLP, the seed model's rule).
    auto own = llc.access(0, line, false, 20);
    EXPECT_EQ(own.level, SharedLlc::Level::Hit);
    EXPECT_EQ(own.wait, 0u);

    // After completion the line is simply resident.
    auto late = llc.access(1, line, false, 500);
    EXPECT_EQ(late.level, SharedLlc::Level::Hit);
    EXPECT_EQ(late.wait, 0u);

    const LlcStats stats = llc.collectStats();
    ASSERT_EQ(stats.per_core.size(), 2u);
    u64 total_misses = 0;
    for (const LlcCoreStats &cs : stats.per_core) {
        EXPECT_EQ(cs.accesses, cs.hits + cs.misses + cs.mshr_merges);
        total_misses += cs.misses;
    }
    EXPECT_EQ(total_misses, 1u) << "merge was double-counted as a miss";
    EXPECT_EQ(stats.per_core[0].misses, 1u);
    EXPECT_EQ(stats.per_core[1].mshr_merges, 1u);
}

/**
 * Stride-prefetcher training is a pure function of the observed
 * (pc, addr) stream: replaying the identical stream through a fresh
 * instance reproduces the identical prefetch stream.
 */
TEST(CacheProperties, StridePrefetcherTrainingIsReplayDeterministic)
{
    std::vector<std::pair<u32, Addr>> stream;
    Rng rng(43);
    Addr cursors[4] = {0x1000, 0x8000, 0x20000, 0x40000};
    const s64 strides[4] = {64, 128, -64, 192};
    for (int i = 0; i < 500; ++i) {
        const unsigned s = static_cast<unsigned>(rng.range(0, 3));
        stream.emplace_back(0x400 + s * 4, cursors[s]);
        cursors[s] = static_cast<Addr>(
            static_cast<s64>(cursors[s]) + strides[s]);
        if (rng.chance(0.1)) // noise access on a fifth pc
            stream.emplace_back(0x900, Addr{rng.next()} & 0xffffc0);
    }

    StridePrefetcher a;
    StridePrefetcher b;
    for (const auto &[pc, addr] : stream) {
        const std::vector<Addr> pa = a.observe(pc, addr);
        const std::vector<Addr> pb = b.observe(pc, addr);
        ASSERT_EQ(pa, pb);
    }
    EXPECT_EQ(a.issued(), b.issued());
    EXPECT_GT(a.issued(), 0u) << "streams never trained to confidence";
}

/**
 * True-LRU state is fully determined by the access history: two
 * caches fed the identical sequence agree access-for-access on every
 * observable (hit, victim choice, writeback) from then on.
 */
TEST(CacheProperties, LruStateEqualAfterIdenticalAccessSequences)
{
    const CacheConfig cfg{"lru", 1024, 4, 64}; // 4 sets x 4 ways
    Cache a(cfg);
    Cache b(cfg);

    Rng rng(47);
    std::vector<Addr> touched;
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = Addr{rng.range(0, 63)} * 64;
        const bool is_write = rng.chance(0.4);
        touched.push_back(addr);
        const auto ra = a.access(addr, is_write);
        const auto rb = b.access(addr, is_write);
        ASSERT_EQ(ra.hit, rb.hit) << "at access " << i;
        ASSERT_EQ(ra.had_victim, rb.had_victim) << "at access " << i;
        ASSERT_EQ(ra.victim_line, rb.victim_line) << "at access " << i;
        ASSERT_EQ(ra.writeback, rb.writeback) << "at access " << i;
    }
    EXPECT_EQ(a.hits(), b.hits());
    EXPECT_EQ(a.misses(), b.misses());
    for (Addr line : touched)
        ASSERT_EQ(a.contains(line), b.contains(line));
}

} // namespace
} // namespace redsoc
