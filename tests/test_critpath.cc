/**
 * @file
 * Critical-path what-if engine suite (DESIGN.md section 13).
 *
 * Four layers of evidence:
 *  1. streaming-sink completeness: the dependence graph is identical
 *     whether the tracer ring wraps or not (the sink sees everything),
 *  2. a 10-seed randomized property suite: structural validity,
 *     constructive acyclicity, full reachability from the first
 *     dispatch, and base-model exactness node by node,
 *  3. a golden graph snapshot, byte-identical under both scheduler
 *     kernels,
 *  4. the acceptance grid: base-model re-timing reproduces the
 *     simulator's committed cycle count bit-exactly on every
 *     workload x config x kernel point of the shared scheduler grid,
 *
 * plus what-if sanity checks, the batched pass cross-checked
 * against per-model re-timing (on random traces, on a full-length
 * kernel whose rows outlive the batched pass's ring, and on a
 * hand-built graph whose binding FU constraint does), and the exact
 * replay cross-checked against a naive one.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "critpath/dep_graph_builder.h"
#include "critpath/retimer.h"
#include "helpers.h"
#include "sched_grid.h"
#include "trace/pipe_tracer.h"

namespace redsoc {
namespace {

using test::differentialConfigs;
using test::makeTrace;
using test::randomTrace;

struct TracedRun
{
    DepGraph graph;
    CoreStats stats;
    u64 events_seen = 0;
    u64 ring_dropped = 0;
};

/** Run @p trace on a cold core with a graph-building sink attached.
 *  @p ring_cap deliberately defaults small: the graph must not depend
 *  on the ring retaining anything. */
TracedRun
tracedRun(const Trace &trace, CoreConfig cfg,
          size_t ring_cap = size_t{1} << 12)
{
    PipeTracer tracer(ring_cap);
    DepGraphBuilder builder(trace, cfg);
    tracer.setSink(&builder);
    OooCore core(cfg);
    core.setTracer(&tracer);
    TracedRun r;
    r.stats = core.run(trace);
    r.events_seen = builder.eventsSeen();
    r.ring_dropped = tracer.droppedEvents();
    r.graph = builder.finalize();
    return r;
}

/** Every milestone node must be reachable from op 0's dispatch by
 *  following stored edges forward (the graph has no orphaned work). */
void
expectAllReachable(const DepGraph &g)
{
    ASSERT_GT(g.num_ops, 0u);
    std::vector<char> reach(size_t{g.num_ops} * kNumMilestones, 0);
    reach[nodeId(0, Milestone::D)] = 1;
    u64 unreachable = 0;
    for (const u32 node : g.topo) {
        if (reach[node])
            continue;
        const u32 i = nodeOp(node);
        const Milestone ms = nodeMilestone(node);
        bool ok = false;
        for (u32 e = g.edge_begin[i]; e < g.edge_begin[i + 1]; ++e) {
            const Edge &edge = g.edges[e];
            if (edgeDstMilestone(edge.kind) != ms)
                continue;
            ok = ok ||
                 reach[nodeId(edge.src, edgeSrcMilestone(edge.kind))];
        }
        reach[node] = ok ? 1 : 0;
        unreachable += ok ? 0 : 1;
    }
    EXPECT_EQ(unreachable, 0u)
        << "milestone nodes unreachable from op 0's dispatch";
}

/** Base-model exactness, the strong form: not just the final cycle
 *  count, every node's re-timed tick equals the observed tick. */
void
expectBaseExact(const DepGraph &g, const CoreStats &stats,
                const std::string &what)
{
    SCOPED_TRACE(what);
    Retimer retimer(g);
    const RetimeResult base = retimer.retime(WhatIfModel{});
    EXPECT_EQ(base.cycles, stats.cycles);
    EXPECT_EQ(base.ops, stats.committed);
    const std::vector<Tick> &t = retimer.nodeTimes();
    u64 mismatches = 0;
    for (u32 i = 0; i < g.num_ops && mismatches < 8; ++i) {
        for (u32 m = 0; m < kNumMilestones; ++m) {
            const auto ms = static_cast<Milestone>(m);
            if (t[nodeId(i, ms)] != g.obs(ms, i)) {
                ++mismatches;
                ADD_FAILURE()
                    << "op " << i << " " << milestoneName(ms)
                    << ": retimed " << t[nodeId(i, ms)]
                    << " != observed " << g.obs(ms, i);
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

// ---------------------------------------------------------------------
// 1. Streaming-sink completeness
// ---------------------------------------------------------------------

TEST(CritpathSink, GraphUnaffectedByRingWrap)
{
    const Trace trace = randomTrace(1, 600);
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;

    // A 256-entry ring wraps hundreds of times over ~600 ops...
    const TracedRun tiny = tracedRun(trace, cfg, 256);
    EXPECT_GT(tiny.ring_dropped, 0u) << "ring never wrapped: the "
                                        "completeness claim is untested";
    // ...while a generous ring never wraps.
    const TracedRun big = tracedRun(trace, cfg, size_t{1} << 20);
    EXPECT_EQ(big.ring_dropped, 0u);

    // The sink saw the identical, complete stream in both runs.
    EXPECT_EQ(tiny.events_seen, big.events_seen);
    EXPECT_EQ(tiny.events_seen, tiny.ring_dropped + 256);
    EXPECT_EQ(renderDepGraph(tiny.graph), renderDepGraph(big.graph));
}

// ---------------------------------------------------------------------
// 2. Randomized property suite
// ---------------------------------------------------------------------

class CritpathProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(CritpathProperty, ValidAcyclicReachableAndExact)
{
    const Trace trace = randomTrace(GetParam(), 600);
    for (const std::string core : {"big", "small"}) {
        for (const auto &[tag, cfg] : differentialConfigs(core)) {
            SCOPED_TRACE(core + "/" + tag);
            const TracedRun r = tracedRun(trace, cfg);
            ASSERT_EQ(r.stats.committed, trace.size());
            ASSERT_EQ(r.graph.num_ops, trace.size());
            // validate() covers CSR shape, stored-edge tick
            // monotonicity and the topo-order acyclicity proof.
            EXPECT_EQ(r.graph.validate(), std::string());
            expectAllReachable(r.graph);
            expectBaseExact(r.graph, r.stats, "base");
        }
    }
}

TEST_P(CritpathProperty, KernelsBuildIdenticalGraphs)
{
    const Trace trace = randomTrace(GetParam(), 600);
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    std::string rendered[2];
    int i = 0;
    for (const SchedKernel kernel :
         {SchedKernel::Scan, SchedKernel::Event}) {
        cfg.sched_kernel = kernel;
        rendered[i++] = renderDepGraph(tracedRun(trace, cfg).graph);
    }
    EXPECT_EQ(rendered[0], rendered[1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CritpathProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u, 0xdeadbeefu,
                                           0xfeedfaceu));

// ---------------------------------------------------------------------
// 3. Golden graph snapshot
// ---------------------------------------------------------------------

/** Small fixed workload covering the interesting edge kinds: a logic
 *  chain (transparent passes + EGPW), an add chain, aliasing memory
 *  traffic and a conditional branch. */
Trace
goldenTrace()
{
    ProgramBuilder b("critpath_golden");
    test::emitLogicChain(b, 12);
    test::emitAddChain(b, 6, x(2));
    b.movImm(x(11), 0x1000);
    b.store(Opcode::STR, x(1), x(11), 0);
    b.load(Opcode::LDR, x(3), x(11), 0);
    b.alu(Opcode::ADD, x(2), x(2), x(3));
    ProgramBuilder::Label skip = b.newLabel();
    b.branch(Opcode::BNEZ, x(2), skip);
    b.alui(Opcode::ADD, x(1), x(1), 1);
    b.bind(skip);
    b.alu(Opcode::EOR, x(1), x(1), x(2));
    b.halt();
    return makeTrace(b);
}

TEST(CritpathGolden, SnapshotMatchesBothKernels)
{
    const Trace trace = goldenTrace();
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;

    std::string rendered[2];
    int i = 0;
    for (const SchedKernel kernel :
         {SchedKernel::Scan, SchedKernel::Event}) {
        cfg.sched_kernel = kernel;
        const TracedRun r = tracedRun(trace, cfg);
        // The golden workload must exercise the recycle machinery.
        EXPECT_GT(r.stats.recycled_ops, 0u);
        rendered[i++] = renderDepGraph(r.graph);
    }
    EXPECT_EQ(rendered[0], rendered[1])
        << "Scan and Event kernels built different graphs";

    const std::string golden_path =
        std::string(REDSOC_TEST_GOLDEN) + "/critpath_small.txt";
    const char *update = std::getenv("REDSOC_UPDATE_GOLDEN");
    if (update != nullptr && *update != '\0') {
        std::ofstream ofs(golden_path, std::ios::binary);
        ASSERT_TRUE(ofs) << "cannot write " << golden_path;
        ofs << rendered[0];
        GTEST_SKIP() << "golden updated: " << golden_path;
    }
    std::ifstream ifs(golden_path, std::ios::binary);
    ASSERT_TRUE(ifs) << "missing golden file " << golden_path
                     << " (regenerate with REDSOC_UPDATE_GOLDEN=1)";
    std::ostringstream want;
    want << ifs.rdbuf();
    EXPECT_EQ(rendered[0], want.str())
        << "dependence-graph drift: the committed golden snapshot no "
           "longer matches (REDSOC_UPDATE_GOLDEN=1 if intentional)";
}

// ---------------------------------------------------------------------
// 4. Acceptance grid: base-model exactness on real workloads
// ---------------------------------------------------------------------

class CritpathGrid : public ::testing::TestWithParam<std::string>
{
  protected:
    static SimDriver &sharedDriver()
    {
        static SimDriver driver;
        return driver;
    }
};

TEST_P(CritpathGrid, BaseRetimeBitIdenticalToSimulator)
{
    const std::string workload = GetParam();
    const Trace &trace = sharedDriver().trace(workload);
    for (const std::string core : {"big", "small"}) {
        for (const auto &[tag, cfg] : differentialConfigs(core)) {
            for (const SchedKernel kernel :
                 {SchedKernel::Scan, SchedKernel::Event}) {
                CoreConfig point = cfg;
                point.sched_kernel = kernel;
                SCOPED_TRACE(
                    workload + "/" + core + "/" + tag +
                    (kernel == SchedKernel::Scan ? "/scan" : "/event"));
                const TracedRun r = tracedRun(trace, point);
                Retimer retimer(r.graph);
                const RetimeResult base = retimer.retime(WhatIfModel{});
                EXPECT_EQ(base.cycles, r.stats.cycles);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, CritpathGrid,
                         ::testing::Values("crc", "gsm", "act", "bzip2",
                                           "conv", "xalanc"),
                         [](const auto &pinfo) { return pinfo.param; });

// ---------------------------------------------------------------------
// What-if model sanity (ordering relations, not exact values)
// ---------------------------------------------------------------------

TEST(CritpathWhatIf, ModelOrderingSane)
{
    const Trace trace = randomTrace(7, 800);
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    const TracedRun r = tracedRun(trace, cfg);
    Retimer retimer(r.graph);

    WhatIfModel base;
    const Cycle base_cycles = retimer.retime(base).cycles;
    EXPECT_EQ(base_cycles, r.stats.cycles);

    WhatIfModel ideal;
    ideal.name = "zero_latency_recycle";
    ideal.exact_replay = false;
    ideal.zero_latency_recycle = true;
    const Cycle ideal_cycles = retimer.retime(ideal).cycles;

    WhatIfModel none;
    none.name = "no_recycle";
    none.exact_replay = false;
    none.no_recycle = true;
    const Cycle none_cycles = retimer.retime(none).cycles;

    // Ideal recycling can only help; no recycling can only hurt.
    EXPECT_LE(ideal_cycles, none_cycles);

    // Coarser CI precision is monotonically worse (or equal).
    Cycle prev = 0;
    for (const unsigned bits : {4u, 3u, 2u, 1u}) {
        WhatIfModel m;
        m.name = "ci" + std::to_string(bits);
        m.exact_replay = false;
        m.ci_bits = bits;
        const Cycle c = retimer.retime(m).cycles;
        EXPECT_GE(c, prev) << "ci_bits=" << bits;
        prev = c;
    }

    // Fewer FUs can only lengthen the schedule relative to more.
    Cycle more_units = 0, fewer_units = 0;
    {
        WhatIfModel m;
        m.exact_replay = false;
        m.fu_scale = 2.0;
        more_units = retimer.retime(m).cycles;
        m.fu_scale = 0.5;
        fewer_units = retimer.retime(m).cycles;
    }
    EXPECT_LE(more_units, fewer_units);

    // The critical-path walk terminates and reports a real path.
    const RetimeResult res = retimer.retime(base);
    EXPECT_GT(res.path_len, 0u);
    u64 total = 0;
    for (const u64 n : res.path_kinds)
        total += n;
    EXPECT_EQ(total, res.path_len);
}

/** Every what-if knob combination the batched pass special-cases:
 *  CI precision ladder x EGPW honoring x FU scaling, plus the two
 *  bound models. Mirrors (and exceeds) the bench sweep's coverage. */
std::vector<WhatIfModel>
crossCheckModels()
{
    std::vector<WhatIfModel> models;
    for (unsigned bits : {1u, 2u, 3u, 4u}) {
        for (bool egpw : {true, false}) {
            for (double fu : {0.5, 1.0, 2.0, 4.0}) {
                WhatIfModel m;
                m.name = "ci" + std::to_string(bits) +
                         (egpw ? "" : "_noegpw") + "_fu" +
                         std::to_string(fu);
                m.exact_replay = false;
                m.ci_bits = bits;
                m.egpw = egpw;
                m.fu_scale = fu;
                models.push_back(m);
            }
        }
    }
    for (double fu : {0.5, 1.0, 2.0}) {
        WhatIfModel m;
        m.name = "ideal_fu" + std::to_string(fu);
        m.exact_replay = false;
        m.zero_latency_recycle = true;
        m.fu_scale = fu;
        models.push_back(m);
        m.name = "none_fu" + std::to_string(fu);
        m.zero_latency_recycle = false;
        m.no_recycle = true;
        models.push_back(m);
    }
    return models;
}

/** The batched sweep must be a pure optimization: retimeAll() and a
 *  loop of retime() calls are two independent implementations (the
 *  batched pass runs on a pruned, class-folded plan; retime() walks
 *  the raw edge array), so agreement here proves the plan's
 *  model-independent prunes are sound on real dependence graphs. */
TEST_P(CritpathProperty, BatchedRetimeMatchesPerModel)
{
    const Trace trace = randomTrace(GetParam(), 600);
    const std::vector<WhatIfModel> models = crossCheckModels();
    for (const std::string core : {"big", "small"}) {
        for (const auto &[tag, cfg] : differentialConfigs(core)) {
            SCOPED_TRACE(core + "/" + tag);
            const TracedRun r = tracedRun(trace, cfg);
            Retimer retimer(r.graph);
            const std::vector<RetimeResult> batched =
                retimer.retimeAll(models);
            ASSERT_EQ(batched.size(), models.size());
            for (size_t i = 0; i < models.size(); ++i) {
                const RetimeResult one = retimer.retime(models[i]);
                EXPECT_EQ(batched[i].cycles, one.cycles)
                    << "model " << models[i].name;
                EXPECT_EQ(batched[i].ops, one.ops);
            }
        }
    }
}

/** The batched pass keeps recent rows in a ring and the rest in a far
 *  table. The 600-op traces above never outrun the ring; a full-length
 *  kernel does, both through plan sources (loop-invariant registers)
 *  and, at high FU scales, through FU gathers, and must still match
 *  retime() model for model. */
TEST(CritpathBatched, FullTraceFarRowsMatchPerModel)
{
    SimDriver driver;
    const Trace &trace = driver.trace("crc");
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    const TracedRun r = tracedRun(trace, cfg);
    ASSERT_EQ(r.graph.num_ops, trace.size());
    Retimer retimer(r.graph);

    std::vector<WhatIfModel> models;
    const auto add = [&models](unsigned bits, bool egpw, double fu) {
        WhatIfModel m;
        m.name = "ci" + std::to_string(bits) + (egpw ? "" : "_noegpw") +
                 "_fu" + std::to_string(fu);
        m.exact_replay = false;
        m.ci_bits = bits;
        m.egpw = egpw;
        m.fu_scale = fu;
        models.push_back(m);
        return &models.back();
    };
    add(4, true, 0.25);
    add(4, true, 1.0);
    add(4, true, 16.0);
    add(1, false, 0.25);
    add(1, false, 16.0);
    add(2, true, 2.0);
    WhatIfModel *ideal = add(4, true, 16.0);
    ideal->name += "_ideal";
    ideal->zero_latency_recycle = true;
    WhatIfModel *none = add(4, true, 0.25);
    none->name += "_none";
    none->no_recycle = true;

    const std::vector<RetimeResult> batched = retimer.retimeAll(models);
    ASSERT_EQ(batched.size(), models.size());
    const Retimer::FarReads far = retimer.farReads();
    EXPECT_GT(far.plan, 0u) << "no plan entry read a far row";
    EXPECT_GT(far.fu, 0u) << "no FU gather read a far row";
    for (size_t i = 0; i < models.size(); ++i) {
        const RetimeResult one = retimer.retime(models[i]);
        EXPECT_EQ(batched[i].cycles, one.cycles)
            << "model " << models[i].name;
        EXPECT_EQ(batched[i].ops, one.ops);
    }
}

/** A naive exact replay for cross-checking Retimer::retime() on the
 *  base model: per node, scan the op's whole edge list for edges into
 *  this milestone and take t(src) + obs(dst) - obs(src), the first
 *  strictly greater candidate winning the argmax. */
struct NaiveReplay
{
    std::vector<Tick> time;
    RetimeResult result;
};

NaiveReplay
naiveExactReplay(const DepGraph &g)
{
    NaiveReplay out;
    const size_t n_nodes = size_t{g.num_ops} * kNumMilestones;
    out.time.assign(n_nodes, 0);
    std::vector<u32> arg_src(n_nodes, ~u32{0});
    std::vector<EdgeKind> arg_kind(n_nodes, EdgeKind::NUM);
    for (const u32 node : g.topo) {
        const u32 i = nodeOp(node);
        const Milestone ms = nodeMilestone(node);
        for (u32 e = g.edge_begin[i]; e < g.edge_begin[i + 1]; ++e) {
            const Edge &edge = g.edges[e];
            if (edgeDstMilestone(edge.kind) != ms)
                continue;
            const Milestone sms = edgeSrcMilestone(edge.kind);
            const u32 src = nodeId(edge.src, sms);
            const Tick cand =
                out.time[src] + (g.obs(ms, i) - g.obs(sms, edge.src));
            if (cand > out.time[node]) {
                out.time[node] = cand;
                arg_src[node] = src;
                arg_kind[node] = edge.kind;
            }
        }
    }
    out.result.ops = g.num_ops;
    if (g.num_ops == 0)
        return out;
    u32 node = nodeId(g.num_ops - 1, Milestone::C);
    out.result.cycles = out.time[node] / g.params.ticks_per_cycle + 1;
    for (; arg_src[node] != ~u32{0}; node = arg_src[node]) {
        ++out.result.path_kinds[static_cast<size_t>(arg_kind[node])];
        ++out.result.path_len;
    }
    return out;
}

/** retime()'s exact-replay loop against naiveExactReplay(): cycles,
 *  every node time, and the whole critical-path walk. */
void
expectExactMatchesNaive(const DepGraph &g, const std::string &what)
{
    SCOPED_TRACE(what);
    Retimer retimer(g);
    const RetimeResult got = retimer.retime(WhatIfModel{});
    const NaiveReplay want = naiveExactReplay(g);
    EXPECT_EQ(got.cycles, want.result.cycles);
    EXPECT_EQ(got.ops, want.result.ops);
    EXPECT_EQ(got.path_len, want.result.path_len);
    EXPECT_GT(got.path_len, 0u);
    for (size_t k = 0; k < got.path_kinds.size(); ++k)
        EXPECT_EQ(got.path_kinds[k], want.result.path_kinds[k])
            << edgeKindName(static_cast<EdgeKind>(k));
    const std::vector<Tick> &t = retimer.nodeTimes();
    ASSERT_EQ(t.size(), want.time.size());
    u64 mismatches = 0;
    for (size_t n = 0; n < t.size(); ++n)
        mismatches += t[n] != want.time[n];
    EXPECT_EQ(mismatches, 0u);
}

TEST_P(CritpathProperty, ExactReplayMatchesNaiveReplay)
{
    const Trace trace = randomTrace(GetParam(), 600);
    for (const std::string core : {"big", "small"})
        for (const auto &[tag, cfg] : differentialConfigs(core))
            expectExactMatchesNaive(tracedRun(trace, cfg).graph,
                                    core + "/" + tag);
}

TEST(CritpathExact, FullTraceExactReplayMatchesNaiveReplay)
{
    SimDriver driver;
    CoreConfig cfg = coreByName("big");
    cfg.mode = SchedMode::ReDSOC;
    for (const std::string workload : {"crc", "xalanc"}) {
        const Trace &trace = driver.trace(workload);
        const TracedRun r = tracedRun(trace, cfg);
        ASSERT_EQ(r.graph.num_ops, trace.size());
        expectExactMatchesNaive(r.graph, workload);
    }
}

/**
 * A hand-built graph whose binding FU constraint reaches far behind
 * its reader: op A (ALU pool, one unit) selects late, after a
 * long-latency producer P, and op B, A's successor in the pool's
 * grant order, sits behind thousands of edge-free filler ops. A's S
 * row is therefore many ring depths (Retimer's 4096 rows) back when B
 * gathers it, and every ring row in between is overwritten with a
 * filler's zero, so a far FU gather that read the ring would price B
 * (the last op) from zero instead of from A.
 */
DepGraph
farFuGatherGraph()
{
    constexpr u32 kFillers = 3 * 4096;
    constexpr Tick kLatency = 4000;
    DepGraph g;
    g.params.ci_precision_bits = 3;
    g.params.ticks_per_cycle = 8;
    g.params.units = {1, 1, 1, 1};
    g.num_ops = kFillers + 3;
    const u32 op_p = 0, op_a = 1, op_b = g.num_ops - 1;
    for (auto *lane : {&g.obs_d, &g.obs_s, &g.obs_x, &g.obs_w, &g.obs_c})
        lane->assign(g.num_ops, 0);
    g.flags.assign(g.num_ops, 0);
    g.pool.assign(g.num_ops, 0);
    g.pool_pos.assign(g.num_ops, kNoPoolPos);
    const auto setObs = [&g](u32 op, Tick s, Tick x, Tick w) {
        g.obs_s[op] = s;
        g.obs_x[op] = x;
        g.obs_w[op] = w;
        g.obs_c[op] = w;
    };
    setObs(op_p, 8, 16, 16 + kLatency);
    setObs(op_a, 16 + kLatency, 24 + kLatency, 32 + kLatency);
    setObs(op_b, 40 + kLatency, 48 + kLatency, 56 + kLatency);
    const u8 alu = static_cast<u8>(FuPoolKind::Alu);
    g.pool_order[alu] = {op_a, op_b};
    g.pool_pos[op_a] = 0;
    g.pool_pos[op_b] = 1;

    const auto addOp = [&g](u32 op, std::vector<Edge> extra_s) {
        g.edge_begin.push_back(static_cast<u32>(g.edges.size()));
        g.edges.push_back({op, 0, EdgeKind::DispatchToSelect});
        for (const Edge &e : extra_s)
            g.edges.push_back(e);
        g.edges.push_back({op, 0, EdgeKind::SelectToExec});
        g.edges.push_back({op, 0, EdgeKind::Exec});
        g.edges.push_back({op, 0, EdgeKind::WbToCommit});
    };
    addOp(op_p, {});
    addOp(op_a, {{op_p, 0, EdgeKind::DataReady}});
    for (u32 op = op_a + 1; op < op_b; ++op)
        g.edge_begin.push_back(static_cast<u32>(g.edges.size()));
    addOp(op_b, {{op_a, 0, EdgeKind::FuStruct}});
    g.edge_begin.push_back(static_cast<u32>(g.edges.size()));
    for (u32 node = 0; node < g.num_ops * kNumMilestones; ++node)
        g.topo.push_back(node);
    return g;
}

TEST(CritpathBatched, FarFuGatherAtShippingRingDepth)
{
    const DepGraph g = farFuGatherGraph();
    ASSERT_EQ(g.validate(), std::string());
    Retimer retimer(g);
    std::vector<WhatIfModel> models;
    for (const bool no_recycle : {false, true}) {
        WhatIfModel m;
        m.name = no_recycle ? "none" : "ci3";
        m.exact_replay = false;
        m.no_recycle = no_recycle;
        models.push_back(m);
    }
    const std::vector<RetimeResult> batched = retimer.retimeAll(models);
    EXPECT_GT(retimer.farReads().fu, 0u)
        << "the FU gather never read a far row";
    for (size_t i = 0; i < models.size(); ++i) {
        const RetimeResult one = retimer.retime(models[i]);
        // B selects a cycle after A, which waits out P's latency.
        EXPECT_GT(one.cycles, Cycle{4000 / 8}) << models[i].name;
        EXPECT_EQ(batched[i].cycles, one.cycles) << models[i].name;
    }
}

/** The plan walk reads each op's in-edges milestone by milestone, so a
 *  topo order that reaches an op's W before its S is rejected, by
 *  validate() and by the Retimer alike. */
TEST(CritpathPlan, OutOfPipelineOrderTopoIsRejected)
{
    DepGraph g = farFuGatherGraph();
    std::swap(g.topo[nodeId(0, Milestone::S)],
              g.topo[nodeId(0, Milestone::W)]);
    EXPECT_NE(g.validate().find("pipeline order"), std::string::npos)
        << g.validate();
    EXPECT_THROW(Retimer{g}, std::logic_error);
}

} // namespace
} // namespace redsoc
