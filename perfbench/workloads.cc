/**
 * @file
 * The benchmark's four workloads. Each has an untraced end-to-end path
 * (timed for --seconds, reports the end-to-end metrics) and a traced
 * path (a fixed amount of the same work with a span around every call
 * into a layer's public API, reports the per-layer metrics). The
 * traced path does fixed work so its counts repeat exactly.
 *
 * The program under test is only reached through public headers:
 * func (traceWorkload), core (OooCore), mem (MemHierarchy), critpath
 * (DepGraphBuilder, Retimer), sim (SimDriver, RunCache) and proc
 * (Processor).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "critpath/dep_graph_builder.h"
#include "critpath/retimer.h"
#include "isa/opcode.h"
#include "mem/hierarchy.h"
#include "proc/processor.h"
#include "sim/driver.h"
#include "sim/run_cache.h"
#include "spans.h"
#include "workloads/registry.h"

namespace perfbench {

namespace {

using namespace redsoc;

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

const std::vector<std::string> kCores = {"small", "medium", "big"};
const std::vector<SchedMode> kModes = {SchedMode::Baseline,
                                       SchedMode::ReDSOC, SchedMode::MOS};

/** One cell of the sweep matrix. */
struct MatrixPoint
{
    SimDriver::Point point;
    std::string core;
    SchedMode mode = SchedMode::Baseline;
    Suite suite = Suite::Spec;
    std::string key; ///< expected-file key
};

/** All 15 registry kernels x small/medium/big x baseline/redsoc/mos. */
std::vector<MatrixPoint>
sweepMatrix()
{
    std::vector<MatrixPoint> out;
    for (const Workload &w : allWorkloads())
        for (const std::string &core : kCores)
            for (SchedMode mode : kModes) {
                MatrixPoint p;
                p.point = {w.name, configFor(core, mode)};
                p.core = core;
                p.mode = mode;
                p.suite = w.suite;
                p.key = "point/" + w.name + "/" + core + "/" +
                        schedModeName(mode);
                out.push_back(std::move(p));
            }
    return out;
}

std::vector<std::string>
allKernels()
{
    std::vector<std::string> out;
    for (const Workload &w : allWorkloads())
        out.push_back(w.name);
    return out;
}

/** what-if kernels: ALU chains, DSP, SIMD and the two memory-bound
 *  SPEC kernels. */
const std::vector<std::string> kWhatifKernels = {"crc",  "gsm",
                                                 "act",  "conv",
                                                 "xalanc", "soplex"};

/** A four-core multi-programmed mix on one shared LLC. */
struct Mix
{
    std::string name;
    std::vector<std::string> kernels; ///< core i runs kernels[i]
    /** One address space for all cores: copies of a kernel then share
     *  lines, which is what exercises the LLC's MSHR merging. */
    bool shared = false;
};

/** Mixes pairing the memory-bound kernels (xalanc, soplex, act: ~200 KB
 *  each) with ALU-bound ones. Every mix's working set exceeds the
 *  256 KB shared LLC. */
const std::vector<Mix> kMixes = {
    {"m1", {"xalanc", "crc", "soplex", "bitcnt"}, false},
    {"m2", {"soplex", "gsm", "act", "omnetpp"}, false},
    {"m3", {"xalanc", "corners", "act", "crc"}, false},
    {"m4", {"xalanc", "crc", "xalanc", "soplex"}, true}};

ProcConfig
mixConfig(const Mix &mix)
{
    ProcConfig cfg;
    cfg.num_cores = static_cast<unsigned>(mix.kernels.size());
    cfg.core = configFor("big", SchedMode::ReDSOC);
    cfg.llc = CacheConfig{"llc", 256 * 1024, 16, 64};
    cfg.share_address_space = mix.shared;
    return cfg;
}

std::vector<std::string>
mixKernels()
{
    std::vector<std::string> out;
    for (const Mix &mix : kMixes)
        for (const std::string &k : mix.kernels)
            if (std::find(out.begin(), out.end(), k) == out.end())
                out.push_back(k);
    return out;
}

// ----- what-if models (after tools/bench_critpath) --------------------

/** CI precision of the traced reference run (16 ticks per cycle). */
constexpr unsigned kTracedCiBits = 4;

Tick
thresholdForBits(unsigned bits)
{
    const Tick t = (Tick{1} << bits) * 3 / 4;
    return t == 0 ? 1 : t;
}

CoreConfig
whatifTracedConfig()
{
    CoreConfig cfg = configFor("big", SchedMode::ReDSOC);
    cfg.ci_precision_bits = kTracedCiBits;
    cfg.slack_threshold_ticks = thresholdForBits(kTracedCiBits);
    return cfg;
}

/** A what-if model and the simulator configuration it predicts. */
struct WhatifPoint
{
    WhatIfModel model;
    CoreConfig sim_cfg;
};

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

WhatifPoint
whatifPoint(const std::string &name, unsigned ci, bool egpw, double fu)
{
    WhatifPoint p;
    p.model.name = name;
    p.model.exact_replay = false;
    p.model.ci_bits = ci;
    p.model.egpw = egpw;
    p.model.fu_scale = fu;
    p.sim_cfg = whatifTracedConfig();
    p.sim_cfg.ci_precision_bits = ci;
    p.sim_cfg.slack_threshold_ticks = thresholdForBits(ci);
    p.sim_cfg.egpw = egpw;
    auto scale = [fu](unsigned &units) {
        const double scaled = units * fu;
        units = scaled < 1.0 ? 1u : static_cast<unsigned>(scaled);
    };
    scale(p.sim_cfg.alu_units);
    scale(p.sim_cfg.simd_units);
    scale(p.sim_cfg.fp_units);
    scale(p.sim_cfg.mem_ports);
    return p;
}

constexpr size_t kFixedModels = 60;
constexpr size_t kHeldOutModels = 4;

/**
 * 64 models per kernel: the 60 fixed ones whose analytic cycles the
 * expected file records (4 CI x 2 EGPW x 7 FU scales, plus the
 * ideal-recycle and no-recycle bounds at 1x and 2x FU), then one
 * held-out model per CI precision. @p rng draws each held-out model's
 * EGPW setting and deals it one of four FU scales off the fixed
 * ladder. The set of scales is the same for every seed: the batched
 * pass's cost depends on how many distinct scales it re-derives.
 */
std::vector<WhatifPoint>
whatifModels(Rng &rng)
{
    std::vector<WhatifPoint> out;
    const double ladder[] = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
    for (unsigned ci = 1; ci <= kTracedCiBits; ++ci)
        for (bool egpw : {true, false})
            for (double fu : ladder)
                out.push_back(whatifPoint(
                    "ci" + std::to_string(ci) + (egpw ? "" : "_noegpw") +
                        "_fu" + fmt(fu),
                    ci, egpw, fu));
    for (double fu : {1.0, 2.0}) {
        WhatifPoint ideal = whatifPoint(
            "ideal_fu" + fmt(fu), kTracedCiBits,
            true, fu);
        ideal.model.zero_latency_recycle = true;
        out.push_back(ideal);
        WhatifPoint none = whatifPoint(
            "norecycle_fu" + fmt(fu),
            kTracedCiBits, true, fu);
        none.model.no_recycle = true;
        out.push_back(none);
    }
    const double held_fu[kTracedCiBits] = {0.75, 1.5, 3.0, 6.0};
    const std::vector<size_t> deal = permutation(kTracedCiBits, rng);
    for (unsigned ci = 1; ci <= kTracedCiBits; ++ci) {
        const bool egpw = rng.below(2) == 0;
        out.push_back(whatifPoint("heldout_ci" + std::to_string(ci), ci,
                                  egpw, held_fu[deal[ci - 1]]));
    }
    return out;
}

std::vector<WhatIfModel>
modelBatch(const std::vector<WhatifPoint> &points)
{
    std::vector<WhatIfModel> batch;
    for (const WhatifPoint &p : points)
        batch.push_back(p.model);
    return batch;
}

// ---------------------------------------------------------------------
// Shared run state
// ---------------------------------------------------------------------

/** Sums of the simulated-time counters of a set of core runs. */
struct SimTotals
{
    u64 committed = 0, cycles = 0, fu_stall = 0, recycled = 0;
    u64 egpw_grants = 0, egpw_wasted = 0, la_pred = 0, la_mispred = 0;
    u64 loads = 0, l1_misses = 0;

    void add(const CoreStats &s)
    {
        committed += s.committed;
        cycles += s.cycles;
        fu_stall += s.fu_stall_cycles;
        recycled += s.recycled_ops;
        egpw_grants += s.egpw_grants;
        egpw_wasted += s.egpw_wasted;
        la_pred += s.la_predictions;
        la_mispred += s.la_mispredictions;
        loads += s.loads;
        l1_misses += s.l1_load_misses;
    }
};

/** Shared-LLC counters summed over a set of multi-core runs. */
struct ProcTotals
{
    u64 accesses = 0, hits = 0, merges = 0, bank_wait = 0, back_inv = 0;

    void add(const ProcStats &s)
    {
        for (const LlcCoreStats &c : s.llc.per_core) {
            accesses += c.accesses;
            hits += c.hits;
            merges += c.mshr_merges;
            bank_wait += c.bank_wait_cycles;
            back_inv += c.back_invalidations;
        }
    }
};

/** Everything besides the span totals that feeds the per-layer metrics. */
struct LayerInputs
{
    SimTotals sim;
    ProcTotals proc;
    unsigned threads = 0;
    double point_wall_s = 0.0; ///< wall time of the traced point batches
    /** Traced run time / untraced end-to-end run time of the same work. */
    double trace_overhead = 0.0;
    /** Traced run time / the same code with recording paused: the
     *  spans' own cost (equal to trace_overhead where the end-to-end
     *  path is the traced code itself). */
    double span_overhead = 0.0;
    double tracer_overhead = 0.0;
    double speedup_err_pp = 0.0;
    double whatif_err_pct = 0.0;
    u64 whatif_optimistic = 0;
};

/** Per-run context: options, expected values, worker pool, failures. */
struct Context
{
    explicit Context(const Options &o)
        : opts(o), expected(Expected::load(o.expect_path)),
          pool(o.threads != 0 ? o.threads
                              : std::max(1u, std::thread::hardware_concurrency()))
    {
    }

    /** Compare one core run with its recorded result. */
    bool check(const std::string &key, const CoreStats &s)
    {
        const std::vector<u64> *want = expected.find(key);
        if (want != nullptr && *want == archResult(s))
            return true;
        fails.fail(key + (want == nullptr ? ": not recorded"
                                          : ": result differs"));
        return false;
    }

    const Options &opts;
    Expected expected;
    ThreadPool pool;
    /** Computes run keys; built before any REDSOC_CACHE_DIR is set, so
     *  it holds no disk cache of its own. */
    SimDriver keyer;
    FailureLog fails;
    u64 attempted = 0;
};

std::string
workDir(const Options &opts, const std::string &leaf)
{
    return opts.work_dir + "/" + leaf;
}

void
useCacheDir(const std::string &dir)
{
    // Only called while no simulation thread runs: SimDriver reads the
    // variable in its constructor.
    setenv("REDSOC_CACHE_DIR", dir.c_str(), 1);
}

/** Mean |simulated - paper| ReDSOC speedup over the Fig. 13 suite x
 *  core means, in percentage points, from the sweep matrix results
 *  (default slack threshold: no per-suite tuning). */
double
speedupErrPp(const std::vector<MatrixPoint> &matrix,
             const std::vector<CoreStats> &stats)
{
    // Paper Fig. 13 suite means, % speedup over baseline.
    auto paper = [](Suite suite, const std::string &core) {
        const double spec[] = {4, 8, 12}, mib[] = {9, 17, 23},
                     ml[] = {6, 9, 13};
        const size_t c = core == "small" ? 0 : core == "medium" ? 1 : 2;
        return suite == Suite::Spec      ? spec[c]
               : suite == Suite::MiBench ? mib[c]
                                         : ml[c];
    };
    std::map<std::pair<int, std::string>, std::pair<double, int>> sums;
    std::map<std::pair<std::string, std::string>, Cycle> base;
    for (size_t i = 0; i < matrix.size(); ++i)
        if (matrix[i].mode == SchedMode::Baseline)
            base[{matrix[i].point.workload, matrix[i].core}] =
                stats[i].cycles;
    for (size_t i = 0; i < matrix.size(); ++i) {
        const MatrixPoint &m = matrix[i];
        if (m.mode != SchedMode::ReDSOC || stats[i].cycles == 0)
            continue;
        const double pct =
            100.0 * (static_cast<double>(base[{m.point.workload, m.core}]) /
                         static_cast<double>(stats[i].cycles) -
                     1.0);
        auto &acc = sums[{static_cast<int>(m.suite), m.core}];
        acc.first += pct;
        ++acc.second;
    }
    double err = 0.0;
    for (const auto &[k, acc] : sums)
        err += std::fabs(acc.first / acc.second -
                         paper(static_cast<Suite>(k.first), k.second));
    return sums.empty() ? 0.0 : err / static_cast<double>(sums.size());
}

// ---------------------------------------------------------------------
// Traced-run building blocks
// ---------------------------------------------------------------------

using TraceSet = std::map<std::string, std::unique_ptr<Trace>>;

/** Build @p kernels' traces through the func layer, one span each. */
TraceSet
buildTraces(Context &ctx, const std::vector<std::string> &kernels)
{
    std::vector<std::unique_ptr<Trace>> built(kernels.size());
    closedLoop(ctx.pool, kernels.size(), [&](u64 i) {
        ScopedSpan span("func.trace", i + 1);
        built[i] = std::make_unique<Trace>(traceWorkload(kernels[i]));
        span.setCounts(built[i]->size());
    });
    TraceSet out;
    for (size_t i = 0; i < kernels.size(); ++i)
        out[kernels[i]] = std::move(built[i]);
    return out;
}

/** Replay each kernel's load/store stream through a fresh big-core
 *  MemHierarchy, one span per kernel (calls, L1 hits, L2 hits). */
void
memProbe(Context &ctx, const std::vector<std::string> &kernels,
         const TraceSet &traces)
{
    closedLoop(ctx.pool, kernels.size(), [&](u64 i) {
        const Trace &tr = *traces.at(kernels[i]);
        struct Access
        {
            u32 pc;
            Addr addr;
            bool store;
        };
        std::vector<Access> stream;
        for (SeqNum s = 0; s < tr.size(); ++s)
            if (isMem(tr.inst(s).op))
                stream.push_back({tr.op(s).pc, tr.op(s).mem_addr,
                                  isStore(tr.inst(s).op)});
        MemHierarchy mem(configFor("big", SchedMode::ReDSOC).memory);
        u64 l1 = 0, l2 = 0;
        ScopedSpan span("mem.access", i + 1);
        for (size_t k = 0; k < stream.size(); ++k) {
            const MemHierarchy::AccessResult r =
                mem.access(stream[k].pc, stream[k].addr, stream[k].store,
                           static_cast<Cycle>(k));
            l1 += r.l1_hit;
            l2 += !r.l1_hit && r.l2_hit;
        }
        span.setCounts(stream.size(), l1, l2);
    });
}

/**
 * One pass over the sweep matrix in @p order through the sim layer's
 * public calls, the way SimDriver serves a point: run key, disk-cache
 * load, and on a miss a core run plus a cache store. Every call gets a
 * span under a per-point span. Returns the pass's wall time.
 */
double
tracedMatrixPass(Context &ctx, const std::vector<MatrixPoint> &matrix,
                 const std::vector<size_t> &order, const TraceSet &traces,
                 const std::string &dir, u64 pass,
                 std::vector<CoreStats> &stats)
{
    const Clock::time_point t0 = Clock::now();
    std::optional<RunCache> cache;
    {
        ScopedSpan span("sim.cache.open", 0);
        cache.emplace(dir);
    }
    closedLoop(ctx.pool, order.size(), [&](u64 i) {
        const MatrixPoint &mp = matrix[order[i]];
        const u64 pid = pass * matrix.size() + i + 1;
        std::optional<CoreStats> result;
        std::string key;
        try {
            ScopedSpan point("point", pid);
            {
                ScopedSpan span("sim.key", pid);
                key = ctx.keyer.runKey(mp.point.workload, mp.point.config);
                span.setCounts(key.size());
            }
            ScopedSpan load("sim.cache.load", pid);
            result = cache->load(key);
            load.finish();
            if (result) {
                load.setCounts(
                    std::filesystem::file_size(cache->entryPath(key)), 1);
            } else {
                {
                    ScopedSpan span("core.run", pid);
                    result = OooCore(mp.point.config)
                                 .run(*traces.at(mp.point.workload));
                    span.setCounts(result->committed, result->cycles);
                }
                ScopedSpan store("sim.cache.store", pid);
                cache->store(key, *result);
                store.finish();
                store.setCounts(
                    std::filesystem::file_size(cache->entryPath(key)));
            }
        } catch (const std::exception &e) {
            ctx.fails.fail(mp.key + ": " + e.what());
            return;
        }
        if (ctx.check(mp.key, *result))
            stats[order[i]] = *result;
    });
    ctx.attempted += order.size();
    return secondsSince(t0);
}

/** The end-to-end step: SimDriver::runAll over the matrix in @p order.
 *  Returns the wall and CPU time from @p start to the end of runAll,
 *  then fills @p stats (matrix order) and checks every point. */
Elapsed
driverPass(Context &ctx, SimDriver &driver,
           const std::vector<MatrixPoint> &matrix,
           const std::vector<SimDriver::Point> &points,
           const std::vector<size_t> &order, const Stopwatch &start,
           std::vector<CoreStats> &stats)
{
    std::vector<CoreStats> got;
    try {
        got = driver.runAll(points);
    } catch (const std::exception &) {
        // Some point failed: collect point by point below, where each
        // failed point rethrows its own error.
    }
    const Elapsed took = start.elapsed();
    for (size_t j = 0; j < order.size(); ++j) {
        const MatrixPoint &mp = matrix[order[j]];
        try {
            CoreStats s = got.empty() ? driver.run(mp.point.workload,
                                                   mp.point.config)
                                      : std::move(got[j]);
            if (ctx.check(mp.key, s))
                stats[order[j]] = std::move(s);
        } catch (const std::exception &e) {
            ctx.fails.fail(mp.key + ": " + e.what());
        }
    }
    ctx.attempted += order.size();
    return took;
}

/** The matrix's points in @p order. */
std::vector<SimDriver::Point>
orderedPoints(const std::vector<MatrixPoint> &matrix,
              const std::vector<size_t> &order)
{
    std::vector<SimDriver::Point> points;
    points.reserve(order.size());
    for (size_t i : order)
        points.push_back(matrix[i].point);
    return points;
}

// ---------------------------------------------------------------------
// Metric assembly
// ---------------------------------------------------------------------

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

std::vector<Metric>
layerMetrics(const std::map<std::string, SpanTotals> &spans,
             const LayerInputs &in, const Context &ctx)
{
    auto get = [&](const char *name) {
        auto it = spans.find(name);
        return it == spans.end() ? SpanTotals{} : it->second;
    };
    auto d = [](u64 v) { return static_cast<double>(v); };
    const SpanTotals func = get("func.trace"), core = get("core.run"),
                     mem = get("mem.access"),
                     traced = get("critpath.traced_run"),
                     fin = get("critpath.finalize"),
                     plan = get("critpath.plan"),
                     base = get("critpath.retime_base"),
                     all = get("critpath.retime_all"), key = get("sim.key"),
                     load = get("sim.cache.load"),
                     store = get("sim.cache.store"), point = get("point"),
                     proc = get("proc.run");
    const SimTotals &s = in.sim;
    std::vector<Metric> m = {
        {"func.trace.calls", d(func.calls), "count"},
        {"func.trace.ops", d(func.a), "count"},
        {"func.trace.s", func.self_s, "s"},
        {"func.trace.ns_per_op", ratio(func.self_s * 1e9, d(func.a)),
         "ns/op"},
        {"core.run.calls", d(core.calls), "count"},
        {"core.run.ops", d(core.a), "count"},
        {"core.run.cycles", d(core.b), "count"},
        {"core.run.s", core.self_s, "s"},
        {"core.run.ns_per_op", ratio(core.self_s * 1e9, d(core.a)),
         "ns/op"},
        {"core.run.ns_per_cycle", ratio(core.self_s * 1e9, d(core.b)),
         "ns/cycle"},
        {"core.sim.ipc", ratio(d(s.committed), d(s.cycles)), "ratio"},
        {"core.sim.fu_stall_rate", ratio(d(s.fu_stall), d(s.cycles)),
         "ratio"},
        {"core.sim.recycled_frac", ratio(d(s.recycled), d(s.committed)),
         "ratio"},
        {"core.sim.egpw_useful_ratio",
         ratio(d(s.egpw_grants - s.egpw_wasted), d(s.egpw_grants)),
         "ratio"},
        {"core.sim.la_mispredict_rate", ratio(d(s.la_mispred), d(s.la_pred)),
         "ratio"},
        {"core.sim.l1_miss_rate", ratio(d(s.l1_misses), d(s.loads)),
         "ratio"},
        {"mem.access.calls", d(mem.a), "count"},
        {"mem.access.s", mem.self_s, "s"},
        {"mem.access.ns_per_call", ratio(mem.self_s * 1e9, d(mem.a)),
         "ns/call"},
        {"mem.l1.hit_ratio", ratio(d(mem.b), d(mem.a)), "ratio"},
        {"mem.l2.hit_ratio", ratio(d(mem.c), d(mem.a - mem.b)), "ratio"},
        {"critpath.traced_run.s", traced.self_s, "s"},
        {"critpath.tracer.overhead", in.tracer_overhead, "ratio"},
        {"critpath.graph.nodes", d(fin.a), "count"},
        {"critpath.graph.edges", d(fin.b), "count"},
        {"critpath.finalize.s", fin.self_s, "s"},
        {"critpath.plan.s", plan.self_s, "s"},
        {"critpath.plan.ns_per_edge", ratio(plan.self_s * 1e9, d(plan.a)),
         "ns/edge"},
        {"critpath.retime_base.s", base.self_s, "s"},
        {"critpath.retime_all.s", all.self_s, "s"},
        {"critpath.retime_all.ns_per_edge_model",
         ratio(all.self_s * 1e9, d(all.a)), "ns/edge-model"},
        {"sim.key.calls", d(key.calls), "count"},
        {"sim.key.ns_per_call", ratio(key.self_s * 1e9, d(key.calls)),
         "ns/call"},
        {"sim.cache.load.calls", d(load.calls), "count"},
        {"sim.cache.load.hits", d(load.b), "count"},
        {"sim.cache.load.bytes", d(load.a), "bytes"},
        {"sim.cache.load.ns_per_call", ratio(load.self_s * 1e9, d(load.calls)),
         "ns/call"},
        {"sim.cache.store.calls", d(store.calls), "count"},
        {"sim.cache.store.bytes", d(store.a), "bytes"},
        {"sim.cache.store.ns_per_call",
         ratio(store.self_s * 1e9, d(store.calls)), "ns/call"},
        {"sim.pool.threads", d(in.threads), "count"},
        {"sim.pool.util",
         ratio(point.total_s, d(in.threads) * in.point_wall_s), "ratio"},
        {"proc.run.calls", d(proc.calls), "count"},
        {"proc.run.ops", d(proc.a), "count"},
        {"proc.run.s", proc.self_s, "s"},
        {"proc.run.ns_per_op", ratio(proc.self_s * 1e9, d(proc.a)), "ns/op"},
        {"proc.llc.hit_ratio", ratio(d(in.proc.hits), d(in.proc.accesses)),
         "ratio"},
        {"proc.llc.mshr_merges", d(in.proc.merges), "count"},
        {"proc.dram.bank_wait_cycles", d(in.proc.bank_wait), "count"},
        {"proc.llc.back_invalidations", d(in.proc.back_inv), "count"},
        {"trace.overhead", in.trace_overhead, "ratio"},
        {"trace.span_overhead", in.span_overhead, "ratio"},
        {"speedup_err_pp", in.speedup_err_pp, "pp"},
        {"whatif_err_pct", in.whatif_err_pct, "%"},
        {"whatif_optimistic", d(in.whatif_optimistic), "count"},
        {"fail_frac", ratio(d(ctx.fails.count()), d(ctx.attempted)),
         "ratio"},
    };
    return m;
}

Outcome
finish(Context &ctx, std::vector<Metric> metrics)
{
    Outcome out;
    out.attempted = ctx.attempted;
    out.failed = ctx.fails.count();
    out.metrics = std::move(metrics);
    return out;
}

/** Run one traced iteration's variants in an order that rotates with
 *  @p iteration, so warm-up and drift fall on every variant alike. */
void
rotated(size_t iteration, const std::vector<std::function<void()>> &steps)
{
    for (size_t i = 0; i < steps.size(); ++i)
        steps[(i + iteration) % steps.size()]();
}

/** Function running one round of fixed work over items in `order`;
 *  `traced` says whether spans are being recorded. Returns the wall. */
using RoundFn = std::function<double(size_t round,
                                     const std::vector<size_t> &order,
                                     bool traced)>;

/**
 * @p rounds rounds over @p n items, each run once untraced and once
 * traced in rotating order. Sets the traced point wall time and the
 * tracing overhead in @p in (the untraced path is the end-to-end code
 * itself, so both overheads are the same ratio).
 */
void
alternateRounds(SpanRecorder &rec, Rng &rng, size_t rounds, size_t n,
                const RoundFn &round_wall, LayerInputs &in)
{
    std::vector<double> traced, plain;
    for (size_t round = 0; round < rounds; ++round) {
        const std::vector<size_t> order = permutation(n, rng);
        rotated(round, {[&] {
                            rec.pause();
                            plain.push_back(round_wall(round, order, false));
                            rec.resume();
                        },
                        [&] {
                            traced.push_back(round_wall(round, order, true));
                            in.point_wall_s += traced.back();
                        }});
    }
    in.trace_overhead = ratio(median(traced), median(plain));
    in.span_overhead = in.trace_overhead;
}

/** End-to-end metrics shared by every workload. */
std::vector<Metric>
endToEnd(double setup_s, double points_per_cpu_s, double sim_mips_per_cpu)
{
    return {{"setup_s", setup_s, "s"},
            {"points_per_cpu_s", points_per_cpu_s, "1/s"},
            {"sim_mips_per_cpu", sim_mips_per_cpu, "Mops/s"},
            {"peak_rss_mb", peakRssMb(), "MB"}};
}

/** Wall seconds of one rerun round between two host-speed samples. */
constexpr double kRoundSeconds = 2.0;

/** What one timed item was (its kind: a kernel or a mix) and the
 *  work units it did. */
struct ItemDone
{
    size_t kind = 0;
    u64 work = 0;
};

/** Items and work units per reference-host CPU second. */
struct Throughput
{
    double items_per_s = 0.0;
    double work_per_s = 0.0;
    double speed = 0.0; ///< the host's median speed
};

/**
 * The timed phase of a closed-loop workload: rounds of @p per_round
 * items until --seconds of rounds have run, each followed by a
 * host-speed sample. @p fn runs item @p i (numbered across rounds).
 * Each item's thread CPU time is kept by kind; the rates are those of
 * one item of each of the @p kinds, each at its median CPU time, in
 * reference-host seconds. Counts the items as attempted.
 */
Throughput
timedRounds(Context &ctx, HostSpeed &host, u64 per_round, size_t kinds,
            const std::function<ItemDone(u64)> &fn)
{
    std::mutex mu;
    std::vector<std::vector<double>> cpu(kinds);
    std::vector<u64> work(kinds, 0);
    u64 first = 0;
    double timed = 0.0;
    while (timed < ctx.opts.seconds) {
        const LoopResult r =
            closedLoop(ctx.pool, per_round, [&](u64 i) {
                const double t0 = threadCpuSeconds();
                const ItemDone done = fn(first + i);
                const double cpu_s = threadCpuSeconds() - t0;
                std::lock_guard<std::mutex> lock(mu);
                cpu[done.kind].push_back(cpu_s);
                work[done.kind] = std::max(work[done.kind], done.work);
            });
        first += r.items;
        timed += r.wall_s;
        host.sample();
    }
    ctx.attempted += first;
    double cycle_cpu_s = 0.0;
    u64 cycle_work = 0;
    for (size_t k = 0; k < kinds; ++k) {
        cycle_cpu_s += median(cpu[k]);
        cycle_work += work[k];
    }
    const double speed = host.median();
    const double ref_s = cycle_cpu_s * speed;
    return {ratio(static_cast<double>(kinds), ref_s),
            ratio(static_cast<double>(cycle_work), ref_s), speed};
}

/** Write the traced run's spans next to the work directory. */
void
writeSpans(const Options &opts, const SpanRecorder &rec)
{
    const std::string path =
        opts.work_dir + "/spans-" + opts.workload + ".jsonl";
    if (!rec.write(path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

// ---------------------------------------------------------------------
// sweep: a cold design-space matrix through SimDriver::runAll
// ---------------------------------------------------------------------

Outcome
sweepTraced(Context &ctx, const std::vector<MatrixPoint> &matrix, Rng &rng)
{
    constexpr int kPasses = 3;
    SpanRecorder rec;
    LayerInputs in;
    in.threads = ctx.pool.threads();
    const std::vector<std::string> kernels = allKernels();
    const TraceSet traces = buildTraces(ctx, kernels);
    memProbe(ctx, kernels, traces);
    std::vector<CoreStats> stats(matrix.size());
    // Each pass runs the matrix three ways into an empty cache: the
    // end-to-end SimDriver path, the traced path with recording
    // paused, and the traced path.
    std::vector<double> traced_walls, plain_walls, bare_walls;
    const std::string dir = workDir(ctx.opts, "sweep-cache");
    for (int pass = 0; pass < kPasses; ++pass) {
        const std::vector<size_t> order = permutation(matrix.size(), rng);
        rec.pause();
        rotated(static_cast<size_t>(pass), {
            [&] {
                freshDir(dir);
                useCacheDir(dir);
                SimDriver driver;
                driver.prefetchTraces(kernels);
                const std::vector<SimDriver::Point> points =
                    orderedPoints(matrix, order);
                plain_walls.push_back(driverPass(ctx, driver, matrix, points,
                                                 order, Stopwatch(), stats)
                                          .wall_s);
            },
            [&] {
                freshDir(dir);
                bare_walls.push_back(tracedMatrixPass(ctx, matrix, order,
                                                      traces, dir, 0, stats));
            },
            [&] {
                freshDir(dir);
                rec.resume();
                traced_walls.push_back(tracedMatrixPass(
                    ctx, matrix, order, traces, dir,
                    static_cast<u64>(pass), stats));
                rec.pause();
                in.point_wall_s += traced_walls.back();
            }});
        rec.resume();
    }
    removeDir(dir);
    for (const CoreStats &s : stats)
        in.sim.add(s);
    in.trace_overhead = ratio(median(traced_walls), median(plain_walls));
    in.span_overhead = ratio(median(traced_walls), median(bare_walls));
    in.speedup_err_pp = speedupErrPp(matrix, stats);
    writeSpans(ctx.opts, rec);
    return finish(ctx, layerMetrics(rec.totals(), in, ctx));
}

} // namespace

Outcome
runSweep(const Options &opts)
{
    Context ctx(opts);
    const std::vector<MatrixPoint> matrix = sweepMatrix();
    Rng rng(opts.seed);
    if (opts.trace)
        return sweepTraced(ctx, matrix, rng);

    const std::vector<std::string> kernels = allKernels();
    HostSpeed host(ctx.pool);
    std::vector<double> setups, pps, mips;
    std::vector<CoreStats> stats(matrix.size());
    const std::string dir = workDir(opts, "sweep-cache");
    double timed = 0.0;
    for (int pass = 0; pass < 3 || timed < opts.seconds; ++pass) {
        const std::vector<size_t> order = permutation(matrix.size(), rng);
        freshDir(dir);
        useCacheDir(dir);
        const Stopwatch setup;
        auto driver = std::make_unique<SimDriver>();
        driver->prefetchTraces(kernels);
        const double setup_cpu_s = setup.elapsed().cpu_s;
        const std::vector<SimDriver::Point> points = orderedPoints(matrix, order);
        const Elapsed took =
            driverPass(ctx, *driver, matrix, points, order, Stopwatch(), stats);
        timed += took.wall_s;
        u64 committed = 0;
        for (const CoreStats &s : stats)
            committed += s.committed;
        host.sample();
        setups.push_back(setup_cpu_s);
        pps.push_back(ratio(static_cast<double>(matrix.size()), took.cpu_s));
        mips.push_back(ratio(static_cast<double>(committed), took.cpu_s) / 1e6);
        driver.reset();
    }
    removeDir(dir);
    const double speed = host.median();
    return finish(ctx, endToEnd(median(setups) * speed, median(pps) / speed,
                                median(mips) / speed));
}

// ---------------------------------------------------------------------
// rerun: the sweep matrix replayed from the disk cache
// ---------------------------------------------------------------------

Outcome
runRerun(const Options &opts)
{
    Context ctx(opts);
    const std::vector<MatrixPoint> matrix = sweepMatrix();
    const std::vector<std::string> kernels = allKernels();
    Rng rng(opts.seed);
    std::vector<CoreStats> stats(matrix.size());
    const std::string dir = workDir(opts, "rerun-cache");

    if (opts.trace) {
        // Fixed work: one traced fill, then kPasses traced replays,
        // each next to an untraced SimDriver replay for the overhead.
        constexpr int kPasses = 200;
        SpanRecorder rec;
        LayerInputs in;
        in.threads = ctx.pool.threads();
        const TraceSet traces = buildTraces(ctx, kernels);
        memProbe(ctx, kernels, traces);
        freshDir(dir);
        useCacheDir(dir);
        in.point_wall_s = tracedMatrixPass(
            ctx, matrix, permutation(matrix.size(), rng), traces, dir, 0, stats);
        std::vector<double> traced_walls, plain_walls, bare_walls;
        for (int pass = 1; pass <= kPasses; ++pass) {
            const std::vector<size_t> order = permutation(matrix.size(), rng);
            rec.pause();
            rotated(static_cast<size_t>(pass), {
                [&] {
                    const std::vector<SimDriver::Point> points =
                        orderedPoints(matrix, order);
                    const Stopwatch start;
                    SimDriver driver;
                    plain_walls.push_back(driverPass(ctx, driver, matrix,
                                                     points, order, start, stats)
                                              .wall_s);
                },
                [&] {
                    bare_walls.push_back(tracedMatrixPass(
                        ctx, matrix, order, traces, dir, 0, stats));
                },
                [&] {
                    rec.resume();
                    traced_walls.push_back(tracedMatrixPass(
                        ctx, matrix, order, traces, dir,
                        static_cast<u64>(pass), stats));
                    rec.pause();
                    in.point_wall_s += traced_walls.back();
                }});
            rec.resume();
        }
        for (const CoreStats &s : stats)
            in.sim.add(s);
        in.trace_overhead = ratio(median(traced_walls), median(plain_walls));
        in.span_overhead = ratio(median(traced_walls), median(bare_walls));
        in.speedup_err_pp = speedupErrPp(matrix, stats);
        writeSpans(opts, rec);
        removeDir(dir);
        return finish(ctx, layerMetrics(rec.totals(), in, ctx));
    }

    // Set-up, five times: build the traces and fill an empty cache with
    // the whole matrix (what a cold sweep leaves behind).
    HostSpeed host(ctx.pool);
    std::vector<double> setups;
    for (int k = 0; k < 5; ++k) {
        freshDir(dir);
        useCacheDir(dir);
        const std::vector<size_t> order = permutation(matrix.size(), rng);
        const std::vector<SimDriver::Point> points = orderedPoints(matrix, order);
        const Stopwatch start;
        SimDriver driver;
        driver.prefetchTraces(kernels);
        const double cpu_s =
            driverPass(ctx, driver, matrix, points, order, start, stats).cpu_s;
        setups.push_back(cpu_s);
        host.sample();
    }
    u64 committed = 0;
    for (const CoreStats &s : stats)
        committed += s.committed;

    // Timed: fresh SimDrivers replay the matrix from the cache, in
    // rounds of passes with a host-speed sample after each round.
    std::vector<double> pps, mips;
    double timed = 0.0;
    while (timed < opts.seconds) {
        Elapsed round;
        u64 passes = 0;
        while (round.wall_s < kRoundSeconds) {
            const std::vector<size_t> order = permutation(matrix.size(), rng);
            const std::vector<SimDriver::Point> points =
                orderedPoints(matrix, order);
            const Stopwatch start;
            SimDriver driver;
            const Elapsed took =
                driverPass(ctx, driver, matrix, points, order, start, stats);
            round.wall_s += took.wall_s;
            round.cpu_s += took.cpu_s;
            ++passes;
        }
        timed += round.wall_s;
        host.sample();
        const double n = static_cast<double>(passes);
        pps.push_back(ratio(n * static_cast<double>(matrix.size()), round.cpu_s));
        mips.push_back(ratio(n * static_cast<double>(committed), round.cpu_s) /
                       1e6);
    }
    removeDir(dir);
    const double speed = host.median();
    return finish(ctx, endToEnd(median(setups) * speed, median(pps) / speed,
                                median(mips) / speed));
}

// ---------------------------------------------------------------------
// whatif: traced reference run, dependence graph, plan and re-timing
// ---------------------------------------------------------------------

namespace {

/** One kernel's what-if analysis: the traced reference run, its
 *  dependence graph, the retimer plan, the base replay and the batched
 *  re-time of every model, each call under its own span. */
struct WhatifRun
{
    CoreStats stats;
    RetimeResult base;
    std::vector<RetimeResult> results;
};

WhatifRun
analyseKernel(const Trace &trace, const std::vector<WhatIfModel> &batch,
              u64 pid)
{
    const CoreConfig cfg = whatifTracedConfig();
    WhatifRun out;
    ScopedSpan point("point", pid);
    DepGraphBuilder builder(trace, cfg);
    {
        ScopedSpan span("critpath.traced_run", pid);
        PipeTracer tracer(1u << 12);
        tracer.setSink(&builder);
        OooCore core(cfg);
        core.setTracer(&tracer);
        out.stats = core.run(trace);
        span.setCounts(out.stats.committed, out.stats.cycles);
    }
    std::optional<DepGraph> graph;
    {
        ScopedSpan span("critpath.finalize", pid);
        graph.emplace(builder.finalize());
        span.setCounts(u64{graph->num_ops} * kNumMilestones,
                       graph->numEdges());
    }
    std::optional<Retimer> retimer;
    {
        ScopedSpan span("critpath.plan", pid);
        retimer.emplace(*graph);
        span.setCounts(graph->numEdges());
    }
    {
        ScopedSpan span("critpath.retime_base", pid);
        out.base = retimer->retime(WhatIfModel{});
        span.setCounts(graph->numEdges());
    }
    {
        ScopedSpan span("critpath.retime_all", pid);
        out.results = retimer->retimeAll(batch);
        span.setCounts(graph->numEdges() * batch.size(), batch.size());
    }
    return out;
}

/** analyseKernel() plus its checks: the reference run against the
 *  recorded one, the base replay against the simulator, and the fixed
 *  models against their recorded analytic cycles. Returns every
 *  model's analytic cycles, or nothing when the item failed. */
std::vector<Cycle>
whatifItem(Context &ctx, const std::string &kernel, const Trace &trace,
           const std::vector<WhatIfModel> &batch, u64 pid)
{
    WhatifRun run;
    try {
        run = analyseKernel(trace, batch, pid);
    } catch (const std::exception &e) {
        ctx.fails.fail("whatif/" + kernel + ": " + e.what());
        return {};
    }
    const std::string prefix = "whatif/" + kernel + "/";
    const std::vector<u64> *want = ctx.expected.find(prefix + "base");
    std::string why;
    if (want == nullptr || *want != archResult(run.stats))
        why = "base: reference run differs from the recorded one";
    else if (run.base.cycles != run.stats.cycles ||
             run.base.ops != run.stats.committed)
        why = "base: replay is not exact";
    std::vector<Cycle> cycles;
    for (size_t m = 0; m < run.results.size(); ++m) {
        cycles.push_back(run.results[m].cycles);
        if (m >= kFixedModels || !why.empty())
            continue;
        want = ctx.expected.find(prefix + batch[m].name);
        if (want == nullptr || *want != std::vector<u64>{cycles.back()})
            why = batch[m].name + ": analytic cycles differ";
    }
    if (!why.empty()) {
        ctx.fails.fail(prefix + why);
        return {};
    }
    return cycles;
}

/** Kernel (or mix) index of closed-loop item @p item: each round
 *  visits every kernel, in an order the seed shuffles per round,
 *  @p repeat items in a row. With one repeat per worker, the workers
 *  mostly run copies of one kernel at a time. Neither the process's
 *  memory peak (four copies of the largest graph) nor an item's time
 *  (its neighbours' demands on the shared caches) then hinges on which
 *  kernels the shuffle happens to overlap. */
struct RoundOrder
{
    RoundOrder(size_t n, Rng &rng, size_t rounds, size_t repeat = 1)
    {
        for (size_t r = 0; r < rounds; ++r)
            for (size_t i : permutation(n, rng))
                order.insert(order.end(), repeat, i);
    }
    size_t at(u64 item) const { return order[item % order.size()]; }
    std::vector<size_t> order;
};

/** Set-up: the kernels' traces through a fresh SimDriver (the same
 *  public path the harnesses use). Returns the median of @p reps
 *  set-ups and keeps the last driver, which owns the traces. */
double
setupTraces(const std::vector<std::string> &kernels, int reps,
            std::unique_ptr<SimDriver> &driver)
{
    unsetenv("REDSOC_CACHE_DIR");
    std::vector<double> setups;
    for (int k = 0; k < reps; ++k) {
        driver.reset();
        const Stopwatch start;
        driver = std::make_unique<SimDriver>();
        driver->prefetchTraces(kernels);
        setups.push_back(start.elapsed().cpu_s);
    }
    return median(setups);
}

} // namespace

Outcome
runWhatif(const Options &opts)
{
    Context ctx(opts);
    Rng rng(opts.seed);
    const std::vector<std::string> &kernels = kWhatifKernels;
    std::vector<std::vector<WhatifPoint>> models;
    for (size_t k = 0; k < kernels.size(); ++k)
        models.push_back(whatifModels(rng));
    std::vector<std::vector<WhatIfModel>> batches;
    for (const std::vector<WhatifPoint> &m : models)
        batches.push_back(modelBatch(m));

    if (!opts.trace) {
        HostSpeed host(ctx.pool);
        std::unique_ptr<SimDriver> driver;
        const double setup_cpu_s = setupTraces(kernels, 21, driver);
        const RoundOrder order(kernels.size(), rng, 4096, ctx.pool.threads());
        // One round: every kernel once per worker (~2 s on 4 workers).
        const u64 per_round = kernels.size() * ctx.pool.threads();
        const Throughput t = timedRounds(ctx, host, per_round, kernels.size(),
                                         [&](u64 item) -> ItemDone {
            const size_t k = order.at(item);
            const Trace &tr = driver->trace(kernels[k]);
            whatifItem(ctx, kernels[k], tr, batches[k], item + 1);
            return {k, tr.size() * batches[k].size()};
        });
        return finish(ctx, endToEnd(setup_cpu_s * t.speed,
                                    t.items_per_s * static_cast<double>(
                                                        kFixedModels +
                                                        kHeldOutModels),
                                    t.work_per_s / 1e6));
    }

    // Traced: kRounds rounds over the kernels, each next to an untraced
    // round for the overhead, then an untraced reference core run per
    // kernel (tracer overhead) and the held-out re-simulation.
    constexpr size_t kRounds = 4;
    SpanRecorder rec;
    LayerInputs in;
    in.threads = ctx.pool.threads();
    const TraceSet traces = buildTraces(ctx, kernels);
    memProbe(ctx, kernels, traces);
    std::vector<std::vector<Cycle>> analytic(kernels.size());
    alternateRounds(
        rec, rng, kRounds, kernels.size(),
        [&](size_t round, const std::vector<size_t> &order, bool) {
            return closedLoop(ctx.pool, order.size(),
                              [&](u64 i) {
                                  const size_t k = order[i];
                                  std::vector<Cycle> c = whatifItem(
                                      ctx, kernels[k], *traces.at(kernels[k]),
                                      batches[k],
                                      round * kernels.size() + i + 1);
                                  if (!c.empty())
                                      analytic[k] = std::move(c);
                              })
                .wall_s;
        },
        in);
    ctx.attempted += 2 * kRounds * kernels.size();

    // Tracer overhead: the same core run without the tracer and sink.
    std::mutex mu;
    closedLoop(ctx.pool, kernels.size(), [&](u64 k) {
        const Trace &tr = *traces.at(kernels[k]);
        ScopedSpan span("core.run", 0);
        const CoreStats s = OooCore(whatifTracedConfig()).run(tr);
        span.setCounts(s.committed, s.cycles);
        std::lock_guard<std::mutex> lock(mu);
        in.sim.add(s);
    });
    const std::map<std::string, SpanTotals> totals = rec.totals();
    in.tracer_overhead = ratio(totals.count("critpath.traced_run")
                                   ? totals.at("critpath.traced_run").self_s
                                   : 0.0,
                               kRounds * (totals.count("core.run")
                                              ? totals.at("core.run").self_s
                                              : 0.0));

    // Held-out accuracy: re-simulate the seed's held-out models, untraced.
    // Errors land in fixed slots so their sum is order-independent.
    rec.pause();
    const size_t n_held = kernels.size() * kHeldOutModels;
    std::vector<double> err(n_held, -1.0);
    std::vector<char> optimistic(n_held, 0);
    closedLoop(ctx.pool, n_held, [&](u64 i) {
        const size_t k = i / kHeldOutModels;
        const size_t m = kFixedModels + i % kHeldOutModels;
        if (analytic[k].empty())
            return;
        try {
            const CoreStats s =
                OooCore(models[k][m].sim_cfg).run(*traces.at(kernels[k]));
            const double a = static_cast<double>(analytic[k][m]);
            const double c = static_cast<double>(s.cycles);
            err[i] = std::fabs(a - c) / c * 100.0;
            optimistic[i] = a < c;
        } catch (const std::exception &e) {
            ctx.fails.fail("whatif/" + kernels[k] + "/" +
                           models[k][m].model.name + ": " + e.what());
        }
    });
    rec.resume();
    ctx.attempted += n_held;
    double err_sum = 0.0;
    u64 err_n = 0;
    for (size_t i = 0; i < n_held; ++i) {
        if (err[i] < 0.0)
            continue;
        err_sum += err[i];
        ++err_n;
        in.whatif_optimistic += optimistic[i] != 0;
    }
    in.whatif_err_pct = ratio(err_sum, static_cast<double>(err_n));
    writeSpans(opts, rec);
    return finish(ctx, layerMetrics(rec.totals(), in, ctx));
}

// ---------------------------------------------------------------------
// mix4: four-core mixes on a shared LLC
// ---------------------------------------------------------------------

namespace {

/** Each mix's per-core traces, looked up by kernel name. */
std::vector<std::vector<const Trace *>>
mixTraces(const std::function<const Trace *(const std::string &)> &lookup)
{
    std::vector<std::vector<const Trace *>> out;
    for (const Mix &mix : kMixes) {
        std::vector<const Trace *> t;
        for (const std::string &k : mix.kernels)
            t.push_back(lookup(k));
        out.push_back(std::move(t));
    }
    return out;
}

u64
committedOps(const ProcStats &ps)
{
    u64 ops = 0;
    for (const CoreStats &c : ps.cores)
        ops += c.committed;
    return ops;
}

/** Run one mix and check every core against its recorded result.
 *  Returns the stats, or nothing when the point failed. */
std::optional<ProcStats>
mixItem(Context &ctx, size_t mix, const std::vector<const Trace *> &traces,
        u64 pid)
{
    const std::string &name = kMixes[mix].name;
    ProcStats ps;
    try {
        ScopedSpan point("point", pid);
        ScopedSpan span("proc.run", pid);
        ps = Processor(mixConfig(kMixes[mix])).run(traces);
        span.setCounts(committedOps(ps), ps.cycles);
    } catch (const std::exception &e) {
        ctx.fails.fail("mix/" + name + ": " + e.what());
        return std::nullopt;
    }
    bool ok = ps.cores.size() == traces.size();
    for (size_t c = 0; ok && c < ps.cores.size(); ++c) {
        const std::vector<u64> *want =
            ctx.expected.find("mix/" + name + "/" + std::to_string(c));
        ok = want != nullptr && *want == archResult(ps.cores[c]);
    }
    if (!ok) {
        ctx.fails.fail("mix/" + name + ": result differs");
        return std::nullopt;
    }
    return ps;
}

} // namespace

Outcome
runMix4(const Options &opts)
{
    Context ctx(opts);
    Rng rng(opts.seed);
    const std::vector<std::string> kernels = mixKernels();
    std::mutex mu;

    if (!opts.trace) {
        HostSpeed host(ctx.pool);
        std::unique_ptr<SimDriver> driver;
        const double setup_cpu_s = setupTraces(kernels, 21, driver);
        const std::vector<std::vector<const Trace *>> mix_traces =
            mixTraces([&](const std::string &k) { return &driver->trace(k); });
        const RoundOrder order(kMixes.size(), rng, 4096, ctx.pool.threads());
        // One round: every mix twice per worker (~2 s on 4 workers).
        const Throughput t = timedRounds(ctx, host,
                                         kMixes.size() * ctx.pool.threads() * 2,
                                         kMixes.size(),
                                         [&](u64 item) -> ItemDone {
            const size_t m = order.at(item);
            const std::optional<ProcStats> ps =
                mixItem(ctx, m, mix_traces[m], item + 1);
            return {m, ps ? committedOps(*ps) : 0};
        });
        return finish(ctx,
                      endToEnd(setup_cpu_s * t.speed, t.items_per_s,
                               t.work_per_s / 1e6));
    }

    constexpr size_t kRounds = 4;
    SpanRecorder rec;
    LayerInputs in;
    in.threads = ctx.pool.threads();
    const TraceSet traces = buildTraces(ctx, kernels);
    memProbe(ctx, kernels, traces);
    const std::vector<std::vector<const Trace *>> mix_traces =
        mixTraces([&](const std::string &k) { return traces.at(k).get(); });
    // Only traced rounds feed the statistics.
    alternateRounds(
        rec, rng, kRounds, kMixes.size(),
        [&](size_t round, const std::vector<size_t> &order, bool traced) {
            return closedLoop(
                       ctx.pool, order.size(),
                       [&](u64 i) {
                           const std::optional<ProcStats> ps =
                               mixItem(ctx, order[i], mix_traces[order[i]],
                                       round * kMixes.size() + i + 1);
                           if (ps && traced) {
                               std::lock_guard<std::mutex> lock(mu);
                               in.proc.add(*ps);
                               for (const CoreStats &c : ps->cores)
                                   in.sim.add(c);
                           }
                       })
                .wall_s;
        },
        in);
    ctx.attempted += 2 * kRounds * kMixes.size();
    writeSpans(opts, rec);
    return finish(ctx, layerMetrics(rec.totals(), in, ctx));
}

// ---------------------------------------------------------------------
// Recording the expected outputs
// ---------------------------------------------------------------------

int
recordExpected(const Options &opts)
{
    unsetenv("REDSOC_CACHE_DIR");
    Expected out;
    const std::vector<MatrixPoint> matrix = sweepMatrix();
    SimDriver driver;
    std::vector<SimDriver::Point> points;
    for (const MatrixPoint &m : matrix)
        points.push_back(m.point);
    const std::vector<CoreStats> stats = driver.runAll(points);
    for (size_t i = 0; i < matrix.size(); ++i)
        out.put(matrix[i].key, archResult(stats[i]));

    for (const Mix &mix : kMixes) {
        std::vector<const Trace *> traces;
        for (const std::string &k : mix.kernels)
            traces.push_back(&driver.trace(k));
        const ProcStats ps = Processor(mixConfig(mix)).run(traces);
        for (size_t c = 0; c < ps.cores.size(); ++c)
            out.put("mix/" + mix.name + "/" + std::to_string(c),
                    archResult(ps.cores[c]));
    }

    Rng rng(0); // the fixed models do not depend on the seed
    const std::vector<WhatIfModel> batch = modelBatch(whatifModels(rng));
    for (const std::string &kernel : kWhatifKernels) {
        const WhatifRun run = analyseKernel(driver.trace(kernel), batch, 0);
        if (run.base.cycles != run.stats.cycles ||
            run.base.ops != run.stats.committed) {
            std::fprintf(stderr, "perfbench: base replay of %s is not exact\n",
                         kernel.c_str());
            return 1;
        }
        out.put("whatif/" + kernel + "/base", archResult(run.stats));
        for (size_t m = 0; m < kFixedModels; ++m)
            out.put("whatif/" + kernel + "/" + batch[m].name,
                    {run.results[m].cycles});
    }
    if (!out.save(opts.record_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opts.record_path.c_str());
        return 1;
    }
    std::fprintf(stderr, "perfbench: recorded %zu entries in %s\n", out.size(),
                 opts.record_path.c_str());
    return 0;
}

} // namespace perfbench
