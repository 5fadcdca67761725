#include "sim/driver.h"

#include <ios>
#include <sstream>

#include "common/logging.h"
#include "common/shutdown.h"
#include "server/offload.h"
#include "sim/thread_pool.h"
#include "trace/exporters.h"

namespace redsoc {

SimDriver::SimDriver(SeqNum max_ops)
    : max_ops_(max_ops), disk_cache_(RunCache::fromEnv())
{
}

std::shared_future<Trace>
SimDriver::traceFuture(const std::string &workload)
{
    std::promise<Trace> prom;
    std::shared_future<Trace> fut = prom.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = traces_.try_emplace(workload, fut);
        if (!inserted)
            return it->second; // someone else is (or was) building it
    }
    // We claimed the slot: build outside the lock; waiters block on
    // the shared future (the per-workload latch).
    try {
        prom.set_value(traceWorkload(workload, max_ops_));
    } catch (...) {
        prom.set_exception(std::current_exception());
    }
    return fut;
}

const Trace &
SimDriver::trace(const std::string &workload)
{
    return traceFuture(workload).get();
}

std::string
SimDriver::configKey(const CoreConfig &config)
{
    std::ostringstream os;
    os << config.name << '|' << schedModeName(config.mode) << '|'
       << rsDesignName(config.rs_design) << '|'
       << schedKernelName(config.sched_kernel) << '|'
       << config.ci_precision_bits << '|' << config.slack_threshold_ticks
       << '|' << config.egpw << config.skewed_select << '|'
       << config.dynamic_threshold << config.threshold_epoch << '|'
       << config.no_commit_horizon << '|'
       // Structural capacities (v5 key dimension): before these were
       // fingerprinted, two configs differing only in e.g. rs_entries
       // silently aliased to one cache entry — harmless for the named
       // presets (the name disambiguates) but wrong for the sweep
       // server, which dedups arbitrary client configs by this key.
       << config.frontend_width << ',' << config.commit_width << '|'
       << config.rob_entries << ',' << config.lsq_entries << ','
       << config.rs_entries << '|' << config.alu_units << ','
       << config.simd_units << ',' << config.fp_units << ','
       << config.mem_ports << '|' << config.redirect_penalty << '|'
       << config.branch_pred.table_bits << ','
       << config.branch_pred.ras_entries << '|'
       << config.width_pred.entries << ','
       << config.width_pred.confidence_bits << '|'
       << config.last_arrival.entries << '|'
       << config.memory.prefetcher.entries << ','
       << config.memory.prefetcher.degree << ','
       << config.memory.prefetcher.min_confidence << '|'
       << config.timing.clock_period_ps << '|'
       // Doubles in hexfloat (v6): the default 6 significant digits
       // aliased e.g. pvt_derate 1.0 and 1.0000001.
       << std::hexfloat << config.timing.pvt_derate << '|'
       << config.memory.offcore_latency_scale << std::defaultfloat
       << '|' << config.memory.prefetch << config.memory.prefetch_fill_l1
       << '|' << config.memory.l1.size_bytes << '/'
       << config.memory.l1.assoc << '/' << config.memory.l1.line_bytes
       << '|' << config.memory.l2.size_bytes << '/'
       << config.memory.l2.assoc << '/' << config.memory.l2.line_bytes
       << '|' << config.memory.l1_latency
       << ',' << config.memory.l2_latency << ','
       << config.memory.mem_latency;
    return os.str();
}

std::string
SimDriver::procConfigKey(const ProcConfig &config)
{
    std::ostringstream os;
    os << configKey(config.core) << "|cores=" << config.num_cores
       << "|llc=" << config.llc.size_bytes << '/' << config.llc.assoc
       << '/' << config.llc.line_bytes << "|dram=" << config.dram.banks
       << '/' << config.dram.bank_occupancy
       << "|shared=" << config.share_address_space;
    return os.str();
}

std::string
SimDriver::runKey(const std::string &workload,
                  const CoreConfig &config) const
{
    return workload + "@" + configKey(config) +
           "#ops=" + std::to_string(max_ops_);
}

std::string
SimDriver::procRunKey(const std::vector<std::string> &mix,
                      const ProcConfig &config) const
{
    std::string joined;
    for (const std::string &w : mix) {
        if (!joined.empty())
            joined += '+';
        joined += w;
    }
    return joined + "@" + procConfigKey(config) +
           "#ops=" + std::to_string(max_ops_);
}

std::shared_future<CoreStats>
SimDriver::runFuture(const std::string &workload,
                     const CoreConfig &config)
{
    const std::string key = runKey(workload, config);
    std::promise<CoreStats> prom;
    std::shared_future<CoreStats> fut = prom.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = results_.try_emplace(key, fut);
        if (!inserted)
            return it->second; // point already claimed: share it
    }
    try {
        if (disk_cache_) {
            if (auto hit = disk_cache_->load(key)) {
                prom.set_value(std::move(*hit));
                return fut;
            }
        }
        // REDSOC_SWEEP_SERVER: offload the point to a running
        // redsoc_sweepd instead of simulating here (transparent: any
        // failure falls back to the local path below, see offload.cc).
        if (auto remote = serverOffloadRun(workload, config, max_ops_)) {
            if (disk_cache_)
                disk_cache_->store(key, *remote);
            prom.set_value(std::move(*remote));
            return fut;
        }
        OooCore core(config);
        const TraceEnv &tenv = TraceEnv::get();
        CoreStats stats;
        if (tenv.active) {
            // REDSOC_TRACE_DIR: any harness drops one pipeline trace
            // per simulated (cache-miss) point, no code changes
            // needed. Tracing is behavior-neutral, so the stats stay
            // cacheable.
            PipeTracer tracer(tenv.capacity);
            core.setTracer(&tracer);
            stats = core.run(trace(workload));
            if (tracer.droppedEvents() != 0) {
                // Never truncate silently: tally the run and say so on
                // stderr (table/JSON output stays on stdout).
                const u64 runs =
                    TraceEnv::noteTruncatedRun(tracer.droppedEvents());
                warn("trace export truncated for ", key, ": ",
                     tracer.droppedEvents(),
                     " events dropped from the head of the run (",
                     runs, " truncated run", runs == 1 ? "" : "s",
                     " so far; raise REDSOC_TRACE_CAP)");
            }
            writeTraceFile(tenv.dir + "/" + sanitizeTraceFileName(key) +
                               traceFormatExtension(tenv.format),
                           tenv.format, tracer, trace(workload));
        } else {
            stats = core.run(trace(workload));
        }
        if (disk_cache_)
            disk_cache_->store(key, stats);
        prom.set_value(std::move(stats));
    } catch (...) {
        prom.set_exception(std::current_exception());
    }
    return fut;
}

const CoreStats &
SimDriver::run(const std::string &workload, const CoreConfig &config)
{
    return runFuture(workload, config).get();
}

std::shared_future<ProcStats>
SimDriver::procFuture(const std::vector<std::string> &mix,
                      const ProcConfig &config)
{
    const std::string key = procRunKey(mix, config);
    std::promise<ProcStats> prom;
    std::shared_future<ProcStats> fut = prom.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = proc_results_.try_emplace(key, fut);
        if (!inserted)
            return it->second; // point already claimed: share it
    }
    try {
        panic_if(mix.empty(), "empty workload mix");
        if (disk_cache_) {
            if (auto hit = disk_cache_->loadProc(key)) {
                prom.set_value(std::move(*hit));
                return fut;
            }
        }
        if (auto remote = serverOffloadRunProc(mix, config, max_ops_)) {
            if (disk_cache_)
                disk_cache_->storeProc(key, *remote);
            prom.set_value(std::move(*remote));
            return fut;
        }
        // Build the mix's traces first (shared with single-core runs
        // of the same workloads), then run the sequential lockstep.
        std::vector<const Trace *> traces;
        traces.reserve(config.num_cores);
        for (unsigned i = 0; i < config.num_cores; ++i)
            traces.push_back(&trace(mix[i % mix.size()]));
        Processor proc(config);
        ProcStats stats = proc.run(traces);
        if (disk_cache_)
            disk_cache_->storeProc(key, stats);
        prom.set_value(std::move(stats));
    } catch (...) {
        prom.set_exception(std::current_exception());
    }
    return fut;
}

const ProcStats &
SimDriver::runProc(const std::vector<std::string> &mix,
                   const ProcConfig &config)
{
    return procFuture(mix, config).get();
}

CoreStats
SimDriver::runTraced(const std::string &workload,
                     const CoreConfig &config, PipeTracer &tracer)
{
    OooCore core(config);
    core.setTracer(&tracer);
    return core.run(trace(workload));
}

void
SimDriver::prefetch(const std::vector<Point> &points)
{
    if (points.empty())
        return;
    ThreadPool &pool = globalSimPool();
    for (const Point &p : points) {
        if (shutdownRequested())
            break; // stop feeding the queue once a signal arrived
        pool.submit([this, p] {
            // Queued before the signal, started after: skip instead of
            // simulating, so a shutdown drains the backlog in
            // milliseconds. The point stays uncomputed (and uncached).
            if (shutdownRequested())
                return;
            (void)run(p.workload, p.config);
        });
    }
    pool.wait();
}

std::vector<CoreStats>
SimDriver::runAll(const std::vector<Point> &points)
{
    prefetch(points);
    // Don't silently re-simulate skipped points synchronously — an
    // interrupted batch is an interrupted batch.
    if (shutdownRequested())
        throw ShutdownInterrupt();
    std::vector<CoreStats> out;
    out.reserve(points.size());
    for (const Point &p : points)
        out.push_back(run(p.workload, p.config));
    return out;
}

void
SimDriver::prefetchTraces(const std::vector<std::string> &workloads)
{
    if (workloads.empty())
        return;
    ThreadPool &pool = globalSimPool();
    for (const std::string &w : workloads) {
        if (shutdownRequested())
            break;
        pool.submit([this, w] {
            if (shutdownRequested())
                return;
            (void)trace(w);
        });
    }
    pool.wait();
}

double
SimDriver::speedup(const std::string &workload, const CoreConfig &base,
                   const CoreConfig &variant)
{
    const CoreStats &b = run(workload, base);
    const CoreStats &v = run(workload, variant);
    panic_if(v.cycles == 0, "zero-cycle run");
    return static_cast<double>(b.cycles) / static_cast<double>(v.cycles);
}

double
SimDriver::mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

CoreConfig
configFor(const std::string &core_name, SchedMode mode)
{
    CoreConfig config = coreByName(core_name);
    config.mode = mode;
    return config;
}

} // namespace redsoc
