/**
 * @file
 * Shared pieces of the repository benchmark: options, the metric and
 * outcome records every workload returns, the seeded RNG, the
 * recorded expected outputs, and the closed-loop worker helper.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/ooo_core.h"
#include "sim/thread_pool.h"

namespace perfbench {

using redsoc::u64;
using Clock = std::chrono::steady_clock;

struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Worker threads (0 = std::thread::hardware_concurrency()). */
    unsigned threads = 0;
    std::string expect_path = "perfbench/expected.tsv";
    /** Scratch directory for run caches and span files. */
    std::string work_dir = ".bench_build/work";
    /** Write the expected-output file here instead of benchmarking. */
    std::string record_path;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome
{
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<Metric> metrics;
};

/** splitmix64: small, seedable, identical on every platform. */
class Rng
{
  public:
    explicit Rng(u64 seed) : state_(seed) {}
    u64 next();
    /** Uniform in [0, n). */
    u64 below(u64 n) { return next() % n; }

  private:
    u64 state_;
};

/** A seeded permutation of 0..n-1 (Fisher-Yates). */
std::vector<size_t> permutation(size_t n, Rng &rng);

/**
 * Recorded outputs of the unchanged simulator: one line per point,
 * "key v1 v2 ...". A point whose output differs from its line, or
 * that has no line, is a failed point.
 */
class Expected
{
  public:
    static Expected load(const std::string &path);
    bool save(const std::string &path) const;

    void put(const std::string &key, std::vector<u64> values);
    /** The values recorded under @p key, or nullptr. */
    const std::vector<u64> *find(const std::string &key) const;

    size_t size() const { return values_.size(); }

  private:
    std::map<std::string, std::vector<u64>> values_;
};

/** The architectural result the benchmark records per core run. */
inline std::vector<u64>
archResult(const redsoc::CoreStats &s)
{
    return {s.cycles, s.committed, s.commit_checksum};
}

/**
 * Thread-safe failure tally. Every failed point counts once; the
 * first few messages go to stderr so a failing run says why.
 */
class FailureLog
{
  public:
    void fail(const std::string &what);
    u64 count() const;

  private:
    mutable std::mutex mu_;
    u64 failed_ = 0;
};

/** Result of a closed-loop batch on the worker pool. */
struct LoopResult
{
    u64 items = 0;
    double wall_s = 0.0; ///< start to the last worker's last completion
};

/**
 * Closed loop: every worker takes the next item index as soon as its
 * previous item finishes, until @p limit items have been taken.
 */
LoopResult closedLoop(redsoc::ThreadPool &pool, u64 limit,
                      const std::function<void(u64)> &fn);

double secondsSince(Clock::time_point t0);
/** CPU time (user + system) of the whole process, all threads. The
 *  kernel leaves out time in which the hypervisor ran another guest
 *  on the CPU (steal time), so on a shared host this clock moves with
 *  the work done, where the wall clock also moves with the neighbours. */
double cpuSeconds();
/** CPU time of the calling thread; see cpuSeconds(). */
double threadCpuSeconds();
double median(std::vector<double> values);

/**
 * The host's speed, sampled between the timed steps of a run. A sample
 * runs a fixed loop on every worker at once: a dependent walk over an
 * 8 MB table (cache and memory latency) and sorts of small random
 * arrays (branches). Its score is the geometric mean of the two loops'
 * rates over their rates on the reference host: about 1 there, lower
 * on a slower or busier host. The loops are the benchmark's own code,
 * so no change to the simulator moves the score.
 *
 * A shared host's speed drifts by tens of percent within minutes, and
 * CPU time does not remove that (the slowdown is in the work itself:
 * shared caches, memory and cores). Multiplying a run's CPU seconds by
 * the median score of the samples taken during it turns them into
 * reference-host CPU seconds.
 */
class HostSpeed
{
  public:
    /** Builds the table and takes the first sample. */
    explicit HostSpeed(redsoc::ThreadPool &pool);

    /** Takes a sample. */
    void sample() { scores_.push_back(measure()); }

    /** Median score of the samples so far; also written to stderr. */
    double median() const;

  private:
    double measure();

    redsoc::ThreadPool &pool_;
    std::vector<std::uint32_t> table_;
    std::vector<double> scores_;
};

/** Wall and process CPU seconds of one timed step. */
struct Elapsed
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/** Starts both clocks when constructed. */
class Stopwatch
{
  public:
    Elapsed elapsed() const
    {
        return {secondsSince(wall0_), cpuSeconds() - cpu0_};
    }

  private:
    Clock::time_point wall0_ = Clock::now();
    double cpu0_ = cpuSeconds();
};
double peakRssMb();

/** Fresh empty directory (removed first if present). */
void freshDir(const std::string &path);
void removeDir(const std::string &path);

// The four workloads (workloads.cc). Each returns its end-to-end
// metrics when tracing is off and its per-layer metrics when it is on.
Outcome runSweep(const Options &opts);
Outcome runRerun(const Options &opts);
Outcome runWhatif(const Options &opts);
Outcome runMix4(const Options &opts);

/** Simulate every recorded point once and write the expected file. */
int recordExpected(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
