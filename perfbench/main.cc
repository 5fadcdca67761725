/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload sweep|rerun|whatif|mix4 --seed N --seconds S
 *             --trace 0|1 [--threads N] [--expect FILE] [--work-dir DIR]
 *   perfbench --record FILE
 *
 * Prints one JSON object as the last line of stdout:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * with the end-to-end metrics (--trace 0) or the per-layer metrics of a
 * traced run (--trace 1). Diagnostics go to stderr. See README.md.
 */

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload sweep|rerun|whatif|mix4 --seed N "
                 "--seconds S --trace 0|1 [--threads N] [--expect FILE] "
                 "[--work-dir DIR]\n       %s --record FILE\n",
                 argv0, argv0);
    return 2;
}

void
printResult(const Outcome &out)
{
    bool finite = true;
    std::string metrics;
    for (const Metric &m : out.metrics) {
        finite = finite && std::isfinite(m.value);
        char buf[96];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + m.name + "\": {\"value\": " + buf +
                   ", \"unit\": \"" + m.unit + "\"}";
    }
    const bool correct = finite && out.attempted > 0 && out.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), metrics.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                opts.workload = val;
            else if (arg == "--seed")
                opts.seed = std::stoull(val);
            else if (arg == "--seconds")
                opts.seconds = std::stod(val);
            else if (arg == "--trace")
                opts.trace = std::stoi(val) != 0;
            else if (arg == "--threads")
                opts.threads = static_cast<unsigned>(std::stoul(val));
            else if (arg == "--expect")
                opts.expect_path = val;
            else if (arg == "--work-dir")
                opts.work_dir = val;
            else if (arg == "--record")
                opts.record_path = val;
            else
                return usage(argv[0]);
        } catch (const std::exception &) {
            return usage(argv[0]);
        }
    }

    // Fixed allocator thresholds. By default glibc raises its mmap
    // threshold to the largest block freed so far and trims the heap
    // against it, so an item's page faults depend on which items ran
    // before it: two mix4 seeds differed 4x in page faults and ~15% in
    // throughput. With fixed thresholds the faults repeat across seeds.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 128 << 20);

    // The program under test reads these; the benchmark controls the
    // cache directory itself and runs with every other hook off.
    for (const char *var :
         {"REDSOC_CACHE_DIR", "REDSOC_CACHE_TMP_DIR", "REDSOC_CACHE_TMP_TTL_S",
          "REDSOC_TRACE_DIR", "REDSOC_PROFILE", "REDSOC_AUDIT",
          "REDSOC_SWEEP_SERVER"})
        unsetenv(var);

    if (!opts.record_path.empty())
        return recordExpected(opts);

    Outcome (*run)(const Options &) =
        opts.workload == "sweep"    ? runSweep
        : opts.workload == "rerun"  ? runRerun
        : opts.workload == "whatif" ? runWhatif
        : opts.workload == "mix4"   ? runMix4
                                    : nullptr;
    if (run == nullptr || opts.seconds <= 0.0)
        return usage(argv[0]);
    if (!std::filesystem::exists(opts.expect_path)) {
        std::fprintf(stderr, "perfbench: no expected outputs at %s\n",
                     opts.expect_path.c_str());
        return 1;
    }
    try {
        std::filesystem::create_directories(opts.work_dir);
        printResult(run(opts));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
