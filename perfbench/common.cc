#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

u64
Rng::next()
{
    u64 z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<size_t>
permutation(size_t n, Rng &rng)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

Expected
Expected::load(const std::string &path)
{
    Expected e;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string key;
        is >> key;
        std::vector<u64> values;
        u64 v = 0;
        while (is >> v)
            values.push_back(v);
        e.values_[key] = std::move(values);
    }
    return e;
}

bool
Expected::save(const std::string &path) const
{
    std::ofstream out(path);
    out << "# perfbench expected outputs: key then values (cycles "
           "committed checksum per core run;\n# analytic cycles per "
           "what-if model). Regenerate with: perfbench --record FILE\n";
    for (const auto &[key, values] : values_) {
        out << key;
        for (u64 v : values)
            out << ' ' << v;
        out << '\n';
    }
    return static_cast<bool>(out);
}

void
Expected::put(const std::string &key, std::vector<u64> values)
{
    values_[key] = std::move(values);
}

const std::vector<u64> *
Expected::find(const std::string &key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

void
FailureLog::fail(const std::string &what)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (++failed_ <= 20)
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

u64
FailureLog::count() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
}

LoopResult
closedLoop(redsoc::ThreadPool &pool, u64 limit,
           const std::function<void(u64)> &fn)
{
    const unsigned workers = pool.threads();
    std::atomic<u64> next{0};
    std::vector<u64> done(workers, 0);
    std::vector<double> last(workers, 0.0);
    const Clock::time_point t0 = Clock::now();
    for (unsigned w = 0; w < workers; ++w) {
        pool.submit([&, w] {
            for (;;) {
                const u64 item = next.fetch_add(1);
                if (item >= limit)
                    break;
                fn(item);
                ++done[w];
                last[w] = secondsSince(t0);
            }
        });
    }
    pool.wait();
    LoopResult r;
    for (unsigned w = 0; w < workers; ++w) {
        r.items += done[w];
        r.wall_s = std::max(r.wall_s, last[w]);
    }
    return r;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

} // namespace

double
cpuSeconds()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuSeconds()
{
    return clockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

namespace {

// Round figures near the HostSpeed loops' rates, four workers at once,
// on the reference host (the 4-vCPU Xeon VM the bounds in
// BENCHMARK.json were measured on), in million steps or sorted
// elements per CPU second.
constexpr double kWalkRef = 6.0;
constexpr double kSortRef = 16.0;
constexpr int kWalkSteps = 300'000;
constexpr int kSortRounds = 100;
constexpr size_t kSortLength = 4096;
constexpr size_t kTableLength = size_t{1} << 21; // 8 MB of u32

volatile u64 g_sink;

} // namespace

HostSpeed::HostSpeed(redsoc::ThreadPool &pool)
    : pool_(pool), table_(kTableLength)
{
    for (size_t i = 0; i < kTableLength; ++i)
        table_[i] =
            static_cast<uint32_t>((i * 2654435761u + 12345u) % kTableLength);
    scores_.push_back(measure());
}

double
HostSpeed::median() const
{
    const double m = perfbench::median(scores_);
    std::fprintf(stderr, "perfbench: host speed %.4f (median of %zu samples; "
                         "1 = reference host)\n",
                 m, scores_.size());
    return m;
}

double
HostSpeed::measure()
{
    const unsigned workers = pool_.threads();
    std::vector<double> walk(workers), sort(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool_.submit([&, w] {
            double t0 = threadCpuSeconds();
            uint32_t p = 0;
            u64 x = w + 1;
            for (int k = 0; k < kWalkSteps; ++k) {
                p = table_[(p ^ static_cast<uint32_t>(x >> 40)) &
                           (kTableLength - 1)];
                x = x * 6364136223846793005ull + p;
                if (x & 0x100)
                    x ^= x >> 13;
            }
            walk[w] = kWalkSteps / (threadCpuSeconds() - t0) / 1e6;

            t0 = threadCpuSeconds();
            Rng rng(w + 1);
            std::vector<uint32_t> v(kSortLength);
            for (int r = 0; r < kSortRounds; ++r) {
                for (uint32_t &e : v)
                    e = static_cast<uint32_t>(rng.next());
                std::sort(v.begin(), v.end());
                x += v[static_cast<size_t>(r)];
            }
            sort[w] = static_cast<double>(kSortRounds * kSortLength) /
                      (threadCpuSeconds() - t0) / 1e6;
            g_sink = x;
        });
    }
    pool_.wait();
    double walk_rate = 0.0, sort_rate = 0.0;
    for (unsigned w = 0; w < workers; ++w) {
        walk_rate += walk[w] / workers;
        sort_rate += sort[w] / workers;
    }
    return std::sqrt(walk_rate / kWalkRef * (sort_rate / kSortRef));
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
freshDir(const std::string &path)
{
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
}

void
removeDir(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace perfbench
