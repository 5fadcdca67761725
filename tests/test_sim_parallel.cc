/**
 * @file
 * Tests for the parallel simulation layer: the fixed thread pool, the
 * concurrency-safe SimDriver (bit-identical results no matter how
 * many threads race on a point), and the persistent on-disk run
 * cache (hit, miss, version invalidation, corrupted-file fallback).
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "helpers.h"
#include "sim/run_cache.h"
#include "sim/thread_pool.h"

namespace fs = std::filesystem;

using namespace redsoc;

namespace {

/** Enough for every test workload to halt (crc is ~99k dynamic
 *  ops), and no more: determinism, not throughput. */
constexpr SeqNum kTestOps = 150'000;

/**
 * Canonical text form of the deterministic architectural result:
 * everything the run cache serializes except the host wall-clock,
 * which legitimately differs run to run.
 */
std::string
canon(CoreStats stats)
{
    stats.sim_seconds = 0.0;
    return serializeStats("canon", stats);
}

std::string
makeTempDir()
{
    std::string tmpl = (fs::temp_directory_path() /
                        "redsoc-cache-test-XXXXXX").string();
    char *dir = ::mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    return tmpl;
}

CoreStats
sampleStats()
{
    ProgramBuilder b("chain");
    test::emitLogicChain(b, 200);
    b.halt();
    const Trace trace = test::makeTrace(b);
    return test::runCore(trace, configFor("small", SchedMode::ReDSOC));
}

class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

} // namespace

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::atomic<int> done{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 1000);

    // The pool stays usable after a wait.
    pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 1001);
}

TEST(ThreadPool, WaitRethrowsFirstTaskError)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&done, i] {
            if (i == 3)
                throw std::runtime_error("task failed");
            ++done;
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(done.load(), 7); // the remaining tasks still ran
    // The error does not stick to the next batch.
    pool.submit([&done] { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 8);
}

TEST(ParallelDriver, EightThreadsOnOnePointMatchSerial)
{
    const CoreConfig cfg = configFor("small", SchedMode::ReDSOC);

    SimDriver serial(kTestOps);
    const std::string want = canon(serial.run("crc", cfg));

    SimDriver parallel(kTestOps);
    std::vector<CoreStats> got(8);
    {
        std::vector<std::thread> threads;
        for (int i = 0; i < 8; ++i) {
            threads.emplace_back([&parallel, &got, &cfg, i] {
                got[i] = parallel.run("crc", cfg);
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    for (const CoreStats &stats : got)
        EXPECT_EQ(canon(stats), want);
}

TEST(ParallelDriver, BatchMatrixMatchesSerialPointwise)
{
    std::vector<SimDriver::Point> points;
    for (const char *workload : {"crc", "act"}) {
        for (SchedMode mode :
             {SchedMode::Baseline, SchedMode::ReDSOC, SchedMode::MOS}) {
            points.push_back({workload, configFor("medium", mode)});
        }
    }

    SimDriver batch(kTestOps);
    const std::vector<CoreStats> got = batch.runAll(points);
    ASSERT_EQ(got.size(), points.size());

    SimDriver serial(kTestOps);
    for (size_t i = 0; i < points.size(); ++i) {
        const CoreStats &want =
            serial.run(points[i].workload, points[i].config);
        EXPECT_EQ(canon(got[i]), canon(want)) << "point " << i;
    }
}

TEST(RunCache, KeysSeparateL2LineSizeAndExactDoubles)
{
    const CoreConfig base = coreByName("big");
    CoreConfig wide_l2 = base;
    wide_l2.memory.l2.line_bytes = 128;
    EXPECT_NE(SimDriver::configKey(base), SimDriver::configKey(wide_l2));

    CoreConfig derated = base;
    derated.timing.pvt_derate = 1.0000001;
    ASSERT_EQ(base.timing.pvt_derate, 1.0);
    EXPECT_NE(SimDriver::configKey(base), SimDriver::configKey(derated));

    CoreConfig offcore = base;
    offcore.memory.offcore_latency_scale =
        base.memory.offcore_latency_scale + 1e-9;
    EXPECT_NE(SimDriver::configKey(base), SimDriver::configKey(offcore));
}

TEST(RunCache, SerializeRoundTripsExactly)
{
    const CoreStats stats = sampleStats();
    const auto back =
        deserializeStats(serializeStats("some key", stats), "some key");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(serializeStats("k", *back), serializeStats("k", stats));
    EXPECT_EQ(back->chain_lengths.weightedMean(),
              stats.chain_lengths.weightedMean());
}

TEST(RunCache, RejectsKeyMismatch)
{
    const CoreStats stats = sampleStats();
    EXPECT_FALSE(deserializeStats(serializeStats("key a", stats),
                                  "key b").has_value());
}

TEST(RunCache, HitAndMiss)
{
    const std::string dir = makeTempDir();
    RunCache cache(dir);
    EXPECT_FALSE(cache.load("absent").has_value()); // cold miss

    const CoreStats stats = sampleStats();
    cache.store("point", stats);
    const auto hit = cache.load("point");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(serializeStats("k", *hit), serializeStats("k", stats));
    EXPECT_FALSE(cache.load("other point").has_value());

    fs::remove_all(dir);
}

TEST(RunCache, VersionMismatchInvalidates)
{
    const std::string dir = makeTempDir();
    RunCache cache(dir);
    cache.store("point", sampleStats());

    const std::string path = cache.entryPath("point");
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const std::string want = "v" + std::to_string(RunCache::kFormatVersion);
    const size_t pos = text.find(want);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, want.size(), "v999");
    std::ofstream(path, std::ios::trunc) << text;

    EXPECT_FALSE(cache.load("point").has_value());
    fs::remove_all(dir);
}

TEST(RunCache, CorruptedFileIsAMiss)
{
    const std::string dir = makeTempDir();
    RunCache cache(dir);
    const CoreStats stats = sampleStats();
    cache.store("point", stats);

    // Truncation (a torn write can't happen thanks to the atomic
    // rename, but a corrupted disk file must still be survivable).
    const std::string full = serializeStats("point", stats);
    std::ofstream(cache.entryPath("point"), std::ios::trunc)
        << full.substr(0, full.size() / 2);
    EXPECT_FALSE(cache.load("point").has_value());

    std::ofstream(cache.entryPath("point"), std::ios::trunc)
        << "not a stats file at all";
    EXPECT_FALSE(cache.load("point").has_value());

    fs::remove_all(dir);
}

TEST(RunCache, DriverLoadsStoresAndSurvivesCorruption)
{
    const std::string dir = makeTempDir();
    ScopedEnv env("REDSOC_CACHE_DIR", dir);
    const CoreConfig cfg = configFor("small", SchedMode::Baseline);

    SimDriver first(kTestOps);
    const CoreStats truth = first.run("crc", cfg);
    const std::string key = first.runKey("crc", cfg);
    RunCache cache(dir);
    ASSERT_TRUE(fs::exists(cache.entryPath(key))); // stored on miss

    // Plant a marker in the cached entry: a second driver must serve
    // the disk copy, not resimulate.
    CoreStats marked = truth;
    marked.cycles += 12345;
    cache.store(key, marked);
    SimDriver second(kTestOps);
    EXPECT_EQ(second.run("crc", cfg).cycles, truth.cycles + 12345);

    // Corrupt the entry: a third driver falls back to recomputing
    // (and repairs the cache entry on the way out).
    std::ofstream(cache.entryPath(key), std::ios::trunc) << "garbage";
    SimDriver third(kTestOps);
    EXPECT_EQ(canon(third.run("crc", cfg)), canon(truth));
    const auto repaired = cache.load(key);
    ASSERT_TRUE(repaired.has_value());
    EXPECT_EQ(repaired->cycles, truth.cycles);

    fs::remove_all(dir);
}
