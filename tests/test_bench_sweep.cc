/**
 * @file
 * Tests for the benchmark sweep driver and TSV cache (bench_common):
 * job-count-independent results, canonical cache files, atomic merge
 * writes, tolerance of malformed cache rows, and the PIPM_BENCH_FAULTS
 * mode parser.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "common/logging.hh"
#include "fuzz/fuzz.hh"
#include "workloads/catalog.hh"

namespace
{

using namespace pipm;
using namespace pipmbench;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Short-run options writing to a private cache file. */
Options
testOptions(const std::string &cache_path, unsigned jobs)
{
    Options opts;
    opts.measureRefs = 2'000;
    opts.warmupRefs = 500;
    opts.seed = 42;
    opts.cachePath = cache_path;
    opts.jobs = jobs;
    return opts;
}

class SweepTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        for (const std::string &f : cleanup_)
            std::remove(f.c_str());
    }

    std::string
    cachePath(const std::string &name)
    {
        const std::string path = "test_sweep_" + name + ".tsv";
        cleanup_.push_back(path);
        return path;
    }

    std::vector<std::string> cleanup_;
};

TEST_F(SweepTest, JobCountDoesNotChangeResultsOrCacheFile)
{
    const SystemConfig cfg = defaultConfig();
    const auto workload = workloadByName("pr", cfg.footprintScale);
    const Scheme schemes[] = {Scheme::native, Scheme::pipmFull};

    const Options serial = testOptions(cachePath("j1"), 1);
    const Options parallel = testOptions(cachePath("j8"), 8);

    Sweep s1(serial);
    Sweep s8(parallel);
    for (Scheme s : schemes) {
        s1.add(cfg, s, *workload);
        s8.add(cfg, s, *workload);
    }
    EXPECT_EQ(s1.run(), std::size(schemes));
    EXPECT_EQ(s8.run(), std::size(schemes));

    // The cache files must be byte-identical: same rows, same canonical
    // order, regardless of how many worker threads produced them.
    const std::string f1 = slurp(serial.cachePath);
    EXPECT_FALSE(f1.empty());
    EXPECT_EQ(f1, slurp(parallel.cachePath));

    // And the deserialized results must agree field-for-field.
    for (Scheme s : schemes) {
        const RunResult a = cachedRun(cfg, s, *workload, serial);
        const RunResult b = cachedRun(cfg, s, *workload, parallel);
        EXPECT_EQ(a.execCycles, b.execCycles);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.sharedLlcMisses, b.sharedLlcMisses);
        EXPECT_EQ(a.interHostAccesses, b.interHostAccesses);
        EXPECT_EQ(a.pipmPromotions, b.pipmPromotions);
        EXPECT_EQ(a.pipmLinesIn, b.pipmLinesIn);
    }
}

TEST_F(SweepTest, RerunHitsCacheAndSimulatesNothing)
{
    const SystemConfig cfg = defaultConfig();
    const auto workload = workloadByName("tc", cfg.footprintScale);
    const Options opts = testOptions(cachePath("rerun"), 2);

    Sweep first(opts);
    first.add(cfg, Scheme::native, *workload);
    // Duplicate enqueues dedupe down to one simulation.
    first.add(cfg, Scheme::native, *workload);
    EXPECT_EQ(first.run(), 1u);

    Sweep second(opts);
    second.add(cfg, Scheme::native, *workload);
    EXPECT_EQ(second.run(), 0u);
}

TEST_F(SweepTest, MalformedCacheRowsAreSkippedAndDropped)
{
    const SystemConfig cfg = defaultConfig();
    const auto workload = workloadByName("pr", cfg.footprintScale);
    const Options opts = testOptions(cachePath("malformed"), 1);

    // Seed the cache with garbage: a truncated row, a row with a bad
    // key, and a row whose result columns don't parse.
    {
        std::ofstream out(opts.cachePath);
        out << "short\n";
        out << "zzzzzzzzzzzzzzzz\t1 2 3\n";
        out << "0123456789abcdef\tnot a number\n";
    }

    // The run must ignore the garbage, simulate, and atomically rewrite
    // the cache with only well-formed rows.
    const RunResult r = cachedRun(cfg, Scheme::native, *workload, opts);
    EXPECT_GT(r.execCycles, 0u);

    std::ifstream in(opts.cachePath);
    std::string line;
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        ++rows;
        ASSERT_GT(line.size(), 17u);
        EXPECT_EQ(line[16], '\t');
        for (std::size_t i = 0; i < 16; ++i)
            EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(line[i])));
    }
    EXPECT_EQ(rows, 1u);

    // The surviving row must satisfy a second lookup (cache hit).
    const RunResult again = cachedRun(cfg, Scheme::native, *workload, opts);
    EXPECT_EQ(r.execCycles, again.execCycles);
}

TEST_F(SweepTest, MalformedRowsWarnOncePerFile)
{
    const SystemConfig cfg = defaultConfig();
    const auto workload = workloadByName("pr", cfg.footprintScale);
    const Options opts = testOptions(cachePath("warn_once"), 1);
    {
        std::ofstream out(opts.cachePath);
        for (int i = 0; i < 3; ++i)
            out << "0123456789abcdef\tnot a row " << i << "\n";
    }

    // A sweep reads the file twice (the lookup and the merge), and a
    // later cachedRun reads it again: one warning names all three rows.
    ::testing::internal::CaptureStderr();
    Sweep sweep(opts);
    sweep.add(cfg, Scheme::native, *workload);
    EXPECT_EQ(sweep.run(), 1u);
    cachedRun(cfg, Scheme::native, *workload, opts);
    const std::string err = ::testing::internal::GetCapturedStderr();

    std::size_t warnings = 0;
    for (std::size_t at = err.find("malformed"); at != std::string::npos;
         at = err.find("malformed", at + 1))
        ++warnings;
    EXPECT_EQ(warnings, 1u) << err;
    EXPECT_NE(err.find("skipping 3 malformed cache row(s) in " +
                       opts.cachePath),
              std::string::npos)
        << err;
}

TEST_F(SweepTest, CacheHitReturnsTheRunItCached)
{
    // Lease faults make every fault and lease column nonzero-capable;
    // the hit must reproduce each field, the doubles to the last bit.
    SystemConfig cfg = defaultConfig();
    cfg.fault = paperSuspicionFaultConfig(1);
    const auto workload = workloadByName("pr", cfg.footprintScale);
    const Options opts = testOptions(cachePath("hit"), 1);

    const RunResult miss = cachedRun(cfg, Scheme::pipmFull, *workload, opts);
    const RunResult hit = cachedRun(cfg, Scheme::pipmFull, *workload, opts);
    EXPECT_GT(miss.txnRetries + miss.suspicions + miss.stallWindows, 0u);
    EXPECT_EQ(fuzz::fingerprintResult(miss), fuzz::fingerprintResult(hit));
}

TEST_F(SweepTest, MergePreservesRowsWrittenByOthers)
{
    const SystemConfig cfg = defaultConfig();
    const auto workload = workloadByName("pr", cfg.footprintScale);
    const Options opts = testOptions(cachePath("merge"), 1);

    // First run writes one row.
    cachedRun(cfg, Scheme::native, *workload, opts);
    const std::string before = slurp(opts.cachePath);
    EXPECT_FALSE(before.empty());

    // A second, different experiment merges in without losing the first.
    cachedRun(cfg, Scheme::localOnly, *workload, opts);
    const std::string after = slurp(opts.cachePath);
    EXPECT_NE(before, after);
    EXPECT_NE(after.find(before.substr(0, 16)), std::string::npos);

    std::ifstream in(opts.cachePath);
    std::string line;
    std::vector<std::string> keys;
    while (std::getline(in, line))
        keys.push_back(line.substr(0, 16));
    ASSERT_EQ(keys.size(), 2u);
    // Canonical order: sorted by key.
    EXPECT_LT(keys[0], keys[1]);
}

/**
 * Run applyEnvFaults with PIPM_BENCH_FAULTS=`mode` on a fresh config.
 * Returns the SimError message it raised ("" if none); `enabled` gets
 * its result and `cfg` the config it left.
 */
std::string
applyBenchFaults(const char *mode, bool &enabled, SystemConfig &cfg)
{
    detail::throwOnError = true;
    ::setenv("PIPM_BENCH_FAULTS", mode, 1);
    cfg = testConfig();
    std::string error;
    try {
        enabled = applyEnvFaults(cfg);
    } catch (const SimError &e) {
        error = e.message;
    }
    ::unsetenv("PIPM_BENCH_FAULTS");
    detail::throwOnError = false;
    return error;
}

TEST(BenchEnv, FaultsModeSelectsEachFailureDomain)
{
    bool on = true;
    SystemConfig cfg;
    EXPECT_EQ(applyBenchFaults("0", on, cfg), "");
    EXPECT_FALSE(on);
    EXPECT_FALSE(cfg.fault.enabled);
    EXPECT_EQ(applyBenchFaults("", on, cfg), "");
    EXPECT_FALSE(on);

    EXPECT_EQ(applyBenchFaults("1", on, cfg), "");
    EXPECT_TRUE(on);
    SystemConfig paper = testConfig();
    paper.fault = paperFaultConfig(42);
    EXPECT_EQ(cfg.measurementKey(), paper.measurementKey());
    for (const char *crash : {"crash", "2"}) {
        EXPECT_EQ(applyBenchFaults(crash, on, cfg), "");
        EXPECT_GT(cfg.fault.crashMeanIntervalNs, 0.0) << crash;
    }
    for (const char *suspect : {"suspect", "3"}) {
        EXPECT_EQ(applyBenchFaults(suspect, on, cfg), "");
        EXPECT_GT(cfg.fault.leaseNs, 0.0) << suspect;
    }
    for (const char *meta : {"meta", "4"}) {
        EXPECT_EQ(applyBenchFaults(meta, on, cfg), "");
        EXPECT_GT(cfg.fault.metaCorruptMeanIntervalNs, 0.0) << meta;
    }
}

TEST(BenchEnv, FaultsModeRejectsUnknownValues)
{
    // A typo used to run the fault-only schedule without a word.
    for (const char *bad : {"crsh", "yes", "5", " 1", "meta "}) {
        bool on = false;
        SystemConfig cfg;
        const std::string msg = applyBenchFaults(bad, on, cfg);
        EXPECT_NE(msg.find("PIPM_BENCH_FAULTS='" + std::string(bad) + "'"),
                  std::string::npos)
            << bad;
        EXPECT_NE(msg.find("suspect"), std::string::npos) << msg;
    }
}

} // namespace
