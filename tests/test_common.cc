/**
 * @file
 * Unit tests for the common substrate: RNG, zipf sampling, stats,
 * table printing, logging and configuration validation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

namespace pipm
{
namespace
{

class ThrowOnErrorGuard
{
  public:
    ThrowOnErrorGuard() { detail::throwOnError = true; }
    ~ThrowOnErrorGuard() { detail::throwOnError = false; }
};

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i)
        seen.insert(rng.range(3, 5));
    EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5}));
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(13);
    constexpr int buckets = 8;
    constexpr int draws = 80000;
    int counts[buckets] = {};
    for (int i = 0; i < draws; ++i)
        ++counts[rng.below(buckets)];
    for (int c : counts) {
        EXPECT_GT(c, draws / buckets * 0.9);
        EXPECT_LT(c, draws / buckets * 1.1);
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Zipf, RankZeroIsHottest)
{
    Rng rng(3);
    ZipfSampler zipf(1000, 0.9);
    std::uint64_t rank0 = 0, rank_tail = 0;
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t r = zipf.sample(rng);
        ASSERT_LT(r, 1000u);
        if (r == 0)
            ++rank0;
        if (r >= 500)
            ++rank_tail;
    }
    EXPECT_GT(rank0, rank_tail / 4);
    EXPECT_GT(rank0, 1000u);
}

TEST(Zipf, HigherThetaConcentratesMass)
{
    Rng rng_a(5), rng_b(5);
    ZipfSampler mild(10000, 0.4), hot(10000, 0.99);
    std::uint64_t mild_top = 0, hot_top = 0;
    for (int i = 0; i < 50000; ++i) {
        mild_top += mild.sample(rng_a) < 100;
        hot_top += hot.sample(rng_b) < 100;
    }
    EXPECT_GT(hot_top, mild_top * 2);
}

TEST(Stats, CounterAccumulatesAndResets)
{
    Counter c;
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageComputesMean)
{
    Average a;
    a.sample(1.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_EQ(a.count(), 2u);
    a.reset();
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Stats, HistogramBucketsAndOverflow)
{
    Histogram h(10, 4);
    h.sample(5);
    h.sample(25);
    h.sample(1000);   // overflow bucket
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
    EXPECT_NEAR(h.mean(), (5 + 25 + 1000) / 3.0, 1e-9);
}

TEST(Stats, AverageEmptyMeanIsZero)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

TEST(Stats, HistogramZeroWidthIsClampedToOne)
{
    // Regression: Histogram(0, ...) used to divide by zero on the first
    // sample. The width clamps to 1 and at least one regular bucket is
    // kept in front of the overflow bucket.
    Histogram h(0, 0);
    EXPECT_EQ(h.bucketWidth(), 1u);
    ASSERT_EQ(h.buckets().size(), 2u);
    h.sample(0);
    h.sample(5);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.buckets()[0], 0u);
}

TEST(Stats, DumpPrintsHistogramBucketsAndOverflow)
{
    StatGroup group("grp");
    Histogram h(10, 4);
    group.addHistogram(&h, "lat", "latency");
    h.sample(5);
    h.sample(5);
    h.sample(1000);
    const std::string dump = group.dump();
    EXPECT_NE(dump.find("grp.lat mean="), std::string::npos);
    EXPECT_NE(dump.find("grp.lat[0,9] 2"), std::string::npos);
    EXPECT_NE(dump.find("grp.lat[40+] 1"), std::string::npos);
    EXPECT_NE(dump.find("# overflow"), std::string::npos);
}

TEST(Stats, DumpFormattingIsFixedPrecision)
{
    // Regression: the default stream precision (6 significant digits)
    // rendered large means in scientific notation, and the global locale
    // could group digits — both made dumps non-reproducible. The dump
    // pins classic-locale fixed notation with 6 decimal places.
    StatGroup group("grp");
    Average a;
    group.addAverage(&a, "big", "large mean");
    a.sample(1234567.5);
    const std::string dump = group.dump();
    EXPECT_NE(dump.find("grp.big 1234567.500000 (n=1)"),
              std::string::npos);
    EXPECT_EQ(dump.find("e+"), std::string::npos);
}

TEST(Stats, GroupDumpContainsNamesAndValues)
{
    StatGroup group("grp");
    Counter c;
    c.inc(7);
    group.addCounter(&c, "seven", "a seven");
    const std::string dump = group.dump();
    EXPECT_NE(dump.find("grp.seven 7"), std::string::npos);
    EXPECT_NE(dump.find("a seven"), std::string::npos);
    group.resetAll();
    EXPECT_EQ(c.value(), 0u);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t("demo");
    t.header({"a", "long_header"});
    t.row({"xxxx", "y"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("long_header"), std::string::npos);
    EXPECT_NE(out.find("xxxx"), std::string::npos);
}

TEST(TablePrinter, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(1.234, 2), "1.23");
    EXPECT_EQ(TablePrinter::pct(0.5), "50.0%");
}

TEST(Logging, PanicThrowsUnderTestHook)
{
    ThrowOnErrorGuard guard;
    EXPECT_THROW(panic("boom ", 42), SimError);
    EXPECT_THROW(fatal("bad user"), SimError);
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    ThrowOnErrorGuard guard;
    EXPECT_NO_THROW(panic_if(false, "never"));
    EXPECT_THROW(panic_if(true, "always"), SimError);
}

/** Set one environment variable for the scope of a test. */
struct ScopedEnv
{
    const char *name;
    ScopedEnv(const char *n, const char *value) : name(n)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name); }
};

/** The SimError message envU64 raises for `value`, "" if it parses. */
std::string
envU64Error(const char *value)
{
    ThrowOnErrorGuard guard;
    ScopedEnv env("PIPM_TEST_KNOB", value);
    try {
        (void)envU64("PIPM_TEST_KNOB", 7);
    } catch (const SimError &e) {
        return e.message;
    }
    return "";
}

TEST(Env, U64ParsesPlainDecimalAndFallsBack)
{
    EXPECT_EQ(envU64("PIPM_TEST_KNOB_UNSET", 7), 7u);
    {
        ScopedEnv env("PIPM_TEST_KNOB", "");
        EXPECT_EQ(envU64("PIPM_TEST_KNOB", 7), 7u);
    }
    ScopedEnv env("PIPM_TEST_KNOB", "18446744073709551615");
    EXPECT_EQ(envU64("PIPM_TEST_KNOB", 7), 18446744073709551615ull);
}

TEST(Env, U64RejectsTrailingGarbage)
{
    // strtoull read "2e4" as 2 and ran a different experiment.
    for (const char *bad : {"2e4", "20000 ", "12abc", "1.5"}) {
        const std::string msg = envU64Error(bad);
        EXPECT_NE(msg.find("PIPM_TEST_KNOB"), std::string::npos) << bad;
        EXPECT_NE(msg.find(bad), std::string::npos) << bad;
    }
}

TEST(Env, U64RejectsValuesWithoutDigits)
{
    for (const char *bad : {"abc", " 5", "-1", "+5", "-"})
        EXPECT_NE(envU64Error(bad).find("PIPM_TEST_KNOB"),
                  std::string::npos)
            << bad;
}

TEST(Env, ParseU64LeavesOutputUntouchedOnFailure)
{
    std::uint64_t v = 5;
    EXPECT_FALSE(parseU64("12abc", v));
    EXPECT_FALSE(parseU64("", v));
    EXPECT_EQ(v, 5u);
    EXPECT_TRUE(parseU64("0012", v));
    EXPECT_EQ(v, 12u);
}

TEST(Env, U64RejectsOverflow)
{
    EXPECT_NE(envU64Error("18446744073709551616").find("PIPM_TEST_KNOB"),
              std::string::npos);
    EXPECT_NE(envU64Error("99999999999999999999999").find("PIPM_TEST_KNOB"),
              std::string::npos);
}

TEST(Config, DefaultIsValidAndMatchesTable2)
{
    const SystemConfig cfg = defaultConfig();
    EXPECT_EQ(cfg.numHosts, 4u);
    EXPECT_EQ(cfg.coresPerHost, 4u);
    EXPECT_EQ(cfg.core.robEntries, 224u);
    EXPECT_EQ(cfg.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.llcPerCore.sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(cfg.pipm.migrationThreshold, 8u);
    const std::string desc = cfg.describe();
    EXPECT_NE(desc.find("4 hosts"), std::string::npos);
    EXPECT_NE(desc.find("224-entry ROB"), std::string::npos);
}

TEST(Config, AddressMapRegions)
{
    const SystemConfig cfg = testConfig();
    EXPECT_EQ(cfg.regionOf(0), AddrRegion::hostLocal);
    EXPECT_EQ(cfg.homeHostOf(0), 0);
    EXPECT_EQ(cfg.homeHostOf(cfg.localBase(1)), 1);
    EXPECT_EQ(cfg.regionOf(cfg.cxlBase()), AddrRegion::cxlPool);
    EXPECT_LT(cfg.cxlBase(), cfg.addressSpaceEnd());
}

TEST(Config, ValidateRejectsBadValues)
{
    ThrowOnErrorGuard guard;
    SystemConfig cfg = testConfig();
    cfg.numHosts = 0;
    EXPECT_THROW(cfg.validate(), SimError);
    cfg = testConfig();
    // Host IDs are 5 bits (directory sharer masks): 32 hosts max.
    cfg.numHosts = 33;
    EXPECT_THROW(cfg.validate(), SimError);
    cfg = testConfig();
    cfg.numHosts = 32;
    EXPECT_NO_THROW(cfg.validate());
    cfg = testConfig();
    cfg.pipm.migrationThreshold = 0;
    EXPECT_THROW(cfg.validate(), SimError);
    cfg = testConfig();
    cfg.pipm.migrationThreshold = 64;   // does not fit 6-bit counter
    EXPECT_THROW(cfg.validate(), SimError);
}

TEST(Config, ScaledEpochAndCosts)
{
    SystemConfig cfg = defaultConfig();
    // 10 ms at 4 GHz is 40M cycles; divided by timeScale.
    EXPECT_EQ(cfg.osEpochCycles(), nsToCycles(10e6) / cfg.timeScale);
    EXPECT_EQ(cfg.osPageInitiatorCycles(),
              nsToCycles(20e3) / cfg.timeScale);
    EXPECT_GT(cfg.osPageTransferBytes(), 0u);
}

TEST(Config, OsEpochCyclesNeverRoundsToZero)
{
    // Regression: a timeScale larger than the epoch in cycles rounded
    // osEpochCycles() down to 0, turning the OS policy timer into an
    // every-cycle busy loop. The scaled epoch clamps to >= 1.
    SystemConfig cfg = defaultConfig();
    cfg.osMigration.intervalMs = 0.001;   // 4000 cycles at 4 GHz
    cfg.timeScale = 1'000'000;
    EXPECT_EQ(cfg.osEpochCycles(), 1u);
}

TEST(Config, ValidateRejectsNonPositiveEpoch)
{
    ThrowOnErrorGuard guard;
    SystemConfig cfg = testConfig();
    cfg.osMigration.intervalMs = 0.0;
    EXPECT_THROW(cfg.validate(), SimError);
    cfg.osMigration.intervalMs = -5.0;
    EXPECT_THROW(cfg.validate(), SimError);
}

TEST(ConfigKey, EverySingleFieldTweakChangesTheKey)
{
    // Two machines that run differently must never share a bench-cache
    // key or a stats.json config_hash: each tweak below changes one
    // field that reaches the model and must change measurementKey().
    using Tweak = std::pair<const char *, void (*)(SystemConfig &)>;
#define PIPM_TWEAK(expr) Tweak{#expr, [](SystemConfig &c) { expr; }}
    const std::vector<Tweak> tweaks = {
        PIPM_TWEAK(c.numHosts = 8),
        PIPM_TWEAK(c.coresPerHost = 2),
        PIPM_TWEAK(c.core.width = 4),
        PIPM_TWEAK(c.core.robEntries = 128),
        PIPM_TWEAK(c.core.loadQueue = 48),
        PIPM_TWEAK(c.core.storeQueue = 32),
        PIPM_TWEAK(c.core.mshrs = 8),
        PIPM_TWEAK(c.core.mshrLatencyThreshold = 80),
        PIPM_TWEAK(c.l1.sizeBytes *= 2),
        PIPM_TWEAK(c.l1.ways = 4),
        PIPM_TWEAK(c.l1.roundTrip = 5),
        PIPM_TWEAK(c.llcPerCore.sizeBytes *= 2),
        PIPM_TWEAK(c.llcPerCore.ways = 8),
        PIPM_TWEAK(c.llcPerCore.roundTrip = 30),
        PIPM_TWEAK(c.localDram.tRCns = 46.5),
        PIPM_TWEAK(c.localDram.tRCDns = 14.5),
        PIPM_TWEAK(c.localDram.tCLns = 19.5),
        PIPM_TWEAK(c.localDram.tRPns = 14.5),
        PIPM_TWEAK(c.localDram.channels = 2),
        PIPM_TWEAK(c.localDram.banksPerChannel = 16),
        PIPM_TWEAK(c.localDram.rowBytes = 4096),
        PIPM_TWEAK(c.localDram.bytesPerCycle = 4.8),
        PIPM_TWEAK(c.localDram.controllerNs = 12.0),
        PIPM_TWEAK(c.cxlDram.tRCns = 46.5),
        PIPM_TWEAK(c.cxlDram.tRCDns = 14.5),
        PIPM_TWEAK(c.cxlDram.tCLns = 19.5),
        PIPM_TWEAK(c.cxlDram.tRPns = 14.5),
        PIPM_TWEAK(c.cxlDram.channels = 4),
        PIPM_TWEAK(c.cxlDram.banksPerChannel = 16),
        PIPM_TWEAK(c.cxlDram.rowBytes = 4096),
        PIPM_TWEAK(c.cxlDram.bytesPerCycle = 4.8),
        PIPM_TWEAK(c.cxlDram.controllerNs = 12.0),
        PIPM_TWEAK(c.link.latencyNs = 50.000001),
        PIPM_TWEAK(c.link.bytesPerNs = 10.0),
        PIPM_TWEAK(c.link.hasSwitch = true),
        PIPM_TWEAK(c.link.switchNs = 40.0),
        PIPM_TWEAK(c.link.switchBytesPerNs = 10.0),
        PIPM_TWEAK(c.deviceDirectory.sets *= 2),
        PIPM_TWEAK(c.deviceDirectory.ways = 8),
        PIPM_TWEAK(c.deviceDirectory.slices = 8),
        PIPM_TWEAK(c.deviceDirectory.roundTrip += 4),
        PIPM_TWEAK(c.localDirectory.roundTrip += 4),
        PIPM_TWEAK(c.pipm.globalCacheBytes *= 2),
        PIPM_TWEAK(c.pipm.globalCacheWays = 4),
        PIPM_TWEAK(c.pipm.globalCacheRoundTrip += 2),
        PIPM_TWEAK(c.pipm.localCacheBytes *= 2),
        PIPM_TWEAK(c.pipm.localCacheWays = 4),
        PIPM_TWEAK(c.pipm.localCacheRoundTrip += 2),
        PIPM_TWEAK(c.pipm.migrationThreshold = 4),
        PIPM_TWEAK(c.pipm.globalCounterBits = 7),
        PIPM_TWEAK(c.pipm.localCounterBits = 5),
        PIPM_TWEAK(c.pipm.tableLevels = 3),
        PIPM_TWEAK(c.pipm.infiniteLocalCache = true),
        PIPM_TWEAK(c.pipm.infiniteGlobalCache = true),
        PIPM_TWEAK(c.osMigration.intervalMs = 5.0),
        PIPM_TWEAK(c.osMigration.perPageInitiatorUs = 30.0),
        PIPM_TWEAK(c.osMigration.perPageOtherUs = 7.5),
        PIPM_TWEAK(c.osMigration.maxPagesPerEpoch = 256),
        PIPM_TWEAK(c.osMigration.hotThreshold = 4),
        PIPM_TWEAK(c.tlb.enabled = true),
        PIPM_TWEAK(c.tlb.entries = 768),
        PIPM_TWEAK(c.tlb.ways = 4),
        PIPM_TWEAK(c.tlb.hitCycles = 2),
        PIPM_TWEAK(c.tlb.walkCycles = 200),
        PIPM_TWEAK(c.localBytesPerHostFull *= 2),
        PIPM_TWEAK(c.cxlPoolBytesFull *= 2),
        PIPM_TWEAK(c.footprintScale = 128),
        PIPM_TWEAK(c.timeScale = 500),
        PIPM_TWEAK(c.l1Scale = 2),
        PIPM_TWEAK(c.llcScale = 8),
        PIPM_TWEAK(c.migrationBytesScale = 2),
        PIPM_TWEAK(c.fault.enabled = true),
    };
#undef PIPM_TWEAK
    const std::string base = defaultConfig().measurementKey();
    std::set<std::string> keys{base};
    for (const auto &[what, tweak] : tweaks) {
        SystemConfig cfg = defaultConfig();
        tweak(cfg);
        const std::string key = cfg.measurementKey();
        EXPECT_NE(key, base) << what;
        EXPECT_TRUE(keys.insert(key).second) << what << " collides";
    }

    // Fault fields enter the key only while faults are enabled.
    SystemConfig off = defaultConfig();
    off.fault.seed = 9;
    off.fault.linkErrorRate = 1e-3;
    EXPECT_EQ(off.measurementKey(), base);
    EXPECT_EQ(base.find(",fault:"), std::string::npos);
}

// ---- One capacity-scaling rule (SystemConfig accessors) ----------------

TEST(ConfigScaling, DefaultDirectoryCoversTheScaledLlcLines)
{
    // Table 2's directory covers exactly the full-size LLC lines; scaled
    // by llcScale it covers exactly the scaled ones (1x reach).
    const SystemConfig cfg = defaultConfig();
    EXPECT_EQ(cfg.deviceDirectory.sets, 2048u);
    EXPECT_EQ(cfg.deviceDirectorySets(), 128u);
    const std::uint64_t dir_entries =
        std::uint64_t{cfg.deviceDirectorySets()} * cfg.deviceDirectory.ways *
        cfg.deviceDirectory.slices;
    const std::uint64_t llc_lines = std::uint64_t{cfg.numHosts} *
                                    cfg.coresPerHost *
                                    cfg.llcBytesPerCore() / lineBytes;
    EXPECT_EQ(dir_entries, llc_lines);
}

TEST(ConfigScaling, RemapEntriesPerSharedPageMatchTable2)
{
    // Table 2 sizes its remapping caches against pr's 48 GB RSS; the
    // scaled caches keep the entries-per-shared-page ratio exactly.
    const SystemConfig cfg = defaultConfig();
    EXPECT_EQ(cfg.localRemapCacheBytes(), 4u * 1024);
    EXPECT_EQ(cfg.globalRemapCacheBytes(), 64u);
    const std::uint64_t full_pages = (48ull << 30) / pageBytes;
    const std::uint64_t scaled_pages =
        workloadByName("pr", cfg.footprintScale)->sharedBytes() / pageBytes;
    for (auto [table2, scaled, entry] :
         {std::tuple{cfg.pipm.localCacheBytes, cfg.localRemapCacheBytes(),
                     localRemapEntryBytes},
          std::tuple{cfg.pipm.globalCacheBytes, cfg.globalRemapCacheBytes(),
                     globalRemapEntryBytes}}) {
        // entries / pages, cross-multiplied to stay exact.
        EXPECT_EQ(scaled / entry * full_pages,
                  table2 / entry * scaled_pages);
    }
}

TEST(ConfigScaling, TestConfigKeepsItsEffectiveSizes)
{
    const SystemConfig cfg = testConfig();
    EXPECT_EQ(cfg.deviceDirectorySets(), 256u);
    EXPECT_EQ(cfg.localRemapCacheBytes(), 64u * 1024);
    EXPECT_EQ(cfg.globalRemapCacheBytes(), 4u * 1024);
}

TEST(ConfigScaling, TinyFootprintScaleClampsToOneSet)
{
    // The 1/16384 machine: 16 KB / 16384 is below one 8-way set of 2 B
    // entries, so the global cache clamps to one set, and still builds.
    ThrowOnErrorGuard guard;
    SystemConfig cfg = defaultConfig();
    cfg.footprintScale = 16384;
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_EQ(cfg.globalRemapCacheBytes(),
              std::uint64_t{globalRemapEntryBytes} * cfg.pipm.globalCacheWays);
    EXPECT_EQ(cfg.localRemapCacheBytes(), 64u);
    cfg.llcScale = 4096;
    cfg.llcPerCore.sizeBytes = 64ull << 20;
    EXPECT_EQ(cfg.deviceDirectorySets(), 1u);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigScaling, NonPowerOfTwoScaledGeometryIsRejected)
{
    ThrowOnErrorGuard guard;
    SystemConfig cfg = defaultConfig();
    cfg.deviceDirectory.sets = 3 * 1024;        // 192 scaled sets
    EXPECT_THROW(cfg.validate(), SimError);
    cfg = defaultConfig();
    cfg.pipm.localCacheBytes = 3ull << 20;      // 12 KB: 384 sets
    EXPECT_THROW(cfg.validate(), SimError);
    cfg = defaultConfig();
    cfg.pipm.globalCacheBytes = 48 * 1024;      // 192 B: 12 sets
    EXPECT_THROW(cfg.validate(), SimError);
    cfg = defaultConfig();
    cfg.footprintScale = 384;                   // 1 MB / 384 is no pow2
    EXPECT_THROW(cfg.validate(), SimError);
}

TEST(Types, AddressHelpers)
{
    const PhysAddr pa = (5ull << pageShift) + 3 * lineBytes + 7;
    EXPECT_EQ(pageOf(pa), 5u);
    EXPECT_EQ(lineInPage(pa), 3u);
    EXPECT_EQ(pageBase(5), 5ull << pageShift);
    EXPECT_EQ(pageOfLine(lineOf(pa)), 5u);
}

} // namespace
} // namespace pipm
