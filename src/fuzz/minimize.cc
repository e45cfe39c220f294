/**
 * @file
 * Greedy fuzz-case minimization and regression-test rendering
 * (DESIGN.md §13).
 *
 * A raw failing sample is a poor bug report: it typically has several
 * fault domains armed, a large topology, and dozens of perturbed knobs,
 * most of which are irrelevant to the failure. minimizeCase() shrinks it
 * with a fixed transform list — drop fault domains one at a time, halve
 * hosts/cores/refs/footprint, reset knob groups to the test baseline —
 * accepting a candidate only when the oracle still fails on it, until no
 * transform makes progress (or the evaluation budget runs out). The
 * result renders as a ready-to-paste regression test.
 */

#include "fuzz/fuzz.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace pipm
{
namespace fuzz
{

namespace
{

/** Render a double as a C++ literal that round-trips exactly. */
std::string
lit(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    const std::string s = os.str();
    // "25000" is an int literal; keep the assignment unambiguously
    // floating so narrowing warnings stay quiet.
    return s.find_first_of(".e") == std::string::npos ? s + ".0" : s;
}

std::string
lit(bool v)
{
    return v ? "true" : "false";
}

std::string
lit(unsigned v)
{
    return std::to_string(v);
}

std::string
lit(std::uint64_t v)
{
    return std::to_string(v) + "ull";
}

std::string
lit(CrashRecoveryPolicy v)
{
    return v == CrashRecoveryPolicy::poison
               ? "pipm::CrashRecoveryPolicy::poison"
               : "pipm::CrashRecoveryPolicy::stale";
}

std::string
lit(Scheme s)
{
    switch (s) {
      case Scheme::native: return "pipm::Scheme::native";
      case Scheme::nomad: return "pipm::Scheme::nomad";
      case Scheme::memtis: return "pipm::Scheme::memtis";
      case Scheme::hemem: return "pipm::Scheme::hemem";
      case Scheme::osSkew: return "pipm::Scheme::osSkew";
      case Scheme::hwStatic: return "pipm::Scheme::hwStatic";
      case Scheme::pipmFull: return "pipm::Scheme::pipmFull";
      case Scheme::localOnly: return "pipm::Scheme::localOnly";
      case Scheme::pipmNaive: return "pipm::Scheme::pipmNaive";
    }
    return "pipm::Scheme::pipmFull";
}

std::string
lit(const std::string &s)
{
    return '"' + s + '"';
}

/**
 * Visit every FuzzCase field as (path, value, default-value). The one
 * field walk feeds both the exact-equality signature the minimizer
 * uses and the C++ reconstruction renderCaseCode() emits, so the two
 * can never disagree about which fields exist.
 */
template <typename F>
void
forEachField(const FuzzCase &c, F &&f)
{
    const FuzzCase d;   // default-constructed baseline
    const SystemConfig &a = c.cfg;
    const SystemConfig &b = d.cfg;
#define PIPM_FIELD(path) f("cfg." #path, a.path, b.path)
    PIPM_FIELD(numHosts);
    PIPM_FIELD(coresPerHost);
    PIPM_FIELD(core.width);
    PIPM_FIELD(core.robEntries);
    PIPM_FIELD(core.loadQueue);
    PIPM_FIELD(core.storeQueue);
    PIPM_FIELD(core.mshrs);
    PIPM_FIELD(core.mshrLatencyThreshold);
    PIPM_FIELD(l1.sizeBytes);
    PIPM_FIELD(l1.ways);
    PIPM_FIELD(l1.roundTrip);
    PIPM_FIELD(llcPerCore.sizeBytes);
    PIPM_FIELD(llcPerCore.ways);
    PIPM_FIELD(llcPerCore.roundTrip);
    PIPM_FIELD(localDram.tRCns);
    PIPM_FIELD(localDram.tRCDns);
    PIPM_FIELD(localDram.tCLns);
    PIPM_FIELD(localDram.tRPns);
    PIPM_FIELD(localDram.channels);
    PIPM_FIELD(localDram.banksPerChannel);
    PIPM_FIELD(localDram.rowBytes);
    PIPM_FIELD(localDram.bytesPerCycle);
    PIPM_FIELD(localDram.controllerNs);
    PIPM_FIELD(cxlDram.tRCns);
    PIPM_FIELD(cxlDram.tRCDns);
    PIPM_FIELD(cxlDram.tCLns);
    PIPM_FIELD(cxlDram.tRPns);
    PIPM_FIELD(cxlDram.channels);
    PIPM_FIELD(cxlDram.banksPerChannel);
    PIPM_FIELD(cxlDram.rowBytes);
    PIPM_FIELD(cxlDram.bytesPerCycle);
    PIPM_FIELD(cxlDram.controllerNs);
    PIPM_FIELD(link.latencyNs);
    PIPM_FIELD(link.bytesPerNs);
    PIPM_FIELD(link.hasSwitch);
    PIPM_FIELD(link.switchNs);
    PIPM_FIELD(link.switchBytesPerNs);
    PIPM_FIELD(deviceDirectory.sets);
    PIPM_FIELD(deviceDirectory.ways);
    PIPM_FIELD(deviceDirectory.slices);
    PIPM_FIELD(deviceDirectory.roundTrip);
    PIPM_FIELD(localDirectory.roundTrip);
    PIPM_FIELD(pipm.globalCacheBytes);
    PIPM_FIELD(pipm.globalCacheWays);
    PIPM_FIELD(pipm.globalCacheRoundTrip);
    PIPM_FIELD(pipm.localCacheBytes);
    PIPM_FIELD(pipm.localCacheWays);
    PIPM_FIELD(pipm.localCacheRoundTrip);
    PIPM_FIELD(pipm.migrationThreshold);
    PIPM_FIELD(pipm.globalCounterBits);
    PIPM_FIELD(pipm.localCounterBits);
    PIPM_FIELD(pipm.tableLevels);
    PIPM_FIELD(pipm.infiniteLocalCache);
    PIPM_FIELD(pipm.infiniteGlobalCache);
    PIPM_FIELD(osMigration.intervalMs);
    PIPM_FIELD(osMigration.perPageInitiatorUs);
    PIPM_FIELD(osMigration.perPageOtherUs);
    PIPM_FIELD(osMigration.maxPagesPerEpoch);
    PIPM_FIELD(osMigration.hotThreshold);
    PIPM_FIELD(tlb.enabled);
    PIPM_FIELD(tlb.entries);
    PIPM_FIELD(tlb.ways);
    PIPM_FIELD(tlb.hitCycles);
    PIPM_FIELD(tlb.walkCycles);
    PIPM_FIELD(fault.enabled);
    PIPM_FIELD(fault.seed);
    PIPM_FIELD(fault.linkErrorRate);
    PIPM_FIELD(fault.retrainIntervalNs);
    PIPM_FIELD(fault.retrainWindowNs);
    PIPM_FIELD(fault.poisonRate);
    PIPM_FIELD(fault.persistentPoisonFrac);
    PIPM_FIELD(fault.migrationAbortRate);
    PIPM_FIELD(fault.crashMeanIntervalNs);
    PIPM_FIELD(fault.crashRejoinNs);
    PIPM_FIELD(fault.crashMaxEvents);
    PIPM_FIELD(fault.crashRecovery);
    PIPM_FIELD(fault.leaseNs);
    PIPM_FIELD(fault.heartbeatIntervalNs);
    PIPM_FIELD(fault.txnTimeoutNs);
    PIPM_FIELD(fault.txnRetryLimit);
    PIPM_FIELD(fault.txnBackoffBaseNs);
    PIPM_FIELD(fault.txnBackoffMaxExp);
    PIPM_FIELD(fault.readmitDelayNs);
    PIPM_FIELD(fault.stallMeanIntervalNs);
    PIPM_FIELD(fault.stallWindowNs);
    PIPM_FIELD(fault.stallMaxEvents);
    PIPM_FIELD(fault.metaCorruptMeanIntervalNs);
    PIPM_FIELD(fault.metaCorruptMaxEvents);
    PIPM_FIELD(fault.metaShadowHitFrac);
    PIPM_FIELD(fault.metaJournalPages);
    PIPM_FIELD(fault.metaScrubIntervalNs);
    PIPM_FIELD(fault.metaScrubBudget);
    PIPM_FIELD(fault.metaBreakerThreshold);
    PIPM_FIELD(fault.metaBreakerWindowNs);
    PIPM_FIELD(fault.metaBreakerCooldownNs);
    PIPM_FIELD(fault.metaBreakerMaxExp);
    PIPM_FIELD(fault.metaBreakerGroupPages);
    PIPM_FIELD(fault.backoffWindow);
    PIPM_FIELD(fault.backoffThreshold);
    PIPM_FIELD(fault.backoffBaseNs);
    PIPM_FIELD(fault.backoffMaxExp);
    PIPM_FIELD(localBytesPerHostFull);
    PIPM_FIELD(cxlPoolBytesFull);
    PIPM_FIELD(footprintScale);
    PIPM_FIELD(timeScale);
    PIPM_FIELD(l1Scale);
    PIPM_FIELD(llcScale);
    PIPM_FIELD(migrationBytesScale);
#undef PIPM_FIELD
    f("scheme", c.scheme, d.scheme);
    f("workload", c.workload, d.workload);
    f("runSeed", c.runSeed, d.runSeed);
    f("warmupRefs", c.warmupRefs, d.warmupRefs);
    f("measureRefs", c.measureRefs, d.measureRefs);
    f("hotLinesPerPage", c.hotLinesPerPage, d.hotLinesPerPage);
    f("seqRunLines", c.seqRunLines, d.seqRunLines);
}

/** Exact serialization of every field (the minimizer's equality key;
 *  caseKey() is too coarse — it only covers measurement-relevant
 *  fields). */
std::string
caseSignature(const FuzzCase &c)
{
    std::ostringstream os;
    forEachField(c, [&os](const char *path, const auto &v, const auto &) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                     CrashRecoveryPolicy>)
            os << path << '=' << static_cast<unsigned>(v) << ';';
        else if constexpr (std::is_same_v<std::decay_t<decltype(v)>, Scheme>)
            os << path << '=' << toString(v) << ';';
        else if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>)
        {
            os.precision(17);
            os << path << '=' << v << ';';
        } else {
            os << path << '=' << v << ';';
        }
    });
    return os.str();
}

/** The shrink transforms, roughly in decreasing expected payoff. Each
 *  returns a candidate derived from the current best; the caller
 *  repairs, validates and re-runs the oracle before accepting. */
std::vector<std::pair<const char *, FuzzCase (*)(const FuzzCase &)>>
transforms()
{
    using T = FuzzCase (*)(const FuzzCase &);
    return {
        {"drop-all-faults", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.fault = FaultConfig{};
             return n;
         })},
        {"drop-link-domain", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.fault.linkErrorRate = 0.0;
             n.cfg.fault.retrainIntervalNs = 0.0;
             n.cfg.fault.poisonRate = 0.0;
             n.cfg.fault.migrationAbortRate = 0.0;
             return n;
         })},
        {"drop-crash-domain", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.fault.crashMeanIntervalNs = 0.0;
             return n;
         })},
        {"drop-lease-domain", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.fault.leaseNs = 0.0;
             n.cfg.fault.stallMeanIntervalNs = 0.0;
             return n;
         })},
        {"drop-stalls", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.fault.stallMeanIntervalNs = 0.0;
             return n;
         })},
        {"drop-meta-domain", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.fault.metaCorruptMeanIntervalNs = 0.0;
             return n;
         })},
        {"halve-hosts", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.numHosts = std::max(1u, n.cfg.numHosts / 2);
             return n;
         })},
        {"single-core", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.coresPerHost = 1;
             return n;
         })},
        {"halve-refs", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.measureRefs = std::max<std::uint64_t>(250, n.measureRefs / 2);
             return n;
         })},
        {"no-warmup", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.warmupRefs = 0;
             return n;
         })},
        {"halve-footprint", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.footprintScale *= 2;
             return n;
         })},
        {"baseline-scheme", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.scheme = Scheme::pipmFull;
             return n;
         })},
        {"baseline-workload", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.workload = "ycsb";
             return n;
         })},
        {"baseline-lines", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.hotLinesPerPage = 0;
             n.seqRunLines = 0;
             return n;
         })},
        {"baseline-core", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.core = CoreConfig{};
             return n;
         })},
        {"baseline-caches", static_cast<T>([](const FuzzCase &c) {
             const FuzzCase d = defaultCase();
             FuzzCase n = c;
             n.cfg.l1 = d.cfg.l1;
             n.cfg.llcPerCore = d.cfg.llcPerCore;
             n.cfg.l1Scale = d.cfg.l1Scale;
             n.cfg.llcScale = d.cfg.llcScale;
             return n;
         })},
        {"baseline-memory", static_cast<T>([](const FuzzCase &c) {
             const FuzzCase d = defaultCase();
             FuzzCase n = c;
             n.cfg.localDram = d.cfg.localDram;
             n.cfg.cxlDram = d.cfg.cxlDram;
             n.cfg.link = d.cfg.link;
             n.cfg.localBytesPerHostFull = d.cfg.localBytesPerHostFull;
             n.cfg.cxlPoolBytesFull = d.cfg.cxlPoolBytesFull;
             return n;
         })},
        {"baseline-pipm", static_cast<T>([](const FuzzCase &c) {
             const FuzzCase d = defaultCase();
             FuzzCase n = c;
             n.cfg.pipm = d.cfg.pipm;
             n.cfg.deviceDirectory = d.cfg.deviceDirectory;
             n.cfg.localDirectory = d.cfg.localDirectory;
             return n;
         })},
        {"baseline-os", static_cast<T>([](const FuzzCase &c) {
             const FuzzCase d = defaultCase();
             FuzzCase n = c;
             n.cfg.osMigration = d.cfg.osMigration;
             n.cfg.timeScale = d.cfg.timeScale;
             n.cfg.migrationBytesScale = d.cfg.migrationBytesScale;
             return n;
         })},
        {"tlb-off", static_cast<T>([](const FuzzCase &c) {
             FuzzCase n = c;
             n.cfg.tlb = TlbModelConfig{};
             return n;
         })},
    };
}

} // namespace

MinimizedCase
minimizeCase(const FuzzCase &failing, const Oracle &oracle,
             unsigned max_evals)
{
    MinimizedCase out;
    out.best = failing;
    out.failure = oracle.check(failing);
    ++out.evals;
    if (out.failure.ok)    // not actually failing: nothing to shrink
        return out;

    const auto ts = transforms();
    bool improved = true;
    while (improved && out.evals < max_evals) {
        improved = false;
        for (const auto &[name, t] : ts) {
            if (out.evals >= max_evals)
                break;
            FuzzCase cand = t(out.best);
            repairCase(cand);
            if (caseSignature(cand) == caseSignature(out.best))
                continue;   // transform was a no-op here
            if (!caseValid(cand))
                continue;
            const OracleResult res = oracle.check(cand);
            ++out.evals;
            if (!res.ok) {
                out.best = std::move(cand);
                out.failure = res;
                ++out.shrinks;
                improved = true;
            }
        }
    }
    return out;
}

std::string
renderCaseCode(const FuzzCase &c, const std::string &var)
{
    std::ostringstream os;
    os << "    pipm::fuzz::FuzzCase " << var << " = "
       << "pipm::fuzz::defaultCase();\n";
    // defaultCase() starts from testConfig(), not the default-constructed
    // baseline forEachField() diffs against, so emit every field that
    // differs from *either* — a few redundant assignments beat a wrong
    // reconstruction.
    const FuzzCase base = defaultCase();
    std::ostringstream body;
    forEachField(c, [&](const char *path, const auto &v, const auto &) {
        body << "    " << var << "." << path << " = " << lit(v) << ";\n";
    });
    // Emit only lines whose field differs from the defaultCase() value:
    // render base the same way and drop identical lines.
    std::ostringstream base_body;
    forEachField(base,
                 [&](const char *path, const auto &v, const auto &) {
                     base_body << "    " << var << "." << path << " = "
                               << lit(v) << ";\n";
                 });
    std::istringstream want(body.str());
    std::istringstream have(base_body.str());
    std::string wline;
    std::string hline;
    while (std::getline(want, wline) && std::getline(have, hline)) {
        if (wline != hline)
            os << wline << '\n';
    }
    return os.str();
}

std::string
renderRegressionTest(const FuzzCase &c, const std::string &oracle_name,
                     std::uint64_t sample_seed)
{
    std::ostringstream os;
    std::string camel = oracle_name;
    if (!camel.empty())
        camel[0] = static_cast<char>(std::toupper(camel[0]));
    os << "// Minimized reproducer: fuzz seed " << sample_seed
       << ", oracle \"" << oracle_name << "\".\n"
       << "TEST(FuzzRegressions, " << camel << "Seed" << sample_seed
       << ")\n{\n"
       << renderCaseCode(c, "c")
       << "    pipm::fuzz::repairCase(c);\n"
       << "    ASSERT_TRUE(pipm::fuzz::caseValid(c));\n"
       << "    const pipm::fuzz::OracleResult r =\n"
       << "        pipm::fuzz::coreOracle(\"" << oracle_name
       << "\").check(c);\n"
       << "    EXPECT_TRUE(r.ok) << r.detail;\n"
       << "}\n";
    return os.str();
}

} // namespace fuzz
} // namespace pipm
