/**
 * @file
 * perfbench: times the pipm simulator on one workload from outside the
 * library and prints one JSON result as the last line of stdout.
 *
 *   --trace 0  end-to-end metrics: host refs/s inside runExperiment
 *              (median over back-to-back batches), set-up time (median
 *              of repeated set-ups), peak RSS, and the simulated PIPM
 *              speedup. Output checks: every repetition's RunResult is
 *              identical, a stats.json export validates, workload
 *              validity assertions hold, Local-only is fastest on
 *              fig10-pr, and PIPM beats native on fig10-pr for both the
 *              benchmark seed and its held-out seed.
 *   --trace 1  per-layer metrics from the traced driver (traced.hh) and
 *              the layers' stat counters; the traced RunResult must equal
 *              runExperiment's and the per-layer host times must account
 *              for the traced loop time within accountingBound.
 *
 * Runs are closed-loop and single-threaded: one experiment at a time.
 * The simulated model is unvalidated against hardware, so no error
 * figure is reported beside the simulated speedup.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "args.hh"
#include "common/logging.hh"
#include "fuzz/fuzz.hh"
#include "obs/json.hh"
#include "obs/stats_json.hh"
#include "sim/system.hh"
#include "traced.hh"
#include "workloads.hh"

extern char **environ;

namespace
{

using namespace perfbench;
using pipm::RunResult;
using pipm::Scheme;
using Clock = std::chrono::steady_clock;

/** Set-up repetitions after each batch; setup_s is the median of all. */
constexpr int setupsPerBatch = 4;
/** Largest |accounting error| of the traced run. */
constexpr double accountingBound = 0.03;
/** Spans kept for the dump. */
constexpr std::size_t spanCapacity = 1 << 16;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Peak resident set of this process in MiB (VmHWM). */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                std::string m = line.substr(colon + 1);
                m.erase(0, m.find_first_not_of(' '));
                return m;
            }
        }
    }
    return "unknown";
}

/** A number with every digit it was measured with. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Accumulates `"name": {"value": v, "unit": u}` entries. */
class MetricList
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        out_ += (out_.empty() ? "" : ", ") + pipm::jsonQuote(name) +
                ": {\"value\": " + num(value) + ", \"unit\": " +
                pipm::jsonQuote(unit) + "}";
    }
    std::string json() const { return "{" + out_ + "}"; }

  private:
    std::string out_;
};

/** Outcome bookkeeping shared by both modes. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    fail(const std::string &why)
    {
        ++failed;
        errors.push_back(why);
        std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
    }

    /** Count one check; fail it with each message in `errs`. */
    void
    check(const std::vector<std::string> &errs)
    {
        ++attempted;
        if (!errs.empty()) {
            ++failed;
            for (const std::string &e : errs) {
                errors.push_back(e);
                std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
            }
        }
    }
};

std::string
provenanceJson(const Args &args, std::uint64_t reps)
{
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
#ifdef NDEBUG
    const bool asserts = false;
#else
    const bool asserts = true;
#endif
    using pipm::jsonQuote;
    return "{\"cpu\": " + jsonQuote(cpuModel()) +
           ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"compiler\": " + jsonQuote(compiler) +
           ", \"build_type\": " + jsonQuote(PERFBENCH_BUILD_TYPE) +
           ", \"asserts\": " + (asserts ? "true" : "false") +
           ", \"source\": " + jsonQuote(args.sourceId) +
           ", \"workload\": " + jsonQuote(args.workload) +
           ", \"seed\": " + std::to_string(args.seed) +
           ", \"seconds\": " + std::to_string(args.seconds) +
           ", \"trace\": " + (args.trace ? "1" : "0") +
           ", \"repetitions\": " + std::to_string(reps) +
           ", \"jobs\": 1, \"loop\": \"closed\"}";
}

/** Build one job's machine and per-core traces as runExperiment does. */
void
buildMachine(const BenchWorkload &w, const Job &job)
{
    pipm::MultiHostSystem system(w.cfg, job.scheme, *w.workload,
                                 job.run.seed);
    for (unsigned h = 0; h < w.cfg.numHosts; ++h) {
        for (unsigned c = 0; c < w.cfg.coresPerHost; ++c) {
            const auto trace = w.workload->makeTrace(
                static_cast<pipm::HostId>(h), static_cast<pipm::CoreId>(c),
                w.cfg.coresPerHost, w.cfg.numHosts,
                job.run.seed + 7919 * (h * 64 + c));
        }
    }
}

/** Sum stats.json interval counters whose name ends with any suffix. */
std::uint64_t
sumIntervalCounters(const pipm::JsonValue &doc,
                    const std::vector<std::string> &suffixes)
{
    const pipm::JsonValue *iv = doc.find("intervals");
    const pipm::JsonValue *names = iv ? iv->find("counters") : nullptr;
    const pipm::JsonValue *samples = iv ? iv->find("samples") : nullptr;
    if (!names || !samples)
        return 0;
    std::vector<std::size_t> cols;
    for (std::size_t i = 0; i < names->arr.size(); ++i) {
        const std::string &n = names->arr[i].raw;
        for (const std::string &s : suffixes) {
            if (n.size() >= s.size() &&
                n.compare(n.size() - s.size(), s.size(), s) == 0)
                cols.push_back(i);
        }
    }
    std::uint64_t sum = 0;
    for (const pipm::JsonValue &sample : samples->arr) {
        const pipm::JsonValue *vals = sample.find("counters");
        for (std::size_t c : cols) {
            if (vals && c < vals->arr.size())
                sum += vals->arr[c].asU64();
        }
    }
    return sum;
}

/** Run one job; a throw counts as a failure and yields an empty result. */
RunResult
runJob(const BenchWorkload &w, const Job &job, Outcome &outcome)
{
    ++outcome.attempted;
    try {
        return pipm::runExperiment(w.cfg, job.scheme, *w.workload, job.run);
    } catch (const pipm::SimError &e) {
        outcome.fail(w.name + "/" + job.tag() + " threw: " + e.message);
        return RunResult{};
    }
}

struct Result
{
    std::string metrics;    ///< the final line's "metrics" object
    std::string report;     ///< extra fields for the report line
    std::uint64_t reps = 0;
};

// ---- --trace 0 ----------------------------------------------------------

Result
endToEnd(const Args &args, Outcome &outcome)
{
    // Set-up: the inputs, then the machine and core traces of the first
    // pipm job (the heaviest scheme to construct). Repeated between the
    // batches so the median samples the whole run, not one moment of it.
    std::vector<double> setup;
    auto set_up = [&] {
        const auto t0 = Clock::now();
        BenchWorkload built =
            makeWorkload(args.workload, args.seed, args.workDir);
        buildMachine(built, built.jobs[built.firstJob(Scheme::pipmFull)]);
        setup.push_back(seconds(t0, Clock::now()));
        return built;
    };
    const BenchWorkload w = set_up();

    // Measurement: whole batches back to back until the deadline, at
    // least two so repetitions can be compared.
    const auto deadline =
        Clock::now() + std::chrono::seconds(args.seconds);
    std::vector<double> rates;
    std::vector<RunResult> first;
    std::vector<std::string> prints;
    std::uint64_t reps = 0;
    while (reps < 2 || Clock::now() < deadline) {
        double busy = 0.0;
        for (std::size_t i = 0; i < w.jobs.size(); ++i) {
            const auto t0 = Clock::now();
            const RunResult r = runJob(w, w.jobs[i], outcome);
            busy += seconds(t0, Clock::now());
            const std::string fp = pipm::fuzz::fingerprintResult(r);
            if (reps == 0) {
                first.push_back(r);
                prints.push_back(fp);
            } else if (fp != prints[i]) {
                outcome.fail(w.name + "/" + w.jobs[i].tag() +
                             ": repetition " + std::to_string(reps) +
                             " RunResult differs from the first");
            }
        }
        rates.push_back(ratio(w.refsPerJob() * w.jobs.size(), busy));
        ++reps;
        for (int i = 0; i < setupsPerBatch; ++i)
            set_up();
    }
    const double rss = peakRssMiB();

    // Untimed output checks. One stats.json export, of the first pipm
    // job, must validate and reproduce the timed run.
    const int p = w.firstJob(Scheme::pipmFull);
    const std::string stats_path =
        (std::filesystem::path(args.workDir) /
         ("stats-" + w.name + "-" + std::to_string(args.seed) + ".json"))
            .string();
    std::vector<FaultExtras> extras(w.jobs.size());
    {
        Job exp = w.jobs[p];
        exp.run.statsJsonPath = stats_path;
        std::vector<std::string> errs;
        try {
            const RunResult r = pipm::runExperiment(w.cfg, exp.scheme,
                                                    *w.workload, exp.run);
            std::ifstream in(stats_path);
            std::stringstream text;
            text << in.rdbuf();
            errs = pipm::validateStatsJson(text.str());
            if (pipm::fuzz::fingerprintResult(r) != prints[p])
                errs.push_back("exported run differs from the timed run");
            // Only the exported run exposes the metadata counters.
            if (const auto doc = pipm::parseJson(text.str())) {
                extras[p].known = true;
                extras[p].metaRepairs = sumIntervalCounters(
                    *doc, {"meta_scrub_repairs", "meta_journal_replays"});
            }
        } catch (const pipm::SimError &e) {
            errs.push_back("export threw: " + e.message);
        }
        for (std::string &e : errs)
            e = w.name + " stats.json: " + e;
        outcome.check(errs);
    }
    outcome.check(checkValidity(w, first, extras));
    outcome.check(checkOutputs(w, first));

    // Held-out seed: the simulated outcome on inputs never used while
    // the workloads were chosen.
    const std::uint64_t held = heldOutSeed(args.seed);
    const BenchWorkload pair =
        makeWorkload(args.workload, held, args.workDir, true);
    std::vector<RunResult> held_results;
    for (const Job &job : pair.jobs)
        held_results.push_back(runJob(pair, job, outcome));
    const double speedup = pipmSpeedup(w, first);
    const double held_speedup = pipmSpeedup(pair, held_results);
    if (w.name == "fig10-pr") {
        std::vector<std::string> errs;
        if (!(speedup > 1.0))
            errs.push_back("fig10-pr: sim_speedup_pipm " + num(speedup) +
                           " <= 1 on seed " + std::to_string(args.seed));
        if (!(held_speedup > 1.0))
            errs.push_back("fig10-pr: sim_speedup_pipm " +
                           num(held_speedup) + " <= 1 on held-out seed " +
                           std::to_string(held));
        outcome.check(errs);
    }

    std::uint64_t lines_lost = 0;
    std::string execs;
    for (std::size_t i = 0; i < first.size(); ++i) {
        lines_lost += first[i].crashDirtyLinesLost;
        execs += (execs.empty() ? "" : ", ") +
                 pipm::jsonQuote(w.jobs[i].tag()) + ": " +
                 std::to_string(first[i].execCycles);
    }

    Result res;
    res.reps = reps;
    MetricList m;
    m.add("sim_refs_per_s", median(rates), "refs/s");
    m.add("setup_s", median(setup), "s");
    m.add("peak_rss_mb", rss, "MiB");
    m.add("sim_speedup_pipm", speedup, "x");
    res.metrics = m.json();

    std::string batch;
    for (double r : rates)
        batch += (batch.empty() ? "" : ", ") + num(r);
    const double failed_frac =
        ratio(static_cast<double>(outcome.failed),
              static_cast<double>(outcome.attempted));
    res.report = "\"sim_lines_lost\": " + std::to_string(lines_lost) +
                 ", \"failed_frac\": " + num(failed_frac) +
                 ", \"held_out_seed\": " + std::to_string(held) +
                 ", \"sim_speedup_pipm_held_out\": " + num(held_speedup) +
                 ", \"exec_cycles\": {" + execs + "}" +
                 ", \"batch_refs_per_s\": [" + batch + "]" +
                 ", \"setup_samples\": " + std::to_string(setup.size());
    return res;
}

// ---- --trace 1 ----------------------------------------------------------

Result
tracedRun(const Args &args, Outcome &outcome)
{
    const BenchWorkload w =
        makeWorkload(args.workload, args.seed, args.workDir);
    const double clock_ns = calibrateClockNs();
    SpanLog log(spanCapacity);
    TraceTotals totals;
    LayerCounts counts;
    std::vector<RunResult> first;
    std::vector<FaultExtras> extras;
    double untraced_s = 0.0;
    double traced_s = 0.0;

    const auto deadline =
        Clock::now() + std::chrono::seconds(args.seconds);
    std::uint64_t reps = 0;
    while (reps < 1 || Clock::now() < deadline) {
        for (const Job &job : w.jobs) {
            const std::string tag = w.name + "/" + job.tag();
            ++outcome.attempted;
            try {
                const auto t0 = Clock::now();
                const RunResult plain = pipm::runExperiment(
                    w.cfg, job.scheme, *w.workload, job.run);
                const auto t1 = Clock::now();
                const TracedRun tr =
                    runTraced(w.cfg, job.scheme, *w.workload, job.run,
                              clock_ns, log);
                const auto t2 = Clock::now();
                untraced_s += seconds(t0, t1);
                traced_s += seconds(t1, t2);
                totals.merge(tr.totals);
                if (pipm::fuzz::fingerprintResult(tr.result) !=
                    pipm::fuzz::fingerprintResult(plain))
                    outcome.fail(tag + ": traced RunResult differs from "
                                       "runExperiment's");
                if (reps == 0) {
                    first.push_back(tr.result);
                    extras.push_back(FaultExtras{
                        true, static_cast<std::uint64_t>(
                                  tr.counts.get("fault.meta_repairs"))});
                    // Counts are deterministic: one batch's worth.
                    counts.merge(tr.counts);
                }
            } catch (const pipm::SimError &e) {
                outcome.fail(tag + " threw: " + e.message);
                if (reps == 0) {
                    first.push_back(RunResult{});
                    extras.push_back(FaultExtras{});
                }
            }
        }
        ++reps;
    }
    outcome.check(checkValidity(w, first, extras));
    const double acct = totals.accountingError();
    {
        std::vector<std::string> errs;
        if (!(std::fabs(acct) <= accountingBound))
            errs.push_back(w.name + ": per-layer host times miss the "
                           "traced loop time by " + num(acct * 100.0) +
                           "% (bound " + num(accountingBound * 100.0) +
                           "%)");
        outcome.check(errs);
    }
    const std::string span_path =
        (std::filesystem::path(args.workDir) /
         ("spans-" + w.name + "-" + std::to_string(args.seed) + ".tsv"))
            .string();
    if (!log.writeTsv(span_path))
        outcome.fail("cannot write " + span_path);

    const double attributed = totals.attributedNs();
    auto per_call = [&](Cat c) {
        const unsigned i = static_cast<unsigned>(c);
        return ratio(totals.ns[i], static_cast<double>(totals.calls[i]));
    };
    auto per_access = [&](Layer l) {
        const unsigned i = static_cast<unsigned>(l);
        return ratio(totals.labelNs[i],
                     static_cast<double>(totals.labelCalls[i]));
    };
    auto share = [&](std::initializer_list<Cat> cats) {
        double sum = 0.0;
        for (Cat c : cats)
            sum += totals.ns[static_cast<unsigned>(c)];
        return ratio(sum, attributed);
    };
    auto hit_ratio = [&](const std::string &hits, const std::string &misses) {
        const double h = counts.get(hits);
        return ratio(h, h + counts.get(misses));
    };
    auto mean = [&](const std::string &stem) {
        return ratio(counts.get(stem + "_sum"), counts.get(stem + "_count"));
    };

    MetricList m;
    m.add("trace.next_ns", per_call(Cat::traceNext), "ns");
    m.add("trace.share", share({Cat::traceNext}), "ratio");
    m.add("sim.sched_ns", per_call(Cat::sched), "ns");
    m.add("sim.core_ns", per_call(Cat::core), "ns");
    m.add("sim.share", share({Cat::sched, Cat::park, Cat::core, Cat::runner}),
          "ratio");
    m.add("sim.tick_fast_ns", per_call(Cat::tickFast), "ns");
    m.add("sim.tick_slow_calls",
          static_cast<double>(
              totals.calls[static_cast<unsigned>(Cat::tickSlow)] / reps),
          "count");
    m.add("sim.tick_slow_s",
          totals.ns[static_cast<unsigned>(Cat::tickSlow)] / 1e9 /
              static_cast<double>(reps),
          "s");
    m.add("sim.tick_share", share({Cat::tickFast, Cat::tickSlow}), "ratio");
    m.add("access.private_ns", per_access(Layer::privateRef), "ns");
    m.add("access.hit_ns", per_access(Layer::hit), "ns");
    m.add("access.local_ns", per_access(Layer::local), "ns");
    m.add("access.cxl_ns", per_access(Layer::cxl), "ns");
    m.add("access.interhost_ns", per_access(Layer::interHost), "ns");
    m.add("access.migrate_ns", per_access(Layer::migration), "ns");
    m.add("access.fault_ns", per_access(Layer::fault), "ns");
    m.add("access.share", share({Cat::access}), "ratio");
    for (const char *name :
         {"cache.l1_hits", "cache.llc_hits", "cache.misses",
          "cache.llc_evictions", "coherence.dir_lookups",
          "coherence.dir_recalls", "sim.upgrade_misses",
          "sim.inter_host_accesses", "pipm.promotions", "pipm.revocations",
          "pipm.lines_in", "pipm.lines_back", "pipm.alloc_failures",
          "migration.os_migrations", "migration.os_demotions",
          "mem.cxl_reads", "mem.cxl_writes", "mem.local_reads",
          "cxl.link_messages", "cxl.crc_errors", "fault.crashes",
          "fault.suspicions", "fault.false_suspicions", "fault.txn_retries",
          "fault.meta_repairs", "fault.breaker_trips", "fault.lines_lost"})
        m.add(name, counts.get(name), "count");
    for (const char *name : {"sim.mgmt_stall_cycles", "fault.recovery_cycles"})
        m.add(name, counts.get(name), "cycles");
    for (const char *name : {"cxl.link_bytes", "cxl.replay_bytes"})
        m.add(name, counts.get(name), "bytes");
    m.add("pipm.local_remap_hit_ratio",
          hit_ratio("pipm.local_remap_hits", "pipm.local_remap_misses"),
          "ratio");
    m.add("pipm.global_remap_hit_ratio",
          hit_ratio("pipm.global_remap_hits", "pipm.global_remap_misses"),
          "ratio");
    m.add("migration.harmful_frac",
          ratio(counts.get("migration.harmful"),
                counts.get("migration.tracked")),
          "ratio");
    m.add("mem.cxl_row_hit_ratio",
          hit_ratio("mem.cxl_row_hits", "mem.cxl_row_misses"), "ratio");
    m.add("mem.cxl_queue_delay", mean("mem.cxl_queue_delay"), "cycles");
    m.add("cxl.link_queue_delay", mean("cxl.link_queue_delay"), "cycles");
    m.add("trace_overhead", ratio(traced_s, untraced_s), "x");
    m.add("trace.accounting_err", acct, "ratio");

    Result res;
    res.reps = reps;
    res.metrics = m.json();
    res.report = "\"traced_loop_s\": " + num(totals.loopNs / 1e9) +
                 ", \"attributed_s\": " + num(attributed / 1e9) +
                 ", \"tracer_cost_s\": " + num(totals.tracerCostNs() / 1e9) +
                 ", \"accounting_bound\": " + num(accountingBound) +
                 ", \"clock_read_ns\": " + num(clock_ns) +
                 ", \"spans\": " + pipm::jsonQuote(span_path) +
                 ", \"spans_dropped\": " + std::to_string(log.dropped());
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    const std::string err = parseArgs(argc, argv, args);
    if (args.help) {
        std::cout << usage();
        return 0;
    }
    if (!err.empty()) {
        std::fprintf(stderr, "perfbench: %s\n%s", err.c_str(),
                     usage().c_str());
        return 2;
    }
    // The library reads PIPM_* knobs from the environment; a stray one
    // would silently run a different experiment.
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "PIPM_", 5) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; the "
                         "benchmark fixes every knob itself\n",
                         *e);
            return 2;
        }
    }
    pipm::detail::throwOnError = true;
    std::filesystem::create_directories(args.workDir);

    Outcome outcome;
    Result res;
    try {
        res = args.trace ? tracedRun(args, outcome)
                         : endToEnd(args, outcome);
    } catch (const pipm::SimError &e) {
        outcome.fail("set-up threw: " + e.message);
    }
    if (outcome.attempted == 0)
        outcome.attempted = 1;
    const bool correct = outcome.failed == 0;

    std::string errors;
    for (const std::string &e : outcome.errors)
        errors += (errors.empty() ? "" : ", ") + pipm::jsonQuote(e);
    std::cout << "{\"perfbench_report\": {\"provenance\": "
              << provenanceJson(args, res.reps)
              << (res.report.empty() ? "" : ", ") << res.report
              << ", \"model_validation\": \"unvalidated: no hardware or "
                 "detailed-model reference; no error figure\""
              << ", \"errors\": [" << errors << "]}}\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << outcome.attempted
              << ", \"failed\": " << outcome.failed << ", \"metrics\": "
              << (res.metrics.empty() ? "{}" : res.metrics) << "}\n";
    return correct ? 0 : 1;
}
