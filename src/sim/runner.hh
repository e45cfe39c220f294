/**
 * @file
 * Experiment runner: executes one (workload, scheme, configuration)
 * combination and reports the measurements every paper figure consumes.
 *
 * Simulation follows the paper's methodology (§5.1.2): traces are replayed
 * through the core models after a warmup phase; measurement covers a fixed
 * reference count per core. Cores advance in global time order (the core
 * with the smallest local clock issues next), which keeps contention on
 * the shared links, directory slices and DRAM banks causally ordered.
 */

#ifndef PIPM_SIM_RUNNER_HH
#define PIPM_SIM_RUNNER_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/config.hh"
#include "sim/scheme.hh"
#include "workloads/workload.hh"

namespace pipm
{

/** How much to simulate. */
struct RunConfig
{
    std::uint64_t warmupRefsPerCore = 50'000;
    std::uint64_t measureRefsPerCore = 200'000;
    std::uint64_t seed = 42;
    /** Sample footprint ratios every this many measured accesses. */
    std::uint64_t footprintSampleEvery = 50'000;
    /**
     * Run MultiHostSystem::checkInvariants() every this many accesses
     * (0: disabled). The PIPM_CHECK_INVARIANTS environment variable, when
     * set and non-empty, overrides this value. Crash/rejoin events always
     * check regardless of this knob.
     */
    std::uint64_t checkInvariantsEvery = 0;
    /**
     * Core scheduler: "heap" (indexed min-heap, the default) or "scan"
     * (the historical linear min-clock scan, kept as the reference
     * implementation). Both produce bit-identical runs; the knob exists
     * so that claim stays testable. Empty: resolve from PIPM_SCHED,
     * defaulting to "heap". Anything else panics.
     */
    std::string scheduler;

    // ---- Observability (DESIGN.md §10) ----------------------------------

    /** Write the per-interval telemetry export here ("" disables it). */
    std::string statsJsonPath;
    /** Measured accesses per telemetry interval (0: total/8, min 1). */
    std::uint64_t obsIntervalAccesses = 0;
    /** Event-trace ring capacity in events (0: tracing off). */
    std::uint64_t obsTraceCapacity = 0;
    /** Comma-separated line addresses to watch for directory tracing. */
    std::string obsWatchLines;
    /**
     * When true, the PIPM_STATS_JSON / PIPM_OBS_INTERVAL /
     * PIPM_OBS_TRACE / PIPM_OBS_WATCH environment variables override the
     * fields above (same pattern as PIPM_CHECK_INVARIANTS). Harnesses
     * that run many experiments concurrently resolve the environment
     * once themselves and set this false, so parallel workers never race
     * on one output path.
     */
    bool obsFromEnv = true;
};

/** Everything a figure harness needs from one run. */
struct RunResult
{
    std::string workload;
    Scheme scheme = Scheme::native;

    Cycles execCycles = 0;          ///< measured wall time (max over cores)
    std::uint64_t instructions = 0; ///< retired in measurement
    double ipc = 0.0;               ///< per-core IPC

    std::uint64_t sharedAccesses = 0;
    std::uint64_t sharedLlcMisses = 0;
    std::uint64_t localServedMisses = 0;
    std::uint64_t cxlServedMisses = 0;
    std::uint64_t interHostAccesses = 0;
    std::uint64_t interHostStallCycles = 0;
    std::uint64_t mgmtStallCycles = 0;
    std::uint64_t migrationTransferBytes = 0;
    std::uint64_t osMigrations = 0;
    std::uint64_t osDemotions = 0;

    std::uint64_t pipmPromotions = 0;
    std::uint64_t pipmRevocations = 0;
    std::uint64_t pipmLinesIn = 0;
    std::uint64_t pipmLinesBack = 0;

    std::uint64_t harmfulMigrations = 0;
    std::uint64_t totalTrackedMigrations = 0;

    // Fault injection (all zero when cfg.fault.enabled is false).
    std::uint64_t linkCrcErrors = 0;     ///< corrupted+replayed messages
    std::uint64_t linkRetrainEvents = 0; ///< retraining windows hit
    std::uint64_t poisonEvents = 0;      ///< poisoned lines encountered
    std::uint64_t degradedAccesses = 0;  ///< uncacheable poisoned-line trips
    std::uint64_t migrationAborts = 0;   ///< promotions + line moves aborted
    std::uint64_t migrationsDeferred = 0;///< vote firings backed off

    // Host fail-stop crashes (DESIGN.md §8; all zero without a crash
    // schedule).
    std::uint64_t hostCrashes = 0;       ///< fail-stop events processed
    std::uint64_t hostRejoins = 0;       ///< cold rejoins processed
    std::uint64_t crashLinesReclaimed = 0; ///< dir sweeps + remap/GIM lines
    std::uint64_t crashDirtyLinesLost = 0; ///< latest value died with a host
    std::uint64_t crashRecoveryCycles = 0; ///< device-side reclamation work

    // Lease-based failure detection (DESIGN.md §11; all zero with
    // fault.leaseNs == 0 — the oracle mode).
    std::uint64_t suspicions = 0;        ///< leases expired
    std::uint64_t falseSuspicions = 0;   ///< alive hosts fenced
    std::uint64_t fencedRequests = 0;    ///< zombie requests NACKed
    std::uint64_t txnTimeouts = 0;       ///< transaction attempts timed out
    std::uint64_t txnRetries = 0;        ///< retries after a timeout
    std::uint64_t stallWindows = 0;      ///< gray-failure windows entered

    /** Fig. 13: mean per-host local footprint / total footprint. */
    double pageFootprintFrac = 0.0;
    /** Fig. 13 (PIPM-line): actually migrated lines / total footprint. */
    double lineFootprintFrac = 0.0;

    /** Fig. 11: shared LLC misses served from own local DRAM. */
    double
    localHitRate() const
    {
        return sharedLlcMisses
                   ? static_cast<double>(localServedMisses) /
                         static_cast<double>(sharedLlcMisses)
                   : 0.0;
    }

    /** Fig. 5: fraction of migrations that hurt execution time. */
    double
    harmfulFraction() const
    {
        return totalTrackedMigrations
                   ? static_cast<double>(harmfulMigrations) /
                         static_cast<double>(totalTrackedMigrations)
                   : 0.0;
    }
};

/**
 * One measurement field of RunResult. `name` is its snake_case key in
 * stats.json totals, bench-cache rows and result fingerprints; exactly
 * one of `count` and `real` points at the member. `sources` are the
 * StatGroup counters whose end-of-run values the field sums, as
 * "group.stat" columns ("*.stat" matches every column ending in
 * ".stat", e.g. each host's link); run-level values (cycles, IPC,
 * footprints, the harmful tracker's lifetime counts) have none.
 */
struct RunField
{
    const char *name;
    std::uint64_t RunResult::*count = nullptr;
    std::array<const char *, 2> sources{};
    double RunResult::*real = nullptr;

    /** Whether the counter column `column` is one of the sources. */
    bool sums(std::string_view column) const;
};

/** Every measurement field of RunResult, in export order. */
inline constexpr RunField runFields[] = {
    {"exec_cycles", &RunResult::execCycles},
    {"instructions", &RunResult::instructions},
    {"ipc", nullptr, {}, &RunResult::ipc},
    {"shared_accesses", &RunResult::sharedAccesses,
     {"system.shared_accesses"}},
    {"shared_llc_misses", &RunResult::sharedLlcMisses,
     {"system.shared_llc_misses"}},
    {"local_served_misses", &RunResult::localServedMisses,
     {"system.local_served_misses"}},
    {"cxl_served_misses", &RunResult::cxlServedMisses,
     {"system.cxl_served_misses"}},
    {"inter_host_accesses", &RunResult::interHostAccesses,
     {"system.inter_host_accesses"}},
    {"inter_host_stall_cycles", &RunResult::interHostStallCycles,
     {"system.inter_host_stall_cycles"}},
    {"mgmt_stall_cycles", &RunResult::mgmtStallCycles,
     {"system.mgmt_stall_cycles"}},
    {"migration_transfer_bytes", &RunResult::migrationTransferBytes,
     {"system.migration_transfer_bytes"}},
    {"os_migrations", &RunResult::osMigrations, {"system.os_migrations"}},
    {"os_demotions", &RunResult::osDemotions, {"system.os_demotions"}},
    {"pipm_promotions", &RunResult::pipmPromotions, {"pipm.promotions"}},
    {"pipm_revocations", &RunResult::pipmRevocations, {"pipm.revocations"}},
    {"pipm_lines_in", &RunResult::pipmLinesIn, {"pipm.lines_in"}},
    {"pipm_lines_back", &RunResult::pipmLinesBack, {"pipm.lines_back"}},
    {"harmful_migrations", &RunResult::harmfulMigrations},
    {"total_tracked_migrations", &RunResult::totalTrackedMigrations},
    {"link_crc_errors", &RunResult::linkCrcErrors, {"*.link.crc_errors"}},
    {"link_retrain_events", &RunResult::linkRetrainEvents,
     {"fault.retrain_events"}},
    {"poison_events", &RunResult::poisonEvents,
     {"fault.poison_transient", "fault.poison_persistent"}},
    {"degraded_accesses", &RunResult::degradedAccesses,
     {"fault.degraded_accesses"}},
    {"migration_aborts", &RunResult::migrationAborts,
     {"fault.promotion_aborts", "fault.line_aborts"}},
    {"migrations_deferred", &RunResult::migrationsDeferred,
     {"fault.migrations_deferred"}},
    {"host_crashes", &RunResult::hostCrashes, {"fault.host_crashes"}},
    {"host_rejoins", &RunResult::hostRejoins, {"fault.host_rejoins"}},
    {"crash_lines_reclaimed", &RunResult::crashLinesReclaimed,
     {"fault.crash_dir_swept", "fault.crash_lines_reclaimed"}},
    {"crash_dirty_lines_lost", &RunResult::crashDirtyLinesLost,
     {"fault.crash_dirty_lines_lost"}},
    {"crash_recovery_cycles", &RunResult::crashRecoveryCycles,
     {"fault.crash_recovery_cycles"}},
    {"suspicions", &RunResult::suspicions, {"fault.suspicions"}},
    {"false_suspicions", &RunResult::falseSuspicions,
     {"fault.false_suspicions"}},
    {"fenced_requests", &RunResult::fencedRequests, {"fault.fenced_requests"}},
    {"txn_timeouts", &RunResult::txnTimeouts, {"fault.txn_timeouts"}},
    {"txn_retries", &RunResult::txnRetries, {"fault.txn_retries"}},
    {"stall_windows", &RunResult::stallWindows, {"fault.stall_windows"}},
    {"page_footprint_frac", nullptr, {}, &RunResult::pageFootprintFrac},
    {"line_footprint_frac", nullptr, {}, &RunResult::lineFootprintFrac},
};

/**
 * A field's value as exact text: a decimal integer, or the shortest
 * string that round-trips the double.
 */
std::string fieldText(const RunResult &r, const RunField &f);

/** Parse fieldText()'s output into `r`; false when malformed. */
bool parseFieldText(RunResult &r, const RunField &f, std::string_view text);

/** Run one experiment. */
RunResult runExperiment(const SystemConfig &cfg, Scheme scheme,
                        const Workload &workload, const RunConfig &run);

} // namespace pipm

#endif // PIPM_SIM_RUNNER_HH
