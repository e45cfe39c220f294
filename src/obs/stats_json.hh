/**
 * @file
 * stats.json: the deterministic machine-readable export of one run
 * (DESIGN.md §10).
 *
 * Schema (version 2; version 1 lacked the six lease totals):
 *
 *   {
 *     "schema_version": 2,
 *     "meta": { workload, scheme, seed, warmup_refs_per_core,
 *               measure_refs_per_core, interval_accesses,
 *               config_hash, git_describe },
 *     "totals": { every runFields entry (sim/runner.hh) in table order,
 *                 then local_hit_rate and harmful_fraction },
 *     "intervals": {
 *       "counters": ["system.shared_accesses", ...],
 *       "averages": ["system.avg_shared_miss_latency", ...],
 *       "samples": [ { "start_access", "end_access", "end_cycle",
 *                      "counters": [deltas...],
 *                      "averages": [in-interval means...] }, ... ]
 *     },
 *     "trace": { "capacity", "recorded", "dropped",
 *                "events": [ { "cycle", "type", "host", "addr",
 *                              "aux" }, ... ] }      // when tracing
 *   }
 *
 * Output is byte-deterministic: fixed field order, std::to_chars number
 * formatting, no timestamps. git_describe holds sourceId(), the only
 * field that varies across builds of this repository; everything else
 * is a function of (config, scheme, workload, run lengths, seed).
 *
 * The validator checks structure AND accounting: summing a field's
 * source columns (RunField::sources) over the intervals must reproduce
 * its total exactly (the MetricsRegistry delta invariant), and when no
 * source column exists the total must be zero.
 */

#ifndef PIPM_OBS_STATS_JSON_HH
#define PIPM_OBS_STATS_JSON_HH

#include <string>
#include <vector>

#include "obs/metrics_registry.hh"
#include "obs/trace.hh"
#include "sim/runner.hh"

namespace pipm
{

/** Run metadata recorded in the "meta" section. */
struct StatsJsonMeta
{
    std::string workload;
    std::string scheme;
    std::uint64_t seed = 0;
    std::uint64_t warmupRefsPerCore = 0;
    std::uint64_t measureRefsPerCore = 0;
    std::uint64_t intervalAccesses = 0;
    std::string configHash;     ///< fnv1aHex(cfg.measurementKey())
};

/**
 * The compiled-in source id: `git describe` ("nogit" outside a
 * repository) plus '+' and a 12-hex digest of src/, taken when the
 * library was built (cmake/source_id.cmake).
 */
std::string sourceId();

/** Render the full stats.json document (ends with a newline). */
std::string renderStatsJson(const StatsJsonMeta &meta, const RunResult &r,
                            const MetricsRegistry &registry,
                            const ObsTrace *trace);

/**
 * Write `doc` to `path` atomically (temp file + rename).
 * @return whether the write succeeded (failure warns on stderr)
 */
bool writeStatsJson(const std::string &path, const std::string &doc);

/**
 * Validate a stats.json document against the schema and the accounting
 * invariants. @return one message per violation; empty when valid.
 */
std::vector<std::string> validateStatsJson(const std::string &text);

} // namespace pipm

#endif // PIPM_OBS_STATS_JSON_HH
