/**
 * @file
 * The traced driver: runs one experiment through the same public calls
 * pipm::runExperiment makes (CoreTrace::next, the min-clock pick,
 * OooCore, MultiHostSystem::tick and ::access, and the
 * hostAlive/hostDownUntil/hostStalledUntil parking), timing them from
 * outside the library.
 *
 * Every loop iteration is traced: chained steady_clock reads split it
 * into spans (sched, park, trace.next, core, tick, access, runner) that
 * tile the iteration, and each access span is labelled with the deepest
 * layer it reached (label.hh). Sampling was tried and rejected: each
 * clock read also waits for the loads in flight, so a sampled iteration
 * runs slower than an untraced one and scaling it up overstated the loop
 * by up to a tenth. Each span's duration has one calibrated clock-read
 * cost removed, and the tracer's own bookkeeping is timed separately, so
 *
 *     sum of per-layer host times + tracer cost == traced loop time
 *
 * must hold within a stated bound. The RunResult must equal
 * runExperiment's exactly.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "label.hh"
#include "sim/runner.hh"

namespace pipm
{
class MultiHostSystem;
}

namespace perfbench
{

/** Host-time categories of one loop iteration. */
enum class Cat : std::uint8_t
{
    sched,      ///< min-clock pick, re-key/retire, loop bookkeeping
    park,       ///< dead/stalled-host checks and parking
    traceNext,  ///< CoreTrace::next
    core,       ///< OooCore gap, stall and load/store issue
    tickFast,   ///< tick() below the event horizon
    tickSlow,   ///< tick() at or past the event horizon
    access,     ///< MultiHostSystem::access
    runner,     ///< warmup switch, footprint sampling, invariant cadence
};

constexpr unsigned catCount = 8;

/** Span name of a category ("sim.sched", "trace.next", ...). */
const char *catName(Cat c);

/** One recorded span; times are ns since the traced loop started. */
struct Span
{
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t ref = 0;          ///< the slot's reference index
    std::uint32_t parent = noParent;
    std::uint32_t slot = 0;         ///< core slot (host * cores + core)
    std::uint8_t name = 0;          ///< Cat, or catCount for the iteration
    std::uint8_t label = 0;         ///< Layer, for access spans

    static constexpr std::uint32_t noParent = UINT32_MAX;
};

/** Spans kept in memory, bounded, written out once at the end. */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

    bool full() const { return spans_.size() >= capacity_; }
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(spans_.size());
    }
    void push(const Span &s) { spans_.push_back(s); }
    void noteDropped(std::uint64_t n) { dropped_ += n; }
    std::uint64_t dropped() const { return dropped_; }

    /** Write one tab-separated line per span. @return success */
    bool writeTsv(const std::string &path) const;

  private:
    std::size_t capacity_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

/** Host-time totals of traced runs (sums; merge() adds runs). */
struct TraceTotals
{
    double ns[catCount] = {};              ///< clock-corrected, per category
    std::uint64_t calls[catCount] = {};
    double labelNs[layerCount] = {};       ///< access time per label
    std::uint64_t labelCalls[layerCount] = {};
    std::uint64_t iterations = 0;
    std::uint64_t clockReads = 0;          ///< reads inside the loop
    double tracerNs = 0.0;                 ///< tracer bookkeeping
    double loopNs = 0.0;                   ///< traced loop wall time
    double clockNs = 0.0;                  ///< cost of one clock read

    void merge(const TraceTotals &o);

    /** Sum of the per-layer host times. */
    double attributedNs() const;

    /** Time the tracer itself added to the loop. */
    double tracerCostNs() const;

    /** (attributed + tracer cost - loop) / loop. */
    double accountingError() const;
};

/**
 * Per-layer stat counters read after a run from the layers' public stat
 * members, by metric-style name ("cache.l1_hits", "mem.cxl_row_hits",
 * ...), summed over the runs added.
 */
class LayerCounts
{
  public:
    /** Add the system's end-of-run counters. */
    void add(pipm::MultiHostSystem &system);

    void merge(const LayerCounts &o);

    /** A counter's value (0 when never recorded). */
    double get(const std::string &name) const;

  private:
    std::map<std::string, double> values_;
};

/** A traced run's outputs. */
struct TracedRun
{
    pipm::RunResult result;
    TraceTotals totals;
    LayerCounts counts;   ///< this run's counters alone
};

/** Median cost of one steady_clock read, in ns. */
double calibrateClockNs();

/**
 * Run one experiment traced. Requires the heap scheduler and no
 * telemetry export (the benchmark's RunConfigs).
 */
TracedRun runTraced(const pipm::SystemConfig &cfg, pipm::Scheme scheme,
                    const pipm::Workload &workload,
                    const pipm::RunConfig &run, double clock_ns,
                    SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
