/**
 * @file
 * The benchmark's workloads: each turns the benchmark seed into the
 * inputs the pipm library receives (a configuration, a workload model
 * or a generated PIPMT trace, and the runs to make), and states the
 * validity assertions that keep it exercising the layers it was chosen
 * for.
 *
 * - fig10-pr   catalog `pr` on the Table 2 machine, no faults, all 8
 *              schemes: the LLC-miss path (device directory, CXL DRAM
 *              and link timing, memory image, PIPM vote/remap) and the
 *              OS-migration epochs carry the load.
 * - handoff-rw a trace_gen `handoff` trace (write fraction 0.5) replayed
 *              through TraceFileWorkload, all 8 schemes: the cache hit
 *              path, M-forward/invalidate coherence, PIPMT decode and
 *              the scheduler/core model carry the load.
 * - faults-all `pr` under the paper suspicion schedule plus metadata
 *              faults, native and pipm, on four fault schedules: the
 *              fault domains and the tick() slow path carry the load.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/runner.hh"
#include "sim/scheme.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** One runExperiment call of a batch. */
struct Job
{
    pipm::Scheme scheme = pipm::Scheme::native;
    pipm::RunConfig run;

    /** "scheme@seed", for messages. */
    std::string tag() const;
};

/** One workload's generated inputs. */
struct BenchWorkload
{
    std::string name;
    pipm::SystemConfig cfg;
    std::unique_ptr<pipm::Workload> workload;
    /** One batch, in order: every scheme for each run seed. */
    std::vector<Job> jobs;

    /** Simulated references (warmup + measured, all cores) per job. */
    double refsPerJob() const;

    /** Index of the first job running `s`, or -1. */
    int firstJob(pipm::Scheme s) const;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

bool knownWorkload(const std::string &name);

/**
 * Build a workload's inputs from the benchmark seed. handoff-rw writes
 * its generated trace under `work_dir` and reads it back. With
 * `pair_only`, the batch keeps only the native and pipm jobs of the
 * first run seed.
 */
BenchWorkload makeWorkload(const std::string &name, std::uint64_t seed,
                           const std::string &work_dir,
                           bool pair_only = false);

/**
 * The held-out seed paired with a benchmark seed: a fixed mix of it that
 * no seed used while choosing the workloads collides with.
 */
std::uint64_t heldOutSeed(std::uint64_t seed);

/** Fault-domain counters a RunResult does not carry. */
struct FaultExtras
{
    bool known = false;              ///< read for this run at all
    std::uint64_t metaRepairs = 0;   ///< scrub repairs + journal replays
};

/**
 * Validity assertions over one batch (results parallel to jobs).
 * `extras` (parallel to results) is checked on faults-all, for the
 * runs whose counters were read.
 * @return one message per violated assertion
 */
std::vector<std::string>
checkValidity(const BenchWorkload &w,
              const std::vector<pipm::RunResult> &results,
              const std::vector<FaultExtras> &extras);

/**
 * Output checks that hold for any seed: on fig10-pr, Local-only's
 * exec_cycles is no larger than any other scheme's on the same seed.
 */
std::vector<std::string>
checkOutputs(const BenchWorkload &w,
             const std::vector<pipm::RunResult> &results);

/**
 * Native exec_cycles / pipm exec_cycles, each summed over the batch's
 * run seeds (0 when either is missing).
 */
double pipmSpeedup(const BenchWorkload &w,
                   const std::vector<pipm::RunResult> &results);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
