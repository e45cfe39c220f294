/**
 * @file
 * Labelling a traced MultiHostSystem::access call with the deepest layer
 * it reached, from which public counters moved during the call.
 *
 * Depth order, shallowest first: a private reference, a shared L1/LLC
 * hit, a shared miss served by the host's own local DRAM, a miss (or
 * S->M upgrade) served by the CXL device, an inter-host access, a
 * migration step (PIPM promotion/line move/revocation or an OS page
 * move), and a fault-domain event (link replay, poison, aborted
 * migration, transaction timeout, fencing, metadata repair).
 */

#ifndef PERFBENCH_LABEL_HH
#define PERFBENCH_LABEL_HH

#include <cstdint>

namespace pipm
{
class MultiHostSystem;
}

namespace perfbench
{

enum class Layer : std::uint8_t
{
    privateRef,
    hit,
    local,
    cxl,
    interHost,
    migration,
    fault,
};

constexpr unsigned layerCount = 7;

/** Short name used in span dumps and metric names ("hit", "cxl", ...). */
const char *layerName(Layer layer);

/** The counters an access can move, summed per class. */
struct AccessCounters
{
    std::uint64_t shared = 0;      ///< shared accesses
    std::uint64_t misses = 0;      ///< shared LLC misses
    std::uint64_t local = 0;       ///< misses served by own local DRAM
    std::uint64_t cxl = 0;         ///< CXL-served misses + S->M upgrades
    std::uint64_t interHost = 0;   ///< inter-host accesses
    std::uint64_t migration = 0;   ///< promotions, line moves, page moves
    std::uint64_t fault = 0;       ///< fault-domain demand-path events
};

/** Snapshot the counters an access can move. */
AccessCounters readCounters(pipm::MultiHostSystem &system);

/** The deepest layer whose counters moved between the snapshots. */
Layer labelAccess(const AccessCounters &before, const AccessCounters &after);

} // namespace perfbench

#endif // PERFBENCH_LABEL_HH
