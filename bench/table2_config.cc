/**
 * @file
 * Table 2: the (scaled-down) system configuration, as configured in
 * common/config.hh, including the reproduction's additional scale knobs
 * and the effective capacities they give.
 */

#include <cstdint>
#include <iostream>
#include <string>

#include "common/config.hh"

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "table2_config",
        "Table 2: the scaled-down system configuration.");
    using namespace pipm;
    const auto size = [](std::uint64_t bytes) {
        if (bytes >= (1u << 20) && bytes % (1u << 20) == 0)
            return std::to_string(bytes >> 20) + "MB";
        if (bytes >= (1u << 10) && bytes % (1u << 10) == 0)
            return std::to_string(bytes >> 10) + "KB";
        return std::to_string(bytes) + "B";
    };
    const SystemConfig cfg = defaultConfig();
    std::cout << "== Table 2: scaled-down system configuration ==\n"
              << cfg.describe()
              << "Repro scaling     | footprint and remapping caches 1/"
              << cfg.footprintScale << ", OS-migration time 1/"
              << cfg.timeScale << ", L1 1/" << cfg.l1Scale
              << ", LLC and directory 1/" << cfg.llcScale
              << ", page-copy bytes 1/" << cfg.migrationBytesScale
              << " (see DESIGN.md)\n"
              << "Effective sizes   | L1 " << size(cfg.l1Bytes())
              << ", LLC " << size(cfg.llcBytesPerCore())
              << " per core, directory " << cfg.deviceDirectorySets()
              << "-set x " << cfg.deviceDirectory.ways << "-way x "
              << cfg.deviceDirectory.slices << " slices, remapping caches "
              << size(cfg.globalRemapCacheBytes()) << " global / "
              << size(cfg.localRemapCacheBytes()) << " local\n";
    return 0;
}
