/**
 * @file
 * Ablation (§4.5): host-count scalability of the majority vote. The
 * paper argues the vote "continues to suppress performance-degrading
 * migrations and consistently outperforms prior designs" as hosts
 * increase; this harness compares PIPM and Memtis against Native at 2,
 * 4 and 8 hosts on a workload subset. Total compute scales with hosts
 * (4 cores each); the CXL pool and per-host DRAM follow Table 2. The
 * device directory tracks LLC lines, so it grows with the host count:
 * Table 2's directory covers exactly its 4 hosts' LLCs.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"

int
main(int argc, char **argv)
{
    pipmbench::handleHarnessArgs(argc, argv, "ablation_scalability",
        "Ablation (4.5): host-count scalability of the majority vote.");
    using namespace pipm;
    using namespace pipmbench;

    Options opts = optionsFromEnv();
    // Scale the run length down for the 8-host runs to keep the total
    // simulated work comparable.
    const unsigned host_counts[] = {2, 4, 8};
    const char *names[] = {"pr", "tc", "tpcc"};
    // Keep the directory's reach at 1x the LLC lines at every host
    // count. A 4-host directory at 8 hosts holds half of them, and its
    // capacity recalls return lines to CXL memory before the LLC
    // writebacks that would migrate them (pr: 1.02x, 1.9% local hits).
    const auto config_for = [](unsigned hosts) {
        SystemConfig cfg = defaultConfig();
        cfg.deviceDirectory.sets =
            cfg.deviceDirectory.sets / cfg.numHosts * hosts;
        cfg.numHosts = hosts;
        return cfg;
    };

    TablePrinter table("Ablation: host-count scaling (speedup over "
                       "Native at the same host count)");
    table.header({"workload", "hosts", "memtis", "pipm",
                  "pipm local hit rate"});

    // Enqueue every combination up front for the PIPM_BENCH_JOBS pool
    // (the workload objects must outlive the sweep).
    Sweep sweep(opts);
    std::vector<std::unique_ptr<Workload>> keep;
    for (const char *name : names) {
        for (unsigned hosts : host_counts) {
            const SystemConfig cfg = config_for(hosts);
            keep.push_back(workloadByName(name, cfg.footprintScale));
            const Workload &w = *keep.back();
            sweep.add(cfg, Scheme::native, w);
            sweep.add(cfg, Scheme::memtis, w);
            sweep.add(cfg, Scheme::pipmFull, w);
        }
    }
    sweep.run();

    for (const char *name : names) {
        for (unsigned hosts : host_counts) {
            const SystemConfig cfg = config_for(hosts);
            auto workload = workloadByName(name, cfg.footprintScale);
            const RunResult native =
                cachedRun(cfg, Scheme::native, *workload, opts);
            const RunResult memtis =
                cachedRun(cfg, Scheme::memtis, *workload, opts);
            const RunResult pipm =
                cachedRun(cfg, Scheme::pipmFull, *workload, opts);
            table.row({name, std::to_string(hosts),
                       TablePrinter::num(speedupOver(native, memtis), 2) +
                           "x",
                       TablePrinter::num(speedupOver(native, pipm), 2) +
                           "x",
                       TablePrinter::pct(pipm.localHitRate())});
        }
    }
    table.print(std::cout);
    std::cout << "Paper (§4.5, qualitative): the vote keeps suppressing "
                 "harmful migrations and PIPM keeps outperforming prior "
                 "designs as hosts increase.\n";
    return 0;
}
