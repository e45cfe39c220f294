/**
 * @file
 * Golden-result generator: prints fuzz::fingerprintResult for pr on the
 * Table 2 machine (defaultConfig) under native, pipm and pipm-naive, each
 * line prefixed with its run. The `golden_pr_default` ctest case compares
 * this output with tests/golden/pr_default.txt, so any change to a
 * simulated result fails tier-1 and names the fields that moved.
 *
 * A change that moves the model on purpose regenerates the file:
 *
 *     ./build/tests/golden_pr > tests/golden/pr_default.txt
 *
 * and its diff of that file lists every field that moved.
 */

#include <iostream>
#include <sstream>
#include <string>

#include "common/config.hh"
#include "fuzz/fuzz.hh"
#include "sim/runner.hh"
#include "workloads/catalog.hh"

int
main()
{
    using namespace pipm;
    const SystemConfig cfg = defaultConfig();
    const auto workload = workloadByName("pr", cfg.footprintScale);

    RunConfig run;
    run.warmupRefsPerCore = 1'000;
    run.measureRefsPerCore = 4'000;
    run.seed = 42;
    run.scheduler = "heap";
    run.obsFromEnv = false;

    for (Scheme scheme : {Scheme::native, Scheme::pipmFull,
                          Scheme::pipmNaive}) {
        const std::string prefix =
            "pr/" + std::string(toString(scheme)) + ' ';
        std::istringstream lines(
            fuzz::fingerprintResult(
                runExperiment(cfg, scheme, *workload, run)));
        for (std::string line; std::getline(lines, line);)
            std::cout << prefix << line << '\n';
    }
    return 0;
}
