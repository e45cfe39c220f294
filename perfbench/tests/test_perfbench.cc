/**
 * @file
 * Tests of the benchmark's own logic: the strict argument parser and the
 * counter-delta -> layer labelling of traced accesses. Exit 0 when every
 * check passes; run.py runs this before every benchmark run.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "args.hh"
#include "label.hh"
#include "traced.hh"

namespace
{

using namespace perfbench;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
}

std::string
parse(std::vector<const char *> argv, Args &out)
{
    argv.insert(argv.begin(), "perfbench");
    return parseArgs(static_cast<int>(argv.size()), argv.data(), out);
}

void
testParseU64()
{
    std::uint64_t v = 7;
    expect(parseU64("0", 10, v) && v == 0, "0 parses");
    expect(parseU64("20000", 100000, v) && v == 20000, "20000 parses");
    expect(parseU64("18446744073709551615", UINT64_MAX, v) &&
               v == UINT64_MAX,
           "UINT64_MAX parses");
    v = 7;
    expect(!parseU64("", 10, v) && v == 7, "empty rejected, out untouched");
    expect(!parseU64("2e4", UINT64_MAX, v), "2e4 rejected");
    expect(!parseU64("10s", UINT64_MAX, v), "trailing garbage rejected");
    expect(!parseU64(" 10", UINT64_MAX, v), "leading space rejected");
    expect(!parseU64("-1", UINT64_MAX, v), "sign rejected");
    expect(!parseU64("+1", UINT64_MAX, v), "plus sign rejected");
    expect(!parseU64("18446744073709551616", UINT64_MAX, v),
           "UINT64_MAX + 1 rejected");
    expect(!parseU64("99999999999999999999999", UINT64_MAX, v),
           "long overflow rejected");
    expect(!parseU64("11", 10, v), "above max rejected");
    expect(parseU64("10", 10, v) && v == 10, "max itself accepted");
}

void
testParseArgs()
{
    Args a;
    expect(parse({"--workload", "fig10-pr", "--seed", "3", "--seconds",
                  "10", "--trace", "1"},
                 a) == "" &&
               a.workload == "fig10-pr" && a.seed == 3 && a.seconds == 10 &&
               a.trace,
           "full command line parses");
    Args h;
    expect(parse({"--help"}, h) == "" && h.help, "--help accepted");
    const std::vector<std::vector<const char *>> bad = {
        {},
        {"--workload", "fig10-pr", "--seed", "3", "--seconds", "10"},
        {"--workload", "nope", "--seed", "3", "--seconds", "10", "--trace",
         "0"},
        {"--workload", "fig10-pr", "--seed", "", "--seconds", "10",
         "--trace", "0"},
        {"--workload", "fig10-pr", "--seed", "3x", "--seconds", "10",
         "--trace", "0"},
        {"--workload", "fig10-pr", "--seed", "3", "--seconds", "0",
         "--trace", "0"},
        {"--workload", "fig10-pr", "--seed", "3", "--seconds", "121",
         "--trace", "0"},
        {"--workload", "fig10-pr", "--seed", "3", "--seconds", "1e1",
         "--trace", "0"},
        {"--workload", "fig10-pr", "--seed", "3", "--seconds", "10",
         "--trace", "2"},
        {"--workload", "fig10-pr", "--seed", "3", "--seconds", "10",
         "--trace", "0", "--seed", "4"},
        {"--workload", "fig10-pr", "--seed", "3", "--seconds", "10",
         "--trace", "0", "--bogus", "1"},
        {"--workload", "fig10-pr", "--seed", "3", "--seconds", "10",
         "--trace"},
    };
    for (std::size_t i = 0; i < bad.size(); ++i) {
        Args b;
        expect(parse(bad[i], b) != "",
               "bad command line " + std::to_string(i) + " rejected");
    }
}

void
testLabel()
{
    const AccessCounters base{100, 50, 10, 30, 5, 2, 1};
    auto moved = [&](auto field) {
        AccessCounters after = base;
        field(after);
        return labelAccess(base, after);
    };
    expect(labelAccess(base, base) == Layer::privateRef,
           "nothing moved: private");
    expect(moved([](AccessCounters &c) { ++c.shared; }) == Layer::hit,
           "shared only: hit");
    expect(moved([](AccessCounters &c) {
               ++c.shared;
               ++c.misses;
               ++c.local;
           }) == Layer::local,
           "local-served miss: local");
    expect(moved([](AccessCounters &c) {
               ++c.shared;
               ++c.misses;
               ++c.cxl;
           }) == Layer::cxl,
           "CXL-served miss: cxl");
    expect(moved([](AccessCounters &c) {
               ++c.shared;
               ++c.cxl;
           }) == Layer::cxl,
           "S->M upgrade: cxl");
    expect(moved([](AccessCounters &c) {
               ++c.shared;
               ++c.misses;
           }) == Layer::cxl,
           "unclaimed miss: cxl");
    expect(moved([](AccessCounters &c) {
               ++c.shared;
               ++c.misses;
               ++c.interHost;
           }) == Layer::interHost,
           "inter-host beats cxl");
    expect(moved([](AccessCounters &c) {
               ++c.shared;
               ++c.misses;
               ++c.cxl;
               ++c.migration;
           }) == Layer::migration,
           "migration beats cxl");
    expect(moved([](AccessCounters &c) {
               ++c.shared;
               ++c.interHost;
               ++c.migration;
               ++c.fault;
           }) == Layer::fault,
           "fault is deepest");
    expect(moved([](AccessCounters &c) { ++c.fault; }) == Layer::fault,
           "private access that hit a fault: fault");
    for (unsigned i = 0; i < layerCount; ++i)
        expect(std::string(layerName(static_cast<Layer>(i))) != "?",
               "every layer is named");
}

void
testAccounting()
{
    // 550 ns of layer work, 10 clock reads of 5 ns and 20 ns of tracer
    // bookkeeping make a 620 ns loop.
    TraceTotals t;
    t.ns[static_cast<unsigned>(Cat::traceNext)] = 500.0;
    t.ns[static_cast<unsigned>(Cat::tickSlow)] = 50.0;
    t.clockReads = 10;
    t.clockNs = 5.0;
    t.tracerNs = 20.0;
    t.loopNs = 620.0;
    expect(t.attributedNs() == 550.0, "attributed sums categories");
    expect(t.tracerCostNs() == 70.0, "tracer cost = reads + bookkeeping");
    expect(t.accountingError() == 0.0, "identity holds exactly");
    t.loopNs = 700.0;
    expect(t.accountingError() < -0.11 && t.accountingError() > -0.12,
           "missing time shows as a negative error");
    TraceTotals sum;
    sum.merge(t);
    sum.merge(t);
    expect(sum.attributedNs() == 1100.0 && sum.clockReads == 20 &&
               sum.loopNs == 1400.0,
           "merge adds runs");
}

} // namespace

int
main()
{
    testParseU64();
    testParseArgs();
    testLabel();
    testAccounting();
    if (failures) {
        std::fprintf(stderr, "perfbench_tests: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("perfbench_tests: all passed\n");
    return 0;
}
