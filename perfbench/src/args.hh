/**
 * @file
 * Strict command-line parsing for the benchmark driver.
 *
 * Every number must be plain decimal digits that fit the field: an empty
 * value, a sign, trailing garbage ("2e4", "10s") or an overflowing value
 * is an error, never a silently different run length.
 */

#ifndef PERFBENCH_ARGS_HH
#define PERFBENCH_ARGS_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench
{

/** Parsed command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 0;
    bool trace = false;
    /** Opaque source identity (git describe + content digest) recorded
     *  in the provenance; run.py supplies it. */
    std::string sourceId = "unknown";
    /** Directory for generated inputs and the span dump. */
    std::string workDir = ".bench_build/perfbench-work";
    bool help = false;
};

/** Largest accepted --seconds. */
constexpr std::uint64_t maxSeconds = 120;

/**
 * Parse an unsigned decimal number in [0, max].
 * @return false on empty input, any non-digit, or a value above max
 */
bool parseU64(std::string_view text, std::uint64_t max, std::uint64_t &out);

/**
 * Parse argv (argv[0] is skipped). --help sets Args::help and stops.
 * @return "" on success, else a one-line error message
 */
std::string parseArgs(int argc, const char *const *argv, Args &out);

/** The --help text. */
std::string usage();

} // namespace perfbench

#endif // PERFBENCH_ARGS_HH
