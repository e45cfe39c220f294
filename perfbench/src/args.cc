#include "args.hh"

#include <set>

#include "workloads.hh"

namespace perfbench
{

bool
parseU64(std::string_view text, std::uint64_t max, std::uint64_t &out)
{
    if (text.empty())
        return false;
    std::uint64_t value = 0;
    for (const char ch : text) {
        if (ch < '0' || ch > '9')
            return false;
        const std::uint64_t digit = static_cast<std::uint64_t>(ch - '0');
        // value * 10 + digit > max, checked without overflowing.
        if (value > (max - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

std::string
usage()
{
    std::string names;
    for (const std::string &n : workloadNames())
        names += (names.empty() ? "" : ", ") + n;
    return "usage: perfbench --workload NAME --seed N --seconds S "
           "--trace 0|1\n"
           "                 [--source-id STR] [--work-dir DIR]\n"
           "\n"
           "Times the pipm simulator on one workload and prints one JSON\n"
           "result as the last line of stdout.\n"
           "  --workload  one of: " + names + "\n"
           "  --seed      workload seed (decimal, fits in 64 bits)\n"
           "  --seconds   measured host seconds, 1.." +
           std::to_string(maxSeconds) + "\n"
           "  --trace     0: end-to-end metrics; 1: traced run with\n"
           "              per-layer metrics\n"
           "  --source-id provenance label for the simulator sources\n"
           "  --work-dir  where generated traces and spans are written\n"
           "Exit codes: 0 ok, 1 a run or output check failed, 2 bad "
           "arguments.\n";
}

std::string
parseArgs(int argc, const char *const *argv, Args &out)
{
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            out.help = true;
            return "";
        }
        if (flag != "--workload" && flag != "--seed" &&
            flag != "--seconds" && flag != "--trace" &&
            flag != "--source-id" && flag != "--work-dir")
            return "unknown argument '" + flag + "'";
        if (!seen.insert(flag).second)
            return "duplicate argument " + flag;
        if (i + 1 >= argc)
            return flag + " needs a value";
        const std::string value = argv[++i];

        if (flag == "--workload") {
            if (!knownWorkload(value))
                return "unknown workload '" + value + "'";
            out.workload = value;
        } else if (flag == "--seed") {
            if (!parseU64(value, UINT64_MAX, out.seed))
                return "--seed must be a decimal integer that fits in 64 "
                       "bits, got '" + value + "'";
        } else if (flag == "--seconds") {
            if (!parseU64(value, maxSeconds, out.seconds) ||
                out.seconds == 0)
                return "--seconds must be a decimal integer in 1.." +
                       std::to_string(maxSeconds) + ", got '" + value + "'";
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return "--trace must be 0 or 1, got '" + value + "'";
            out.trace = value == "1";
        } else if (flag == "--source-id") {
            out.sourceId = value;
        } else {
            if (value.empty())
                return "--work-dir must not be empty";
            out.workDir = value;
        }
    }
    for (const char *required :
         {"--workload", "--seed", "--seconds", "--trace"}) {
        if (!seen.count(required))
            return std::string("missing ") + required;
    }
    return "";
}

} // namespace perfbench
