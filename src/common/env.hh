/**
 * @file
 * Environment-variable override helpers shared by the runner and the
 * bench harnesses (previously copy-pasted in both).
 *
 * A variable that is unset *or set to the empty string* yields the
 * fallback: an empty value means "not configured", never "zero". This
 * follows the PIPM_CHECK_INVARIANTS pattern established in the runner.
 * A value that is set but is not a plain decimal number is a user error
 * and fails loudly: `PIPM_BENCH_REFS=2e4` must not quietly run 2
 * references per core.
 */

#ifndef PIPM_COMMON_ENV_HH
#define PIPM_COMMON_ENV_HH

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"

namespace pipm
{

/**
 * Parse a whole string as an unsigned decimal number into `out`. False
 * (and `out` untouched) on no digits, a sign, any trailing character,
 * or a value above 2^64 - 1.
 */
inline bool
parseU64(const char *text, std::uint64_t &out)
{
    const char *end = text + std::strlen(text);
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc{} || ptr != end)
        return false;
    out = v;
    return true;
}

/** Numeric env override; unset/empty returns `fallback`, malformed
 *  values are fatal (SimError under the test hook). */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    if (const char *env = std::getenv(name)) {
        if (*env != '\0') {
            std::uint64_t v = 0;
            fatal_if(!parseU64(env, v), name, "='", env,
                     "' is not an unsigned decimal integer below 2^64");
            return v;
        }
    }
    return fallback;
}

/** String env override; unset/empty returns `fallback`. */
inline std::string
envStr(const char *name, std::string fallback)
{
    if (const char *env = std::getenv(name)) {
        if (*env != '\0')
            return env;
    }
    return fallback;
}

} // namespace pipm

#endif // PIPM_COMMON_ENV_HH
