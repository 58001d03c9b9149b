#ifndef LLMULATOR_UTIL_COMMON_H
#define LLMULATOR_UTIL_COMMON_H

/**
 * @file
 * Error helpers: panic() is for "this should never happen regardless of
 * what the user does" (library bugs), warn() for recoverable oddities.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace llmulator {
namespace util {

/** Print a formatted message to stderr and abort. Library-bug class errors. */
[[noreturn]] void panic(const std::string& msg);

/** Non-fatal warning to stderr. */
void warn(const std::string& msg);

} // namespace util
} // namespace llmulator

/** Assert-like check that stays on in release builds. */
#define LLM_CHECK(cond, msg)                                                  \
    do {                                                                      \
        if (!(cond)) {                                                        \
            std::ostringstream oss_;                                          \
            oss_ << "CHECK failed: " #cond " @ " << __FILE__ << ":"           \
                 << __LINE__ << " : " << msg;                                 \
            ::llmulator::util::panic(oss_.str());                             \
        }                                                                     \
    } while (0)

#endif // LLMULATOR_UTIL_COMMON_H
