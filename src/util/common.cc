#include "util/common.h"

namespace llmulator {
namespace util {

void
panic(const std::string& msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
warn(const std::string& msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace util
} // namespace llmulator
