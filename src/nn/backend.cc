#include "nn/backend.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "nn/kernels.h"
#include "util/common.h"
#include "util/env.h"

namespace llmulator {
namespace nn {

namespace {

const Backend kScalar = {
    "scalar",
    kernels::scalar::gemmAccum,
    kernels::scalar::gemmAccumBt,
    kernels::scalar::gemmAccumAt,
    kernels::scalar::softmaxRows,
    kernels::scalar::attentionRows,
    kernels::scalar::layerNormRows,
    kernels::scalar::geluForward,
    kernels::scalar::addElem,
    kernels::scalar::subElem,
    kernels::scalar::mulElem,
    kernels::scalar::axpy,
    kernels::scalar::scaleElem,
};

const Backend kVector = {
    "vector",
    kernels::vec::gemmAccum,
    kernels::vec::gemmAccumBt,
    kernels::vec::gemmAccumAt,
    kernels::vec::softmaxRows,
    kernels::vec::attentionRows,
    kernels::vec::layerNormRows,
    kernels::vec::geluForward,
    kernels::vec::addElem,
    kernels::vec::subElem,
    kernels::vec::mulElem,
    kernels::vec::axpy,
    kernels::vec::scaleElem,
};

/**
 * Active backend. Relaxed ordering suffices: the tables are immutable
 * constants with static storage, and readers only ever need *some*
 * registered backend — all of which are bit-identical by contract.
 */
std::atomic<const Backend*> g_active{nullptr};

std::once_flag g_env_once;

/**
 * The one name-to-backend mapping, shared by the env knob and
 * setBackendByName: ""/"auto"/"vector" -> vector, "scalar" -> scalar,
 * anything else -> nullptr.
 */
const Backend*
resolveByName(const std::string& name)
{
    if (name.empty() || name == "auto" || name == "vector")
        return &kVector;
    if (name == "scalar")
        return &kScalar;
    return nullptr;
}

/** Resolve $LLMULATOR_NN_BACKEND once, before the first dispatch. */
void
initFromEnv()
{
    std::string name = util::envString("LLMULATOR_NN_BACKEND");
    const Backend* chosen = resolveByName(name);
    LLM_CHECK(chosen, "LLMULATOR_NN_BACKEND must be scalar, vector, or "
                      "auto (got '" << name << "')");
    // Only adopt the env choice if no setBackend() call raced ahead of
    // the first backend() dispatch.
    const Backend* expected = nullptr;
    g_active.compare_exchange_strong(expected, chosen);
}

} // namespace

const Backend&
scalarBackend()
{
    return kScalar;
}

const Backend&
vectorBackend()
{
    return kVector;
}

const Backend&
backend()
{
    const Backend* b = g_active.load(std::memory_order_relaxed);
    if (b)
        return *b;
    std::call_once(g_env_once, initFromEnv);
    return *g_active.load(std::memory_order_relaxed);
}

void
setBackend(const Backend& b)
{
    g_active.store(&b, std::memory_order_relaxed);
}

bool
setBackendByName(const std::string& name)
{
    const Backend* b = resolveByName(name);
    if (!b)
        return false;
    setBackend(*b);
    return true;
}

} // namespace nn
} // namespace llmulator
