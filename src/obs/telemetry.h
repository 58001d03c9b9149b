#ifndef LLMULATOR_OBS_TELEMETRY_H
#define LLMULATOR_OBS_TELEMETRY_H

/**
 * @file
 * Runtime gating for the telemetry subsystem (metrics + trace spans).
 *
 * Both halves of llm_obs are compiled in unconditionally and gated at
 * runtime — no build flavors, no ifdef'd hot paths — by two knobs:
 *
 *   LLMULATOR_METRICS  counters / gauges / histograms in the *global*
 *                      registry (obs::registry())
 *   LLMULATOR_TRACE    scoped trace spans (OBS_SPAN / recordSpan)
 *
 * Each resolves through util::envFlag on first query and can be
 * overridden programmatically at any time (setMetricsEnabled /
 * setTraceEnabled — tests and the profile_cli --trace flag use this;
 * a programmatic override always wins over the environment).
 *
 * ## Overhead contract (pinned by tests/test_obs.cc)
 *
 * When a knob is off, the corresponding hot-path calls — Counter::add,
 * Gauge::set, Histogram::record on gated registries, OBS_SPAN
 * construction/destruction — are a single relaxed atomic load plus a
 * predictable branch: no allocation, no locking, no clock reads. This
 * is what lets the instrumentation live permanently inside the serve
 * workers, the training loop, and the nn GEMM dispatch without
 * moving any benchmark when disabled.
 *
 * ## Determinism contract
 *
 * Telemetry is speed-only. It never feeds back into any computation,
 * is never hashed into model/result cache keys, and enabling or
 * disabling it cannot change a single result bit (the bit-identity
 * suites run with tracing enabled in CI to keep this honest).
 */

#include <atomic>

namespace llmulator {
namespace obs {

namespace detail {

/** Tri-state cached flag: -1 unresolved, 0 off, 1 on. */
struct GateFlag
{
    std::atomic<int> state{-1};
    const char* envName;

    /** Cold path: resolve the environment variable once. */
    bool resolve();
};

extern GateFlag g_metricsGate;
extern GateFlag g_traceGate;

inline bool
gateEnabled(GateFlag& g)
{
    int s = g.state.load(std::memory_order_relaxed);
    if (s >= 0)
        return s != 0;
    return g.resolve();
}

} // namespace detail

/** Whether global-registry metrics are recorded (LLMULATOR_METRICS). */
inline bool
metricsEnabled()
{
    return detail::gateEnabled(detail::g_metricsGate);
}

/** Whether trace spans are recorded (LLMULATOR_TRACE). */
inline bool
traceEnabled()
{
    return detail::gateEnabled(detail::g_traceGate);
}

/** Programmatic override; wins over the environment from now on. */
void setMetricsEnabled(bool on);

/** Programmatic override; wins over the environment from now on. */
void setTraceEnabled(bool on);

} // namespace obs
} // namespace llmulator

#endif // LLMULATOR_OBS_TELEMETRY_H
