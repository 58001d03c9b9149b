#ifndef LLMULATOR_OBS_TRACE_H
#define LLMULATOR_OBS_TRACE_H

/**
 * @file
 * Scoped trace spans recorded into one process-wide ring buffer.
 *
 * ## Usage
 *
 *   void processBatch(...) {
 *       OBS_SPAN("serve.batch");          // whole-function span
 *       { OBS_SPAN("serve.forward"); runForward(); }
 *       ...
 *   }
 *
 * OBS_SPAN(name) opens a span that closes at scope exit; spans on one
 * thread nest naturally (a depth counter travels with the thread).
 * OBS_SPAN_ID(name, id) attaches a 64-bit correlation id (request id,
 * batch id). recordSpan() records a retroactive span from explicit
 * timestamps — serve uses it for queue-wait and request end-to-end
 * intervals whose start happened on another thread. Span names must be
 * string literals (or otherwise outlive trace collection): events
 * store the pointer, never a copy.
 *
 * ## Recording
 *
 * Gated by LLMULATOR_TRACE / setTraceEnabled (telemetry.h): when off, a
 * span is one relaxed load + branch — no clock read, no allocation.
 * When on, every completed span is appended to one process-wide ring
 * of kTraceRingCapacity events (oldest overwritten) under one mutex;
 * the ring's storage is reserved by the first recorded span, so a
 * process that never traces never pays for it, and a process that
 * traces holds one ring however many threads it runs. The thread id
 * and the nesting depth are thread-local. Spans from joined threads
 * stay in the ring and still export.
 *
 * ## Export
 *
 * collectSpans() copies the ring under its mutex, so it never sees a
 * half-written event; writeChromeTrace() emits the chrome://tracing /
 * Perfetto JSON format ("ph":"X" complete events, microsecond
 * timestamps). Collect after the traced work has quiesced (workers
 * joined / server stopped): a span still open while collecting is not
 * in the ring yet.
 */

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace llmulator {
namespace obs {

/**
 * Process span ring capacity (oldest events overwritten): 40 bytes an
 * event, ~2.5 MiB once full. A traced e2ebench run of any workload
 * records fewer events than this.
 */
constexpr size_t kTraceRingCapacity = 65536;

/** One completed span. Times are ns since the process trace epoch. */
struct SpanEvent
{
    const char* name = nullptr; //!< string literal, not owned
    uint32_t tid = 0;           //!< dense per-thread id (1-based)
    int32_t depth = 0;          //!< nesting depth at open (0 = top)
    uint64_t id = 0;            //!< correlation id, 0 = none
    int64_t startNs = 0;
    int64_t durNs = 0;
};

/** Nanoseconds since the process trace epoch (steady clock). */
int64_t traceNowNs();

/** Record a completed span from explicit steady-clock endpoints. */
void recordSpan(const char* name,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end, uint64_t id = 0);

/** RAII span; inert (one load + branch) when tracing is off. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char* name, uint64_t id = 0)
    {
        if (!traceEnabled())
            return;
        open(name, id);
    }

    ~ScopedSpan()
    {
        if (name_)
            close();
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    void open(const char* name, uint64_t id);
    void close();

    const char* name_ = nullptr; //!< non-null only when recording
    uint64_t id_ = 0;
    int64_t startNs_ = 0;
};

/**
 * Snapshot the ring, oldest event first. The count of events lost to
 * wraparound since the last clearSpans() is returned through `dropped`
 * when non-null.
 */
std::vector<SpanEvent> collectSpans(uint64_t* dropped = nullptr);

/**
 * Clear all recorded spans (the ring keeps its storage). A span open
 * across the call lands in the cleared ring when it closes.
 */
void clearSpans();

/** Write collected spans as chrome://tracing JSON. */
void writeChromeTrace(std::ostream& os);

/** writeChromeTrace() to a file; false (with a warning) on I/O error. */
bool writeChromeTraceFile(const std::string& path);

#define OBS_SPAN_CONCAT2(a, b) a##b
#define OBS_SPAN_CONCAT(a, b) OBS_SPAN_CONCAT2(a, b)

/** Scoped trace span covering the rest of the enclosing block. */
#define OBS_SPAN(name)                                                       \
    ::llmulator::obs::ScopedSpan OBS_SPAN_CONCAT(obs_span_, __LINE__)(name)

/** OBS_SPAN with a 64-bit correlation id. */
#define OBS_SPAN_ID(name, id)                                                \
    ::llmulator::obs::ScopedSpan OBS_SPAN_CONCAT(obs_span_,                  \
                                                 __LINE__)(name, id)

} // namespace obs
} // namespace llmulator

#endif // LLMULATOR_OBS_TRACE_H
