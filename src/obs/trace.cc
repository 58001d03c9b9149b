#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <vector>

#include "util/common.h"

namespace llmulator {
namespace obs {

namespace {

/**
 * The process span ring: kTraceRingCapacity events, oldest
 * overwritten. Its storage is reserved by the first recorded span and
 * fills as spans arrive; one mutex guards the events and the write
 * index, so a collection never sees half an event.
 */
struct Ring
{
    std::mutex mu;
    std::vector<SpanEvent> events;
    uint64_t writeIdx = 0; //!< spans pushed since the last clear

    void
    push(const SpanEvent& ev)
    {
        std::lock_guard<std::mutex> lk(mu);
        if (events.capacity() == 0)
            events.reserve(kTraceRingCapacity);
        if (events.size() < kTraceRingCapacity)
            events.push_back(ev);
        else
            events[writeIdx % kTraceRingCapacity] = ev;
        ++writeIdx;
    }
};

Ring&
ring()
{
    static Ring* r = new Ring(); // immortal: TLS destructors may record
                                 // after main()
    return *r;
}

/** Per-thread trace state: dense thread id plus the live nesting depth. */
struct TraceTls
{
    uint32_t tid = 0; //!< 0 until the thread records its first span
    int32_t depth = 0;
};

thread_local TraceTls g_tls;
std::atomic<uint32_t> g_nextTid{0};

uint32_t
threadId()
{
    if (g_tls.tid == 0)
        g_tls.tid = g_nextTid.fetch_add(1, std::memory_order_relaxed) + 1;
    return g_tls.tid;
}

std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

int64_t
nsSinceEpoch(std::chrono::steady_clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t - traceEpoch())
        .count();
}

} // namespace

int64_t
traceNowNs()
{
    return nsSinceEpoch(std::chrono::steady_clock::now());
}

void
recordSpan(const char* name, std::chrono::steady_clock::time_point start,
           std::chrono::steady_clock::time_point end, uint64_t id)
{
    if (!traceEnabled())
        return;
    SpanEvent ev;
    ev.name = name;
    ev.tid = threadId();
    ev.depth = g_tls.depth;
    ev.id = id;
    ev.startNs = nsSinceEpoch(start);
    ev.durNs = std::max<int64_t>(0, nsSinceEpoch(end) - ev.startNs);
    ring().push(ev);
}

void
ScopedSpan::open(const char* name, uint64_t id)
{
    name_ = name;
    id_ = id;
    startNs_ = traceNowNs();
    ++g_tls.depth;
}

void
ScopedSpan::close()
{
    // Depth is decremented before recording so the event carries the
    // depth the span OPENED at.
    --g_tls.depth;
    SpanEvent ev;
    ev.name = name_;
    ev.tid = threadId();
    ev.depth = g_tls.depth;
    ev.id = id_;
    ev.startNs = startNs_;
    ev.durNs = std::max<int64_t>(0, traceNowNs() - startNs_);
    ring().push(ev);
}

std::vector<SpanEvent>
collectSpans(uint64_t* dropped)
{
    Ring& r = ring();
    std::lock_guard<std::mutex> lk(r.mu);
    if (dropped)
        *dropped = r.writeIdx - r.events.size();
    // Once the ring is full, the oldest surviving event sits at the
    // write position.
    const size_t head = r.events.size() < kTraceRingCapacity
                            ? 0
                            : size_t(r.writeIdx % kTraceRingCapacity);
    const auto oldest = r.events.begin() + long(head);
    std::vector<SpanEvent> out(oldest, r.events.end());
    out.insert(out.end(), r.events.begin(), oldest);
    return out;
}

void
clearSpans()
{
    Ring& r = ring();
    std::lock_guard<std::mutex> lk(r.mu);
    r.events.clear();
    r.writeIdx = 0;
}

void
writeChromeTrace(std::ostream& os)
{
    std::vector<SpanEvent> evs = collectSpans();
    // Stable output: sort by (tid, start, deeper-first) so nested spans
    // list inside their parents.
    std::sort(evs.begin(), evs.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.startNs != b.startNs)
                      return a.startNs < b.startNs;
                  return a.depth < b.depth;
              });
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char line[256];
    for (const SpanEvent& ev : evs) {
        if (!first)
            os << ",";
        first = false;
        // chrome://tracing "complete" events; timestamps are µs.
        std::snprintf(line, sizeof line,
                      "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%llu,\"depth\":%d}}",
                      ev.name ? ev.name : "?", ev.tid,
                      double(ev.startNs) / 1e3, double(ev.durNs) / 1e3,
                      static_cast<unsigned long long>(ev.id), ev.depth);
        os << line;
    }
    os << "\n]}\n";
}

bool
writeChromeTraceFile(const std::string& path)
{
    std::ofstream out(path);
    if (!out) {
        util::warn("cannot write trace file " + path);
        return false;
    }
    writeChromeTrace(out);
    return bool(out);
}

} // namespace obs
} // namespace llmulator
