#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

#include "util/common.h"

namespace llmulator {
namespace obs {

namespace {

/**
 * Fixed-capacity span ring owned by the global collector (never
 * freed), written by exactly one thread. The write index is released
 * after the slot is filled so a quiescent reader sees complete events.
 */
struct TraceBuffer
{
    uint32_t tid = 0;
    SpanEvent ring[kTraceRingCapacity];
    std::atomic<uint64_t> writeIdx{0};

    void
    push(const SpanEvent& ev)
    {
        uint64_t idx = writeIdx.load(std::memory_order_relaxed);
        ring[idx % kTraceRingCapacity] = ev;
        writeIdx.store(idx + 1, std::memory_order_release);
    }
};

struct Collector
{
    std::mutex mu;
    std::vector<std::unique_ptr<TraceBuffer>> buffers;
    uint32_t nextTid = 0;
};

Collector&
collector()
{
    static Collector* c = new Collector(); // immortal: TLS destructors
                                           // may record after main()
    return *c;
}

/** Per-thread trace state: ring pointer plus the live nesting depth. */
struct TraceTls
{
    TraceBuffer* buf = nullptr;
    int32_t depth = 0;
};

thread_local TraceTls g_tls;

TraceBuffer&
threadBuffer()
{
    if (!g_tls.buf) {
        Collector& c = collector();
        std::lock_guard<std::mutex> lk(c.mu);
        c.buffers.push_back(std::make_unique<TraceBuffer>());
        c.buffers.back()->tid = ++c.nextTid;
        g_tls.buf = c.buffers.back().get();
    }
    return *g_tls.buf;
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
    TraceBuffer& buf = threadBuffer();
    SpanEvent ev;
    ev.name = name;
    ev.tid = buf.tid;
    ev.depth = g_tls.depth;
    ev.id = id;
    ev.startNs = nsSinceEpoch(start);
    ev.durNs = std::max<int64_t>(0, nsSinceEpoch(end) - ev.startNs);
    buf.push(ev);
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
    TraceBuffer& buf = threadBuffer();
    SpanEvent ev;
    ev.name = name_;
    ev.tid = buf.tid;
    ev.depth = g_tls.depth;
    ev.id = id_;
    ev.startNs = startNs_;
    ev.durNs = std::max<int64_t>(0, traceNowNs() - startNs_);
    buf.push(ev);
}

std::vector<SpanEvent>
collectSpans(uint64_t* dropped)
{
    std::vector<SpanEvent> out;
    uint64_t lost = 0;
    Collector& c = collector();
    std::lock_guard<std::mutex> lk(c.mu);
    for (const auto& buf : c.buffers) {
        uint64_t idx = buf->writeIdx.load(std::memory_order_acquire);
        uint64_t n = std::min<uint64_t>(idx, kTraceRingCapacity);
        lost += idx - n;
        uint64_t first = idx - n; // oldest surviving event
        for (uint64_t i = first; i < idx; ++i)
            out.push_back(buf->ring[i % kTraceRingCapacity]);
    }
    if (dropped)
        *dropped = lost;
    return out;
}

void
clearSpans()
{
    Collector& c = collector();
    std::lock_guard<std::mutex> lk(c.mu);
    for (auto& buf : c.buffers)
        buf->writeIdx.store(0, std::memory_order_release);
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
