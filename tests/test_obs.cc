/**
 * @file
 * Telemetry subsystem tests: histogram quantile exactness at bucket
 * edges, exact lock-free aggregation under concurrent writers (the
 * suite also runs under TSan and ASan/UBSan in CI), trace-span nesting,
 * the process span ring's wraparound accounting, and the
 * chrome://tracing JSON export re-parsed and validated, registry
 * rows/CSV/reset, and the disabled-mode contract — with both gates off,
 * the counter/gauge/histogram/span hot paths record nothing and
 * allocate nothing (pinned with a counting global operator new).
 *
 * Every test sets the gates it needs explicitly (setMetricsEnabled /
 * setTraceEnabled) and turns them back off, so the suite is immune to
 * LLMULATOR_METRICS / LLMULATOR_TRACE leaking in from the CI
 * environment.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

using namespace llmulator;

// ---------------------------------------------------------------------
// Counting global allocator: every (non-aligned) heap allocation in the
// process bumps g_allocs while g_countAllocs is set. Used to pin the
// "disabled telemetry allocates nothing" contract.
// ---------------------------------------------------------------------

namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<uint64_t> g_allocs{0};
} // namespace

void*
operator new(std::size_t n)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return operator new(n);
}

// The replaced operator new above is malloc-based, so free() is its
// correct pair — but the compiler only sees "free of a new pointer"
// when it inlines delete expressions into these bodies at -O2.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

namespace {

// ---------------------------------------------------------------------
// Minimal JSON reader for the export round-trip: just enough of the
// grammar for chrome://tracing output (objects, arrays, strings,
// numbers, literals). Objects keep insertion order in a pair vector.
// ---------------------------------------------------------------------

struct Json
{
    enum Type
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    };
    Type type = Null;
    bool boolean = false;
    double num = 0;
    std::string str;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj;

    const Json* find(const std::string& key) const
    {
        for (const auto& kv : obj)
            if (kv.first == key)
                return &kv.second;
        return nullptr;
    }
};

struct JsonParser
{
    const char* p;
    const char* end;
    bool ok = true;

    explicit JsonParser(const std::string& text)
        : p(text.data()), end(text.data() + text.size())
    {
    }

    void skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool consume(char c)
    {
        skipWs();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        ok = false;
        return false;
    }

    Json parseValue()
    {
        skipWs();
        Json v;
        if (p >= end) {
            ok = false;
            return v;
        }
        if (*p == '{')
            return parseObject();
        if (*p == '[')
            return parseArray();
        if (*p == '"') {
            v.type = Json::Str;
            v.str = parseString();
            return v;
        }
        if (std::strncmp(p, "true", 4) == 0 && end - p >= 4) {
            v.type = Json::Bool;
            v.boolean = true;
            p += 4;
            return v;
        }
        if (std::strncmp(p, "false", 5) == 0 && end - p >= 5) {
            v.type = Json::Bool;
            p += 5;
            return v;
        }
        if (std::strncmp(p, "null", 4) == 0 && end - p >= 4) {
            p += 4;
            return v;
        }
        char* after = nullptr;
        v.type = Json::Num;
        v.num = std::strtod(p, &after);
        if (after == p)
            ok = false;
        p = after;
        return v;
    }

    std::string parseString()
    {
        std::string s;
        if (!consume('"'))
            return s;
        while (p < end && *p != '"') {
            if (*p == '\\' && p + 1 < end)
                ++p; // the writer never emits escapes, but skip anyway
            s.push_back(*p++);
        }
        consume('"');
        return s;
    }

    Json parseObject()
    {
        Json v;
        v.type = Json::Obj;
        consume('{');
        skipWs();
        if (p < end && *p == '}') {
            ++p;
            return v;
        }
        for (;;) {
            std::string key = parseString();
            consume(':');
            v.obj.emplace_back(std::move(key), parseValue());
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            consume('}');
            return v;
        }
    }

    Json parseArray()
    {
        Json v;
        v.type = Json::Arr;
        consume('[');
        skipWs();
        if (p < end && *p == ']') {
            ++p;
            return v;
        }
        for (;;) {
            v.arr.push_back(parseValue());
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            consume(']');
            return v;
        }
    }
};

Json
parseJson(const std::string& text, bool* ok)
{
    JsonParser parser(text);
    Json root = parser.parseValue();
    parser.skipWs();
    *ok = parser.ok && parser.p == parser.end;
    return root;
}

/** RAII: force both telemetry gates to a known state, restore to off. */
struct GateGuard
{
    GateGuard(bool metrics, bool trace)
    {
        obs::setMetricsEnabled(metrics);
        obs::setTraceEnabled(trace);
    }
    ~GateGuard()
    {
        obs::setMetricsEnabled(false);
        obs::setTraceEnabled(false);
    }
};

} // namespace

// ---------------------------------------------------------------------
// Histogram quantiles
// ---------------------------------------------------------------------

TEST(HistogramQuantiles, ExactAtBucketEdges)
{
    obs::Registry reg(/*alwaysOn=*/true);
    obs::Histogram& h =
        reg.histogram("test.edges", {1.0, 2.0, 4.0, 8.0, 16.0});

    // 100 samples, every value exactly on a bucket upper bound:
    // 50 x 1, 30 x 2, 15 x 4, 4 x 8, 1 x 16.
    auto repeat = [&](double v, int n) {
        for (int i = 0; i < n; ++i)
            h.record(v);
    };
    repeat(1.0, 50);
    repeat(2.0, 30);
    repeat(4.0, 15);
    repeat(8.0, 4);
    repeat(16.0, 1);

    obs::HistogramSnapshot s = h.snapshot();
    ASSERT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.sum, 50 + 60 + 60 + 32 + 16);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 16.0);
    EXPECT_DOUBLE_EQ(s.mean(), s.sum / 100.0);

    // Nearest-rank: rank ceil(q*100) against cumulative counts
    // 50/80/95/99/100 — exact values, not approximations.
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);  // rank clamps to 1
    EXPECT_DOUBLE_EQ(s.quantile(0.50), 1.0); // rank 50, cum 50
    EXPECT_DOUBLE_EQ(s.quantile(0.51), 2.0); // rank 51 -> next bucket
    EXPECT_DOUBLE_EQ(s.quantile(0.80), 2.0); // rank 80, cum 80
    EXPECT_DOUBLE_EQ(s.quantile(0.95), 4.0); // rank 95, cum 95
    EXPECT_DOUBLE_EQ(s.quantile(0.99), 8.0); // rank 99, cum 99
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 16.0);

    // Monotone in q.
    for (double lo = 0.0; lo < 1.0; lo += 0.1)
        EXPECT_LE(s.quantile(lo), s.quantile(lo + 0.1));
}

TEST(HistogramQuantiles, OverflowBucketClampsToObservedMax)
{
    obs::Registry reg(/*alwaysOn=*/true);
    obs::Histogram& h = reg.histogram("test.overflow", {1.0, 2.0});
    h.record(0.5);
    h.record(100.0); // past the last bound: overflow bucket
    h.record(250.0);

    obs::HistogramSnapshot s = h.snapshot();
    ASSERT_EQ(s.count, 3u);
    ASSERT_EQ(s.buckets.size(), 3u); // 2 bounds + overflow
    EXPECT_EQ(s.buckets[2], 2u);
    EXPECT_DOUBLE_EQ(s.max, 250.0);
    // Quantiles never report a value above anything actually observed:
    // the overflow bucket answers with the max, and a bucket bound
    // above the max is clamped to it.
    EXPECT_DOUBLE_EQ(s.quantile(0.99), 250.0);
    obs::Histogram& h2 = reg.histogram("test.clamp", {10.0});
    h2.record(3.0);
    EXPECT_DOUBLE_EQ(h2.snapshot().quantile(0.5), 3.0);
}

TEST(HistogramQuantiles, EmptyHistogramIsAllZero)
{
    obs::Registry reg(/*alwaysOn=*/true);
    obs::HistogramSnapshot s =
        reg.histogram("test.empty", {1.0}).snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.min, 0.0);
    EXPECT_DOUBLE_EQ(s.max, 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.99), 0.0);
}

// ---------------------------------------------------------------------
// Aggregation under concurrency (run under TSan and ASan/UBSan in CI)
// ---------------------------------------------------------------------

TEST(Metric, EightConcurrentWritersAggregateExactly)
{
    obs::Registry reg(/*alwaysOn=*/true);
    obs::Counter& hits = reg.counter("test.conc.hits");
    obs::Gauge& gauge = reg.gauge("test.conc.gauge");
    obs::Histogram& h =
        reg.histogram("test.conc.hist", {1.0, 2.0, 4.0, 8.0});

    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    const double values[4] = {1.0, 2.0, 4.0, 8.0};

    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                hits.add(1);
                h.record(values[(t + i) % 4]);
                gauge.set(double(t));
            }
        });
    for (auto& th : pool)
        th.join();

    // Counters and bucket counts must be EXACT after the writers
    // quiesce: concurrent updates of one cell never drop a count.
    EXPECT_EQ(hits.total(), uint64_t(kThreads) * kIters);
    obs::HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, uint64_t(kThreads) * kIters);
    ASSERT_EQ(s.buckets.size(), 5u);
    for (int b = 0; b < 4; ++b)
        EXPECT_EQ(s.buckets[size_t(b)], uint64_t(kThreads) * kIters / 4);
    EXPECT_EQ(s.buckets[4], 0u);
    // Each value recorded exactly count/4 times; the sum of small
    // integers is exact in double arithmetic.
    EXPECT_DOUBLE_EQ(s.sum, double(kThreads) * kIters / 4 * (1 + 2 + 4 + 8));
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 8.0);
    // Gauge is last-write-wins: some thread's id survives.
    EXPECT_GE(gauge.value(), 0.0);
    EXPECT_LT(gauge.value(), double(kThreads));
}

// ---------------------------------------------------------------------
// Trace spans: nesting + chrome://tracing export round-trip
// ---------------------------------------------------------------------

TEST(TraceSpans, NestingAndChromeExportRoundTrip)
{
    GateGuard gates(/*metrics=*/false, /*trace=*/true);
    obs::clearSpans();

    const auto wallStart = std::chrono::steady_clock::now();
    {
        OBS_SPAN_ID("test.outer", 42);
        {
            OBS_SPAN("test.inner");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        { OBS_SPAN("test.inner"); }
    }
    const auto wallEnd = std::chrono::steady_clock::now();
    obs::recordSpan("test.retro", wallStart, wallEnd, 7);

    // Event-level checks on the raw collection.
    uint64_t dropped = 0;
    std::vector<obs::SpanEvent> spans = obs::collectSpans(&dropped);
    EXPECT_EQ(dropped, 0u);
    const obs::SpanEvent* outer = nullptr;
    const obs::SpanEvent* retro = nullptr;
    std::vector<const obs::SpanEvent*> inners;
    for (const obs::SpanEvent& ev : spans) {
        if (std::strcmp(ev.name, "test.outer") == 0)
            outer = &ev;
        else if (std::strcmp(ev.name, "test.inner") == 0)
            inners.push_back(&ev);
        else if (std::strcmp(ev.name, "test.retro") == 0)
            retro = &ev;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(retro, nullptr);
    ASSERT_EQ(inners.size(), 2u);
    EXPECT_EQ(outer->id, 42u);
    EXPECT_EQ(retro->id, 7u);
    EXPECT_EQ(outer->depth, 0);
    for (const obs::SpanEvent* in : inners) {
        // Children open one level deeper and nest inside the parent.
        EXPECT_EQ(in->depth, outer->depth + 1);
        EXPECT_EQ(in->tid, outer->tid);
        EXPECT_GE(in->startNs, outer->startNs);
        EXPECT_LE(in->startNs + in->durNs, outer->startNs + outer->durNs);
    }
    // The two sequential children are disjoint and sum within the
    // parent; the first slept ~2ms.
    EXPECT_GE(inners[0]->durNs + inners[1]->durNs, int64_t(2e6));
    EXPECT_LE(inners[0]->durNs + inners[1]->durNs, outer->durNs);
    // The retroactive span brackets the whole scope.
    EXPECT_LE(retro->startNs, outer->startNs);
    EXPECT_GE(retro->startNs + retro->durNs,
              outer->startNs + outer->durNs);

    // Export, re-parse, and validate the JSON itself.
    std::ostringstream os;
    obs::writeChromeTrace(os);
    bool ok = false;
    Json root = parseJson(os.str(), &ok);
    ASSERT_TRUE(ok) << os.str();
    ASSERT_EQ(root.type, Json::Obj);
    const Json* unit = root.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->str, "ms");
    const Json* events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, Json::Arr);
    ASSERT_EQ(events->arr.size(), spans.size());

    const Json* jsonOuter = nullptr;
    const Json* jsonInner = nullptr;
    for (const Json& ev : events->arr) {
        ASSERT_EQ(ev.type, Json::Obj);
        const Json* name = ev.find("name");
        const Json* ph = ev.find("ph");
        const Json* ts = ev.find("ts");
        const Json* dur = ev.find("dur");
        const Json* args = ev.find("args");
        ASSERT_NE(name, nullptr);
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(ts, nullptr);
        ASSERT_NE(dur, nullptr);
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(ph->str, "X"); // complete events only
        EXPECT_GE(dur->num, 0.0);
        EXPECT_NE(args->find("id"), nullptr);
        EXPECT_NE(args->find("depth"), nullptr);
        if (name->str == "test.outer")
            jsonOuter = &ev;
        if (name->str == "test.inner" && !jsonInner)
            jsonInner = &ev;
    }
    ASSERT_NE(jsonOuter, nullptr);
    ASSERT_NE(jsonInner, nullptr);
    EXPECT_DOUBLE_EQ(jsonOuter->find("args")->find("id")->num, 42.0);
    // Containment survives the µs conversion (writer truncates to
    // 3 decimals = ns resolution, so the inequality stays exact).
    EXPECT_GE(jsonInner->find("ts")->num, jsonOuter->find("ts")->num);
    EXPECT_LE(jsonInner->find("ts")->num + jsonInner->find("dur")->num,
              jsonOuter->find("ts")->num + jsonOuter->find("dur")->num +
                  1e-3);

    obs::clearSpans();
    EXPECT_TRUE(obs::collectSpans().empty());
}

TEST(TraceSpans, SpansFromJoinedThreadsStillExport)
{
    GateGuard gates(/*metrics=*/false, /*trace=*/true);
    obs::clearSpans();
    std::thread worker([] { OBS_SPAN("test.worker_span"); });
    worker.join();
    std::vector<obs::SpanEvent> spans = obs::collectSpans();
    bool found = false;
    for (const obs::SpanEvent& ev : spans)
        found |= std::strcmp(ev.name, "test.worker_span") == 0;
    EXPECT_TRUE(found);
    obs::clearSpans();
}

TEST(TraceSpans, TwoThreadsPastTheRingCapacityDropTheOldestOverflow)
{
    GateGuard gates(/*metrics=*/false, /*trace=*/true);
    obs::clearSpans();
    const auto t0 = std::chrono::steady_clock::now();
    constexpr uint64_t kOverflow = 100;
    // One thread fills the ring, a second records kOverflow more: the
    // ring is one per process, so the first thread's oldest spans go.
    std::thread filler([&] {
        for (uint64_t i = 0; i < obs::kTraceRingCapacity; ++i)
            obs::recordSpan("test.ring.first", t0, t0, i);
    });
    filler.join();
    std::thread overflow([&] {
        for (uint64_t i = 0; i < kOverflow; ++i)
            obs::recordSpan("test.ring.second", t0, t0, i);
    });
    overflow.join();

    uint64_t dropped = 0;
    std::vector<obs::SpanEvent> spans = obs::collectSpans(&dropped);
    EXPECT_EQ(dropped, kOverflow);
    ASSERT_EQ(spans.size(), obs::kTraceRingCapacity);
    // Oldest first: the first thread's survivors in order, then all of
    // the second thread's spans.
    const size_t survivors = obs::kTraceRingCapacity - kOverflow;
    for (size_t i = 0; i < spans.size(); ++i) {
        const bool first = i < survivors;
        ASSERT_STREQ(spans[i].name,
                     first ? "test.ring.first" : "test.ring.second")
            << "event " << i;
        ASSERT_EQ(spans[i].id, first ? kOverflow + i : i - survivors)
            << "event " << i;
        ASSERT_EQ(spans[i].tid, spans[first ? 0 : survivors].tid);
    }
    EXPECT_NE(spans.front().tid, spans.back().tid);
    obs::clearSpans();
}

// ---------------------------------------------------------------------
// Registry rows / CSV / find / reset
// ---------------------------------------------------------------------

TEST(Registry, RowsCsvFindAndReset)
{
    obs::Registry reg(/*alwaysOn=*/true);
    reg.counter("b.count").add(3);
    reg.gauge("a.gauge").set(2.5);
    reg.histogram("c.hist", {1.0, 10.0}).record(1.0);

    // Same-name lookups return the same instrument (stable addresses).
    EXPECT_EQ(&reg.counter("b.count"), &reg.counter("b.count"));
    EXPECT_EQ(reg.findCounter("b.count"), &reg.counter("b.count"));
    EXPECT_EQ(reg.findCounter("nope"), nullptr);
    EXPECT_EQ(reg.findGauge("a.gauge"), &reg.gauge("a.gauge"));
    EXPECT_EQ(reg.findHistogram("c.hist"), &reg.histogram("c.hist"));

    std::vector<obs::Registry::Row> rows = reg.rows();
    // 1 counter row + 1 gauge row + 8 histogram rows, sorted by name.
    ASSERT_EQ(rows.size(), 10u);
    EXPECT_EQ(rows[0].name, "a.gauge");
    EXPECT_EQ(rows[0].metric, "value");
    EXPECT_DOUBLE_EQ(rows[0].value, 2.5);
    EXPECT_EQ(rows[1].name, "b.count");
    EXPECT_DOUBLE_EQ(rows[1].value, 3.0);
    EXPECT_EQ(rows[2].name, "c.hist");

    // Prefix filter.
    EXPECT_EQ(reg.rows("c.").size(), 8u);
    EXPECT_EQ(reg.rows("zzz").size(), 0u);

    // reset() zeroes values but keeps every instrument registered.
    reg.reset();
    EXPECT_EQ(reg.counter("b.count").total(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("a.gauge").value(), 0.0);
    EXPECT_EQ(reg.histogram("c.hist").snapshot().count, 0u);
    EXPECT_EQ(reg.rows().size(), 10u);
}

// ---------------------------------------------------------------------
// Gating: the global registry and the disabled-mode hot-path contract
// ---------------------------------------------------------------------

TEST(Gating, GlobalRegistryFollowsMetricsGate)
{
    GateGuard gates(/*metrics=*/false, /*trace=*/false);
    obs::Counter& c = obs::registry().counter("test.gate.counter");
    uint64_t before = c.total();
    c.add(5);
    EXPECT_EQ(c.total(), before); // gate off: dropped

    obs::setMetricsEnabled(true);
    c.add(5);
    EXPECT_EQ(c.total(), before + 5);

    obs::setMetricsEnabled(false);
    c.add(5);
    EXPECT_EQ(c.total(), before + 5);

    // An always-on registry ignores the gate entirely.
    obs::Registry own(/*alwaysOn=*/true);
    obs::Counter& oc = own.counter("test.gate.own");
    oc.add(2);
    EXPECT_EQ(oc.total(), 2u);
}

TEST(Gating, DisabledPathsRecordNothingAndAllocateNothing)
{
    GateGuard gates(/*metrics=*/false, /*trace=*/false);

    // Instrument creation is the cold path and MAY allocate — do it
    // before measurement starts.
    obs::Registry reg(/*alwaysOn=*/false);
    obs::Counter& c = reg.counter("test.off.counter");
    obs::Gauge& g = reg.gauge("test.off.gauge");
    obs::Histogram& h = reg.histogram("test.off.hist", {1.0, 2.0});
    const auto t0 = std::chrono::steady_clock::now();
    const auto t1 = t0 + std::chrono::milliseconds(1);

    g_allocs.store(0, std::memory_order_relaxed);
    g_countAllocs.store(true, std::memory_order_relaxed);
    for (int i = 0; i < 10000; ++i) {
        c.add(1);
        g.set(3.5);
        h.record(1.5);
        OBS_SPAN("test.off.span");
        obs::recordSpan("test.off.retro", t0, t1, 9);
    }
    g_countAllocs.store(false, std::memory_order_relaxed);

    // The disabled hot path is one relaxed load + branch per call: no
    // heap allocation anywhere in 50k update calls...
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u);
    // ...and nothing was recorded.
    EXPECT_EQ(c.total(), 0u);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    EXPECT_EQ(h.snapshot().count, 0u);
    for (const obs::SpanEvent& ev : obs::collectSpans()) {
        EXPECT_STRNE(ev.name, "test.off.span");
        EXPECT_STRNE(ev.name, "test.off.retro");
    }
}
