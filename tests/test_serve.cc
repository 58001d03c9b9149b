/**
 * @file
 * Prediction-serving runtime tests: the bounded batching queue, the
 * LRU result cache, and the PredictionServer end to end —
 * batched results bit-identical to sequential CostModel::predict(),
 * cache-hit accounting, sustained concurrent submission from many
 * client threads, clean shutdown with requests still in flight, and
 * the live-calibration contracts: RCU hot-swap coherence under
 * concurrent clients, version-keyed cache invalidation, and the
 * drift-detect -> background-calibrate -> swap loop end to end.
 *
 * All suites run an *untrained* Tiny model: weight initialization is
 * seeded, so predictions are deterministic, which is all the serving
 * layer contracts depend on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <thread>

#include "dfir/builder.h"
#include "dfir/passes.h"
#include "obs/trace.h"
#include "serve/request_queue.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "synth/generators.h"
#include "util/rng.h"

using namespace llmulator;
using namespace llmulator::dfir;

namespace {

/** A tiny vector-scale kernel parameterized by name/size knobs. */
DataflowGraph
makeGraph(const std::string& name, long bias)
{
    Operator op;
    op.name = "scale";
    op.scalarParams = {"N"};
    op.tensors = {tensor("X", {p("N")}), tensor("Y", {p("N")})};
    op.body = {forLoop("i", c(0), p("N"),
                       {assign("Y", {v("i")},
                               badd(a("X", {v("i")}), c(bias)))})};
    DataflowGraph g;
    g.name = name;
    g.ops = {op};
    g.calls = {{"scale"}};
    return g;
}

RuntimeData
makeData(long n)
{
    RuntimeData d;
    d.scalars["N"] = n;
    return d;
}

model::CostModelConfig
tinyConfig()
{
    auto cfg = model::configForScale(model::ModelScale::Tiny);
    cfg.enc.maxSeq = 128;
    return cfg;
}

/** Fresh deterministic model (seeded init, no training needed). */
std::unique_ptr<model::CostModel>
tinyModel()
{
    return std::make_unique<model::CostModel>(tinyConfig());
}

void
expectSamePrediction(const model::NumericPrediction& a,
                     const model::NumericPrediction& b)
{
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.digits, b.digits);
    ASSERT_EQ(a.digitProbs.size(), b.digitProbs.size());
    for (size_t i = 0; i < a.digitProbs.size(); ++i)
        EXPECT_DOUBLE_EQ(a.digitProbs[i], b.digitProbs[i]);
    EXPECT_DOUBLE_EQ(a.logProb, b.logProb);
}

} // namespace

TEST(BoundedQueue, BatchRespectsCapAndDrainsOnClose)
{
    serve::BoundedQueue<int> q(16);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(q.push(int(i)));
    EXPECT_EQ(q.depth(), 10u);

    std::vector<int> batch;
    ASSERT_TRUE(q.popBatch(batch, 4, std::chrono::microseconds(0)));
    EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));

    q.close();
    EXPECT_FALSE(q.push(99)); // rejected after close...
    ASSERT_TRUE(q.popBatch(batch, 100, std::chrono::microseconds(0)));
    EXPECT_EQ(batch.size(), 6u); // ...but the backlog still drains
    EXPECT_FALSE(q.popBatch(batch, 4, std::chrono::microseconds(0)));
}

TEST(BoundedQueue, PopBlocksUntilPush)
{
    serve::BoundedQueue<int> q(4);
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        q.push(7);
    });
    std::vector<int> batch;
    ASSERT_TRUE(q.popBatch(batch, 4, std::chrono::microseconds(100)));
    EXPECT_EQ(batch, std::vector<int>{7});
    producer.join();
}

TEST(BoundedQueue, TryPushRefusesWhenFullInsteadOfBlocking)
{
    serve::BoundedQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_EQ(q.depth(), 2u);
    EXPECT_FALSE(q.tryPush(3)); // full: immediate refusal, no wait

    std::vector<int> batch;
    ASSERT_TRUE(q.popBatch(batch, 1, std::chrono::microseconds(0)));
    EXPECT_TRUE(q.tryPush(4)); // slot freed
    q.close();
    EXPECT_FALSE(q.tryPush(5)); // closed: refused even with room
}

TEST(BoundedQueue, ShutdownUnblocksWaitersAndDrainsBacklog)
{
    serve::BoundedQueue<int> q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));

    // Two producers blocked in push() on the full queue, one consumer
    // blocked in popBatch() with a long timeout on a second queue that
    // stays empty: close() must wake all three.
    std::atomic<int> refusedPushes{0};
    std::thread p1([&] {
        if (!q.push(3))
            refusedPushes.fetch_add(1);
    });
    std::thread p2([&] {
        if (!q.push(4))
            refusedPushes.fetch_add(1);
    });

    serve::BoundedQueue<int> empty(2);
    std::atomic<bool> consumerDone{false};
    std::thread consumer([&] {
        std::vector<int> batch;
        EXPECT_FALSE(
            empty.popBatch(batch, 4, std::chrono::milliseconds(10'000)));
        consumerDone.store(true);
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    q.close();
    empty.close();
    p1.join();
    p2.join();
    consumer.join();
    EXPECT_EQ(refusedPushes.load(), 2); // blocked pushes return false
    EXPECT_TRUE(consumerDone.load());

    // The backlog present at close() still drains, then popBatch ends.
    std::vector<int> batch;
    ASSERT_TRUE(q.popBatch(batch, 8, std::chrono::microseconds(0)));
    EXPECT_EQ(batch, (std::vector<int>{1, 2}));
    EXPECT_FALSE(q.popBatch(batch, 8, std::chrono::microseconds(0)));
}

TEST(ResultCache, LruEvictsAndRefreshesOnGet)
{
    serve::ResultCache cache(/*capacity=*/2);
    model::NumericPrediction p1, p2, p3, out;
    p1.value = 1;
    p2.value = 2;
    p3.value = 3;
    serve::ResultKey k1{10, 0, 0}, k2{20, 0, 0}, k3{30, 0, 0};

    cache.put(k1, p1);
    cache.put(k2, p2);
    ASSERT_TRUE(cache.get(k1, out)); // refresh k1: k2 becomes LRU
    cache.put(k3, p3);               // evicts k2
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.get(k1, out));
    EXPECT_EQ(out.value, 1);
    EXPECT_FALSE(cache.get(k2, out));
    EXPECT_TRUE(cache.get(k3, out));
    EXPECT_EQ(out.value, 3);
}

TEST(ResultCache, ZeroCapacityDisables)
{
    serve::ResultCache cache(0);
    EXPECT_FALSE(cache.enabled());
    model::NumericPrediction p, out;
    p.value = 42;
    cache.put({1, 2, 3}, p);
    EXPECT_FALSE(cache.get({1, 2, 3}, out));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, RuntimeDataHashIsOrderInsensitiveAndValueSensitive)
{
    RuntimeData a, b, c;
    a.scalars["N"] = 8;
    a.scalars["M"] = 9;
    b.scalars["M"] = 9; // inserted in the opposite order
    b.scalars["N"] = 8;
    c = a;
    c.scalars["N"] = 7;
    EXPECT_EQ(serve::hashRuntimeData(a), serve::hashRuntimeData(b));
    EXPECT_NE(serve::hashRuntimeData(a), serve::hashRuntimeData(c));

    RuntimeData t = a;
    t.tensors["X"] = {1.0, 2.0};
    EXPECT_NE(serve::hashRuntimeData(a), serve::hashRuntimeData(t));
}

TEST(PredictionServer, BatchedResultsBitIdenticalToSequential)
{
    // Reference model: same config + seed => identical weights. The
    // sequential baseline, CostModel::predict, is the same autograd-free
    // full forward the server workers run, so every field must match
    // exactly, not approximately.
    auto reference = tinyModel();

    serve::ServeConfig cfg;
    cfg.workers = 4;
    cfg.batchMax = 8;
    cfg.cacheCapacity = 0; // force every request through the model
    serve::PredictionServer server(tinyModel(), cfg);

    struct Case
    {
        DataflowGraph graph;
        RuntimeData data;
        bool hasData;
        model::Metric metric;
    };
    std::vector<Case> cases;
    for (long bias : {1, 2, 3}) {
        DataflowGraph g = makeGraph("g" + std::to_string(bias), bias);
        for (int m = 0; m < model::kNumMetrics; ++m) {
            auto metric = static_cast<model::Metric>(m);
            bool dynamic = metric == model::Metric::Cycles;
            cases.push_back({g, makeData(16 + bias), dynamic, metric});
        }
    }

    std::vector<std::future<model::NumericPrediction>> futures;
    futures.reserve(cases.size());
    for (const Case& cs : cases)
        futures.push_back(server.submitAsync(
            cs.graph, cs.hasData ? &cs.data : nullptr, cs.metric));

    for (size_t i = 0; i < cases.size(); ++i) {
        const Case& cs = cases[i];
        auto ep = reference->encode(cs.graph,
                                    cs.hasData ? &cs.data : nullptr);
        auto expected = reference->predict(ep, cs.metric);
        expectSamePrediction(futures[i].get(), expected);
    }

    auto stats = server.stats();
    EXPECT_EQ(stats.submitted, cases.size());
    EXPECT_EQ(stats.completed, cases.size());
    EXPECT_EQ(stats.cacheHits, 0u);
}

TEST(PredictionServer, CacheServesRepeatsWithoutModelCalls)
{
    serve::ServeConfig cfg;
    cfg.workers = 2;
    serve::PredictionServer server(tinyModel(), cfg);

    DataflowGraph g = makeGraph("cached", 5);
    RuntimeData d = makeData(12);

    auto first = server.predict(g, &d, model::Metric::Cycles);
    auto stats1 = server.stats();
    EXPECT_EQ(stats1.modelCalls, 1u);

    for (int i = 0; i < 5; ++i) {
        auto again = server.predict(g, &d, model::Metric::Cycles);
        expectSamePrediction(again, first);
    }
    auto stats2 = server.stats();
    EXPECT_EQ(stats2.modelCalls, 1u); // repeats never touched the model
    EXPECT_EQ(stats2.cacheHits, 5u);
    EXPECT_GT(stats2.hitRate(), 0.5);

    // A different input hash is a distinct key -> new model call.
    RuntimeData d2 = makeData(13);
    server.predict(g, &d2, model::Metric::Cycles);
    EXPECT_EQ(server.stats().modelCalls, 2u);
}

// `cacheCapacity` bounds the whole cache, whatever the keys hash to: a
// server sized to exactly its distinct keys answers a second pass over
// them without one model call.
TEST(PredictionServer, CapacityEqualToTheKeyCountServesARepeatPassFromCache)
{
    constexpr uint64_t kKeys = 64;
    serve::ServeConfig cfg;
    cfg.workers = 2;
    cfg.cacheCapacity = kKeys;
    serve::PredictionServer server(tinyModel(), cfg);
    DataflowGraph g = makeGraph("capacity", 3);
    std::vector<RuntimeData> inputs;
    for (uint64_t i = 0; i < kKeys; ++i)
        inputs.push_back(makeData(long(8 + i)));

    for (const RuntimeData& d : inputs)
        server.predict(g, &d, model::Metric::Cycles);
    const uint64_t callsAfterFirstPass = server.stats().modelCalls;
    EXPECT_EQ(server.stats().cacheMisses, kKeys);
    EXPECT_EQ(server.cache().size(), kKeys);

    for (const RuntimeData& d : inputs)
        server.predict(g, &d, model::Metric::Cycles);
    EXPECT_EQ(server.stats().cacheHits, kKeys);
    EXPECT_EQ(server.stats().modelCalls, callsAfterFirstPass);
}

// Pinned canonical-key behaviour: two semantically identical programs
// (renamed values, commuted operands, injected dead code) share one
// cache entry — the second query is a hit with a bitwise-equal
// prediction.
TEST(PredictionServer, CanonicalKeysShareCacheAcrossEquivalentPrograms)
{
    DataflowGraph g = makeGraph("canon-base", 7);
    RuntimeData d = makeData(12);
    util::Rng rng(2026);
    synth::EquivalentMutant mut = synth::equivalentMutant(g, rng);
    ASSERT_NE(structuralHash(g), structuralHash(mut.graph));
    ASSERT_EQ(canonicalHash(g), canonicalHash(mut.graph));
    RuntimeData md = remapRuntimeData(d, mut.scalarRenames);

    ASSERT_TRUE(serve::makeResultKey(g, &d, model::Metric::Cycles) ==
                serve::makeResultKey(mut.graph, &md, model::Metric::Cycles));

    serve::ServeConfig cfg;
    cfg.workers = 2;
    serve::PredictionServer server(tinyModel(), cfg);
    auto first = server.predict(g, &d, model::Metric::Cycles);
    EXPECT_EQ(server.stats().modelCalls, 1u);
    auto second = server.predict(mut.graph, &md, model::Metric::Cycles);
    auto stats = server.stats();
    EXPECT_EQ(stats.modelCalls, 1u); // equivalent program never re-ran
    EXPECT_EQ(stats.cacheHits, 1u);
    expectSamePrediction(second, first);
}

TEST(PredictionServer, ManyConcurrentClientThreads)
{
    auto reference = tinyModel();

    serve::ServeConfig cfg;
    cfg.workers = 4;
    cfg.batchMax = 4;
    cfg.queueCapacity = 32; // small queue: exercise backpressure
    serve::PredictionServer server(tinyModel(), cfg);

    const int kClients = 8;
    const int kPerClient = 12;
    std::vector<DataflowGraph> graphs;
    std::vector<RuntimeData> datas;
    for (long i = 0; i < 3; ++i) {
        graphs.push_back(makeGraph("c" + std::to_string(i), i));
        datas.push_back(makeData(8 + i));
    }

    // Sequential ground truth per (graph, metric) pair.
    model::NumericPrediction expected[3][model::kNumMetrics];
    for (size_t gi = 0; gi < graphs.size(); ++gi)
        for (int m = 0; m < model::kNumMetrics; ++m) {
            auto metric = static_cast<model::Metric>(m);
            auto ep = reference->encode(
                graphs[gi],
                metric == model::Metric::Cycles ? &datas[gi] : nullptr);
            expected[gi][m] = reference->predict(ep, metric);
        }

    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kPerClient; ++i) {
                size_t gi = size_t(t + i) % graphs.size();
                int m = (t * kPerClient + i) % model::kNumMetrics;
                auto metric = static_cast<model::Metric>(m);
                auto pred = server.predict(
                    graphs[gi],
                    metric == model::Metric::Cycles ? &datas[gi] : nullptr,
                    metric);
                // Full bitwise comparison: under concurrent clients the
                // batched forward must still reproduce the sequential
                // fast path exactly, probabilities and log-prob
                // included — not just the decoded value.
                if (pred.value != expected[gi][m].value ||
                    pred.digits != expected[gi][m].digits ||
                    pred.digitProbs != expected[gi][m].digitProbs ||
                    pred.logProb != expected[gi][m].logProb)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto& c : clients)
        c.join();

    EXPECT_EQ(mismatches.load(), 0);
    auto stats = server.stats();
    EXPECT_EQ(stats.submitted, uint64_t(kClients * kPerClient));
    EXPECT_EQ(stats.completed, uint64_t(kClients * kPerClient));
    EXPECT_EQ(stats.queueDepth, 0u);
    // Each of the 12 distinct keys is computed during its first-use
    // round (blocking clients guarantee later rounds hit at submit),
    // so at least half of the 96 requests must be cache hits.
    EXPECT_GE(stats.cacheHits, uint64_t(kClients * kPerClient) / 2);
}

TEST(PredictionServer, CleanShutdownAnswersInFlightRequests)
{
    serve::ServeConfig cfg;
    cfg.workers = 2;
    cfg.cacheCapacity = 0; // keep every request on the slow path
    serve::PredictionServer server(tinyModel(), cfg);

    std::vector<std::future<model::NumericPrediction>> futures;
    std::vector<DataflowGraph> graphs;
    for (long i = 0; i < 12; ++i)
        graphs.push_back(makeGraph("s" + std::to_string(i), i));
    for (auto& g : graphs)
        futures.push_back(
            server.submitAsync(g, nullptr, model::Metric::Area));

    server.stop(); // must drain, not drop

    for (auto& f : futures) {
        auto pred = f.get(); // throws if any promise was abandoned
        EXPECT_GE(pred.value, 0);
    }
    auto stats = server.stats();
    EXPECT_EQ(stats.completed, futures.size());
    EXPECT_EQ(stats.queueDepth, 0u);
}

TEST(PredictionServer, SubmitAfterStopFailsFast)
{
    serve::PredictionServer server(tinyModel(), {});
    server.stop();
    DataflowGraph g = makeGraph("late", 1);
    auto f = server.submitAsync(g, nullptr, model::Metric::Power);
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(PredictionServer, AdmissionRejectsAfterStopWithoutBlocking)
{
    serve::PredictionServer server(tinyModel(), {});
    server.stop();
    DataflowGraph g = makeGraph("stopped", 1);
    serve::Admission adm = server.submitIfAdmitted(
        serve::makeResultKey(g, nullptr, model::Metric::Power), g, nullptr);
    EXPECT_EQ(adm.status, serve::AdmitStatus::Rejected);
    EXPECT_FALSE(adm.future.valid()); // nothing was ever enqueued
    EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(PredictionServer, AdmissionRejectsOnlyWhenTheQueueIsFull)
{
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 2;
    cfg.cacheCapacity = 0; // every accepted request reaches the model
    serve::PredictionServer server(tinyModel(), cfg);

    DataflowGraph g = makeGraph("admit", 5);
    std::vector<std::future<model::NumericPrediction>> accepted;
    uint64_t rejectedSeen = 0;
    // A single producer floods distinct inputs at a one-worker server:
    // canonicalization is microseconds, a forward pass milliseconds, so
    // the queue fills long before 200 submissions run out.
    for (long i = 0; i < 200; ++i) {
        RuntimeData d = makeData(1000 + i);
        serve::Admission adm = server.submitIfAdmitted(
            serve::makeResultKey(g, &d, model::Metric::Cycles), g, &d);
        if (adm.status == serve::AdmitStatus::Accepted)
            accepted.push_back(std::move(adm.future));
        else
            ++rejectedSeen;
    }
    for (auto& f : accepted)
        EXPECT_GE(f.get().value, 0); // accepted work always completes
    server.stop();

    EXPECT_GT(rejectedSeen, 0u); // the flood had to find the queue full
    EXPECT_EQ(accepted.size() + rejectedSeen, 200u);
    serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, accepted.size());
    EXPECT_EQ(stats.completed, accepted.size());
    EXPECT_EQ(stats.rejected, rejectedSeen);
    // The count is a real llm_obs row, not an ad-hoc field.
    const obs::Counter* rej =
        server.telemetry().findCounter("serve.rejected");
    ASSERT_NE(rej, nullptr);
    EXPECT_EQ(rej->total(), rejectedSeen);
}

TEST(PredictionServer, AdmissionBypassesQueueOnCacheHit)
{
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 2;
    serve::PredictionServer server(tinyModel(), cfg);

    DataflowGraph g = makeGraph("hot", 2);
    RuntimeData d = makeData(8);
    // Warm the cache through the blocking path.
    auto warm = server.predict(g, &d, model::Metric::Cycles);

    // Repeats are admitted straight from the cache: they never touch
    // the queue, so a full one cannot refuse them.
    const serve::ResultKey key =
        serve::makeResultKey(g, &d, model::Metric::Cycles);
    for (int i = 0; i < 5; ++i) {
        serve::Admission adm = server.submitIfAdmitted(key, g, &d);
        ASSERT_EQ(adm.status, serve::AdmitStatus::Accepted);
        EXPECT_TRUE(adm.cacheHit);
        expectSamePrediction(adm.future.get(), warm);
    }
    serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.modelCalls, 1u);
    EXPECT_EQ(stats.cacheHits, 5u);
}

namespace {

/** RAII trace gate: on for the test body, always back off after. */
struct TraceOn
{
    TraceOn()
    {
        obs::setTraceEnabled(true);
        obs::clearSpans();
    }
    ~TraceOn() { obs::setTraceEnabled(false); }
};

/** Total duration (ns) of every collected span with this exact name. */
int64_t
totalNs(const std::vector<obs::SpanEvent>& spans, const char* name)
{
    int64_t t = 0;
    for (const obs::SpanEvent& ev : spans)
        if (std::strcmp(ev.name, name) == 0)
            t += ev.durNs;
    return t;
}

size_t
countSpans(const std::vector<obs::SpanEvent>& spans, const char* name)
{
    size_t n = 0;
    for (const obs::SpanEvent& ev : spans)
        n += std::strcmp(ev.name, name) == 0;
    return n;
}

} // namespace

// Exported spans must nest: a request's end-to-end interval contains
// its queue wait, its batch's forward, and its metric bucket's decode
// as disjoint sub-intervals. Summed over a whole concurrent run with
// every request on the model path, that containment implies
//   sum(e2e) >= sum(queue_wait) + sum(forward) + sum(decode)
// (each batch/bucket has >= 1 member, so the per-batch stage spans are
// counted at most once per member on the right). 8 client threads keep
// the inequality honest under real contention; the suite also runs
// under TSan in CI.
TEST(Telemetry, SpanNestingUnderConcurrentClients)
{
    TraceOn trace;

    serve::ServeConfig cfg;
    cfg.workers = 4;
    cfg.batchMax = 4;
    cfg.cacheCapacity = 0; // every request runs the full pipeline
    serve::PredictionServer server(tinyModel(), cfg);

    const int kClients = 8;
    const int kPerClient = 6;
    std::vector<DataflowGraph> graphs;
    std::vector<RuntimeData> datas;
    for (long i = 0; i < 3; ++i) {
        graphs.push_back(makeGraph("t" + std::to_string(i), i));
        datas.push_back(makeData(8 + i));
    }
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t)
        clients.emplace_back([&, t] {
            for (int i = 0; i < kPerClient; ++i) {
                size_t gi = size_t(t + i) % graphs.size();
                auto metric = static_cast<model::Metric>(
                    (t * kPerClient + i) % model::kNumMetrics);
                server.predict(graphs[gi],
                               metric == model::Metric::Cycles
                                   ? &datas[gi]
                                   : nullptr,
                               metric);
            }
        });
    for (auto& c : clients)
        c.join();
    server.stop(); // quiesce the workers before collecting

    std::vector<obs::SpanEvent> spans = obs::collectSpans();
    const size_t kTotal = size_t(kClients) * kPerClient;
    EXPECT_EQ(countSpans(spans, "serve.request"), kTotal);
    // Cache off: every request was queue-dispatched exactly once.
    EXPECT_EQ(countSpans(spans, "serve.queue_wait"), kTotal);
    EXPECT_GT(countSpans(spans, "serve.forward"), 0u);
    EXPECT_GT(countSpans(spans, "serve.decode"), 0u);

    int64_t e2e = totalNs(spans, "serve.request");
    int64_t parts = totalNs(spans, "serve.queue_wait") +
                    totalNs(spans, "serve.forward") +
                    totalNs(spans, "serve.decode");
    EXPECT_GE(e2e, parts);

    // The ServerStats view over the same run: monotone latency
    // quantiles and populated stage breakdowns.
    auto stats = server.stats();
    EXPECT_LE(stats.p50LatencyMs, stats.p95LatencyMs);
    EXPECT_LE(stats.p95LatencyMs, stats.p99LatencyMs);
    EXPECT_GT(stats.p99LatencyMs, 0.0);
    EXPECT_GE(stats.meanQueueWaitMs, 0.0);
    EXPECT_GT(stats.meanForwardMs, 0.0);
    EXPECT_GT(stats.meanDecodeMs, 0.0);
}

// One worker, one request: the containment is checkable per span, not
// just in aggregate — queue wait, forward, and decode all fall inside
// the request's [submit, fulfil] window and are pairwise disjoint.
TEST(Telemetry, SingleRequestStageSpansNestExactly)
{
    TraceOn trace;

    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.cacheCapacity = 0;
    serve::PredictionServer server(tinyModel(), cfg);
    DataflowGraph g = makeGraph("solo", 3);
    RuntimeData d = makeData(10);
    server.predict(g, &d, model::Metric::Cycles);
    server.stop();

    std::vector<obs::SpanEvent> spans = obs::collectSpans();
    auto find = [&](const char* name) -> const obs::SpanEvent* {
        for (const obs::SpanEvent& ev : spans)
            if (std::strcmp(ev.name, name) == 0)
                return &ev;
        return nullptr;
    };
    const obs::SpanEvent* req = find("serve.request");
    const obs::SpanEvent* wait = find("serve.queue_wait");
    const obs::SpanEvent* fwd = find("serve.forward");
    const obs::SpanEvent* dec = find("serve.decode");
    ASSERT_NE(req, nullptr);
    ASSERT_NE(wait, nullptr);
    ASSERT_NE(fwd, nullptr);
    ASSERT_NE(dec, nullptr);
    EXPECT_EQ(req->id, wait->id); // correlated by request id

    auto endOf = [](const obs::SpanEvent* ev) {
        return ev->startNs + ev->durNs;
    };
    // Containment in the request window...
    EXPECT_GE(wait->startNs, req->startNs);
    EXPECT_GE(fwd->startNs, req->startNs);
    EXPECT_GE(dec->startNs, req->startNs);
    EXPECT_LE(endOf(dec), endOf(req));
    // ...in pipeline order, pairwise disjoint.
    EXPECT_LE(endOf(wait), fwd->startNs);
    EXPECT_LE(endOf(fwd), dec->startNs);
    EXPECT_GE(req->durNs, wait->durNs + fwd->durNs + dec->durNs);
}

// Telemetry is speed-only: with both the trace and metrics gates on,
// served predictions stay bit-identical to the sequential fast path
// computed with telemetry off.
TEST(Telemetry, TracingEnabledKeepsResultsBitIdentical)
{
    auto reference = tinyModel();
    DataflowGraph g = makeGraph("traced", 4);
    RuntimeData d = makeData(14);

    // Ground truth with every gate off.
    obs::setTraceEnabled(false);
    obs::setMetricsEnabled(false);
    model::NumericPrediction expected[model::kNumMetrics];
    for (int m = 0; m < model::kNumMetrics; ++m) {
        auto metric = static_cast<model::Metric>(m);
        auto ep = reference->encode(
            g, metric == model::Metric::Cycles ? &d : nullptr);
        expected[m] = reference->predict(ep, metric);
    }

    obs::setTraceEnabled(true);
    obs::setMetricsEnabled(true);
    {
        serve::ServeConfig cfg;
        cfg.workers = 2;
        cfg.cacheCapacity = 0;
        serve::PredictionServer server(tinyModel(), cfg);
        for (int m = 0; m < model::kNumMetrics; ++m) {
            auto metric = static_cast<model::Metric>(m);
            auto pred = server.predict(
                g, metric == model::Metric::Cycles ? &d : nullptr, metric);
            expectSamePrediction(pred, expected[m]);
        }
    }
    obs::setTraceEnabled(false);
    obs::setMetricsEnabled(false);
    obs::clearSpans();
}

namespace {

/** Tiny model with a non-default init seed: different, fixed weights. */
std::unique_ptr<model::CostModel>
tinyModelSeeded(uint64_t seed)
{
    auto cfg = tinyConfig();
    cfg.seed = seed;
    return std::make_unique<model::CostModel>(cfg);
}

bool
samePrediction(const model::NumericPrediction& a,
               const model::NumericPrediction& b)
{
    if (a.value != b.value || a.digits != b.digits ||
        a.digitProbs != b.digitProbs)
        return false;
    return a.logProb == b.logProb;
}

} // namespace

// Pinned hot-swap contract: under sustained traffic from 8 client
// threads, swapping the model mid-stream is (a) race-free (the TSan CI
// job runs this binary), (b) coherent — every single answer is bitwise
// the old model's or the new model's prediction, never a mixture — and
// (c) final: once the swap returns, fresh predictions come from the new
// weights only.
TEST(PredictionServer, HotSwapUnderConcurrentClientsIsCoherent)
{
    auto refA = tinyModel();
    auto refB = tinyModelSeeded(777);

    struct Case
    {
        DataflowGraph graph;
        RuntimeData data;
    };
    std::vector<Case> cases;
    for (long bias : {1, 2, 3, 4})
        cases.push_back(
            {makeGraph("swap" + std::to_string(bias), bias),
             makeData(16 + bias)});

    std::vector<model::NumericPrediction> expectedA, expectedB;
    for (const Case& cs : cases) {
        auto epA = refA->encode(cs.graph, &cs.data);
        auto epB = refB->encode(cs.graph, &cs.data);
        expectedA.push_back(refA->predict(epA, model::Metric::Cycles));
        expectedB.push_back(refB->predict(epB, model::Metric::Cycles));
        // The two weight inits must actually disagree, or "old or new"
        // below would be vacuous.
        ASSERT_FALSE(samePrediction(expectedA.back(), expectedB.back()));
    }

    serve::ServeConfig cfg;
    cfg.workers = 4;
    cfg.cacheCapacity = 0; // every answer computed by some version
    serve::PredictionServer server(tinyModel(), cfg);

    std::atomic<bool> done{false};
    std::atomic<bool> incoherent{false};
    std::vector<std::thread> clients;
    for (int t = 0; t < 8; ++t) {
        clients.emplace_back([&, t] {
            size_t i = size_t(t);
            while (!done.load(std::memory_order_acquire)) {
                const Case& cs = cases[i % cases.size()];
                auto got = server.predict(cs.graph, &cs.data,
                                          model::Metric::Cycles);
                if (!samePrediction(got, expectedA[i % cases.size()]) &&
                    !samePrediction(got, expectedB[i % cases.size()]))
                    incoherent.store(true, std::memory_order_release);
                ++i;
            }
        });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.swapModel(tinyModelSeeded(777)); // same seed => same bits as refB
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done.store(true, std::memory_order_release);
    for (auto& c : clients)
        c.join();

    EXPECT_FALSE(incoherent.load());
    EXPECT_EQ(server.stats().modelVersion, 1u);
    EXPECT_EQ(server.stats().calibSwaps, 1u);

    // Post-swap, the answer is the NEW model's, bitwise — and provably
    // not the old one's.
    for (size_t i = 0; i < cases.size(); ++i) {
        auto post = server.predict(cases[i].graph, &cases[i].data,
                                   model::Metric::Cycles);
        expectSamePrediction(post, expectedB[i]);
        EXPECT_FALSE(samePrediction(post, expectedA[i]));
    }
}

// Pinned cache contract across swaps: ResultKey carries the model
// version, so an entry cached under the old weights is unreachable
// after the swap (the model re-runs), and the new version's entry is
// cached and served independently.
TEST(PredictionServer, VersionKeyedCacheNeverServesStaleVersion)
{
    auto refB = tinyModelSeeded(777);

    serve::ServeConfig cfg;
    cfg.workers = 1;
    serve::PredictionServer server(tinyModel(), cfg);

    DataflowGraph g = makeGraph("stale", 6);
    RuntimeData d = makeData(18);

    auto first = server.predict(g, &d, model::Metric::Cycles);
    auto again = server.predict(g, &d, model::Metric::Cycles);
    expectSamePrediction(again, first);
    EXPECT_EQ(server.stats().modelCalls, 1u);
    EXPECT_EQ(server.stats().cacheHits, 1u);

    server.swapModel(tinyModelSeeded(777));

    // Same key fields except the version: the stale entry must NOT be
    // served; the new model runs and its answer is bitwise the seeded
    // reference's.
    auto swapped = server.predict(g, &d, model::Metric::Cycles);
    EXPECT_EQ(server.stats().modelCalls, 2u);
    auto ep = refB->encode(g, &d);
    expectSamePrediction(swapped, refB->predict(ep, model::Metric::Cycles));
    EXPECT_FALSE(samePrediction(swapped, first));

    // The new version's entry is itself cached and re-served bitwise.
    auto cached = server.predict(g, &d, model::Metric::Cycles);
    expectSamePrediction(cached, swapped);
    EXPECT_EQ(server.stats().modelCalls, 2u);
    EXPECT_EQ(server.stats().modelVersion, 1u);
}

// Calibration events are counted once, in the server's registry:
// ServerStats reads those counters instead of keeping copies.
TEST(PredictionServer, CalibrationStatsReadTheRegistryCounters)
{
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.cacheCapacity = 0; // every answer computed => offered to shadow
    cfg.calibration.enabled = true;
    cfg.calibration.shadowFraction = 1.0;
    cfg.calibration.calibSteps = 2; // keep the round cheap
    // Three residuals never complete the default 8-sample drift
    // baseline, so only the forced round below swaps.
    serve::PredictionServer server(tinyModel(), cfg);
    for (long n = 8; n < 11; ++n) {
        RuntimeData d = makeData(n);
        server.predict(makeGraph("counted", n), &d, model::Metric::Cycles);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (server.stats().shadowProfiled < 3 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(server.stats().shadowProfiled, 3u);
    ASSERT_TRUE(server.forceCalibrationRound());

    const obs::Registry& reg = server.telemetry();
    const obs::Counter* swaps = reg.findCounter("calib.swaps");
    const obs::Counter* profiled = reg.findCounter("calib.profiled");
    ASSERT_NE(swaps, nullptr);
    ASSERT_NE(profiled, nullptr);
    serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.calibSwaps, 1u);
    EXPECT_EQ(stats.calibSwaps, swaps->total());
    EXPECT_EQ(stats.shadowProfiled, profiled->total());
    EXPECT_EQ(stats.modelVersion, 1u);
}

TEST(PredictionServer, ServeStatsReadTheRegistryCounters)
{
    serve::ServeConfig cfg;
    cfg.workers = 2;
    serve::PredictionServer server(tinyModel(), cfg);
    // Four misses, then two of them again from the cache.
    for (long n : {8, 9, 10, 11, 8, 9}) {
        RuntimeData d = makeData(n);
        server.predict(makeGraph("rows", 3), &d, model::Metric::Cycles);
    }
    server.stop();

    const obs::Registry& reg = server.telemetry();
    auto row = [&reg](const char* name) -> uint64_t {
        const obs::Counter* c = reg.findCounter(name);
        EXPECT_NE(c, nullptr) << name;
        return c ? c->total() : 0;
    };
    serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, 6u);
    EXPECT_EQ(stats.cacheHits, 2u);
    EXPECT_EQ(stats.cacheMisses, 4u);
    EXPECT_EQ(stats.modelCalls, 4u);
    ASSERT_GT(stats.batches, 0u);
    EXPECT_EQ(stats.submitted, row("serve.submitted"));
    EXPECT_EQ(stats.completed, row("serve.completed"));
    EXPECT_EQ(stats.cacheHits, row("serve.cache_hits"));
    EXPECT_EQ(stats.cacheMisses, row("serve.cache_misses"));
    EXPECT_EQ(stats.batches, row("serve.batches"));
    EXPECT_EQ(stats.modelCalls, row("serve.model_calls"));
    EXPECT_EQ(stats.rejected, row("serve.rejected"));
    EXPECT_EQ(stats.meanBatch,
              double(row("serve.dispatched")) / double(stats.batches));
}

TEST(PredictionServer, CalibrationRoundResetsTheResidualGauge)
{
    // The round re-baselines the drift detector; the registry's
    // calib.mean_abs_residual row must follow it, as calib.drift_score
    // does, instead of keeping the pre-round residuals.
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.cacheCapacity = 0;
    cfg.calibration.enabled = true;
    cfg.calibration.shadowFraction = 1.0;
    cfg.calibration.calibSteps = 2;
    serve::PredictionServer server(tinyModel(), cfg);
    for (long n = 8; n < 11; ++n) {
        RuntimeData d = makeData(n);
        server.predict(makeGraph("gauge", n), &d, model::Metric::Cycles);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (server.stats().shadowProfiled < 3 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(server.stats().shadowProfiled, 3u);
    const obs::Gauge* residual =
        server.telemetry().findGauge("calib.mean_abs_residual");
    ASSERT_NE(residual, nullptr);
    ASSERT_GT(residual->value(), 0.0); // an untrained model is far off

    ASSERT_TRUE(server.forceCalibrationRound());
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(residual->value(), stats.meanAbsResidual);
    EXPECT_EQ(stats.meanAbsResidual, 0.0);
}

// End-to-end live-calibration loop: with an untrained model and a
// hair-trigger drift config, shadow profiling must detect the (large)
// residuals and the background thread must calibrate + hot-swap without
// any explicit nudge from the test.
TEST(PredictionServer, DriftDetectionTriggersBackgroundSwap)
{
    serve::ServeConfig cfg;
    cfg.workers = 2;
    cfg.cacheCapacity = 0; // every answer computed => offered to shadow
    cfg.calibration.enabled = true;
    cfg.calibration.shadowFraction = 1.0;
    cfg.calibration.minRoundSamples = 1;
    cfg.calibration.calibSteps = 2; // keep the round cheap
    cfg.calibration.drift.baselineSamples = 2;
    // An untrained model is wildly wrong vs the simulator, so the
    // rolling mean-|residual| backstop fires deterministically once two
    // samples are in.
    cfg.calibration.drift.meanAbsThreshold = 1e-6;
    cfg.calibration.drift.window = 4;
    serve::PredictionServer server(tinyModel(), cfg);

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    long n = 8;
    while (server.stats().calibSwaps == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        DataflowGraph g = makeGraph("drift", n % 5);
        RuntimeData d = makeData(n);
        n = 8 + (n + 3) % 23; // vary inputs so residuals keep flowing
        server.predict(g, &d, model::Metric::Cycles);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    auto stats = server.stats();
    EXPECT_GE(stats.calibSwaps, 1u) << "drift never triggered a swap";
    EXPECT_GE(stats.modelVersion, 1u);
    EXPECT_GE(stats.shadowProfiled, 2u);
    server.stop(); // joins workers, then the calibration thread
}
