/**
 * @file
 * Prediction-serving demo: train (or load from the shared model cache)
 * the LLMulator cost model, stand up a PredictionServer in front of it,
 * and hammer the server from several client threads with the PolyBench
 * evaluation workloads. Prints a per-client summary plus the server's
 * ServerStats snapshot, and cross-checks a served prediction against a
 * direct CostModel::predict() call (they must agree exactly).
 *
 *   ./serve_demo            # full corpus
 *   LLMULATOR_SMOKE=1 ./serve_demo   # seconds, used by the smoke test
 *   LLMULATOR_TRACE=1 ./serve_demo   # also write a chrome://tracing
 *                                    # JSON (LLMULATOR_TRACE_FILE, or
 *                                    # serve_demo_trace.json)
 */

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness/harness.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "util/env.h"
#include "workloads/workloads.h"

using namespace llmulator;

int
main()
{
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    bool smoke = harness::smokeMode();
    if (smoke)
        std::printf("[smoke] LLMULATOR_SMOKE set: small corpus, 1 "
                    "epoch\n");

    // 1. Weights come from the same eval/model_cache registry the bench
    //    suite trains into: the first run trains, later runs load.
    synth::Dataset ds =
        harness::defaultDataset(harness::defaultSynthConfig());
    auto trained = harness::trainCostModel(harness::defaultOursConfig(), ds,
                                           harness::defaultTrainConfig(),
                                           "main_ours");
    // Keep an identical reference copy for the cross-check below.
    auto reference = trained->clone();

    // 2. Stand the server up in front of the trained model.
    serve::ServeConfig cfg;
    cfg.workers = smoke ? 2 : 4;
    serve::PredictionServer server(std::move(trained), cfg);
    std::printf("== serving: %d workers, cache %zu entries ==\n",
                cfg.workers, cfg.cacheCapacity);

    // 3. Hammer it: N clients submitting workload queries; repeats are
    //    common (as they would be in a DSE loop), so the cache matters.
    auto ws = workloads::polybench();
    if (smoke)
        ws.resize(3);
    const int kClients = smoke ? 4 : 8;
    const int kRounds = smoke ? 2 : 6;
    std::atomic<long> served{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                for (size_t wi = 0; wi < ws.size(); ++wi) {
                    const auto& w = ws[(wi + t) % ws.size()];
                    for (int m = 0; m < model::kNumMetrics; ++m) {
                        auto metric = static_cast<model::Metric>(m);
                        const dfir::RuntimeData* data =
                            metric == model::Metric::Cycles
                                ? &w.canonicalData
                                : nullptr;
                        server.predict(w.graph, data, metric);
                        served.fetch_add(1);
                    }
                }
            }
        });
    }
    for (auto& c : clients)
        c.join();

    // 4. Snapshot the serving statistics.
    auto stats = server.stats();
    std::printf("== server stats ==\n");
    std::printf("clients=%d served=%ld submitted=%llu completed=%llu\n",
                kClients, served.load(),
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.completed));
    std::printf("throughput=%.1f req/s  p50=%.2fms  p95=%.2fms  "
                "p99=%.2fms\n",
                stats.throughputRps, stats.p50LatencyMs, stats.p95LatencyMs,
                stats.p99LatencyMs);
    std::printf("queue_wait: mean=%.2fms p99=%.2fms\n",
                stats.meanQueueWaitMs, stats.queueWaitP99Ms);
    std::printf("stages: assembly=%.2fms forward=%.2fms decode=%.2fms "
                "cache_fill=%.2fms (per-request means)\n",
                stats.meanAssemblyMs, stats.meanForwardMs,
                stats.meanDecodeMs, stats.meanCacheFillMs);
    std::printf("cache: hits=%llu misses=%llu hit_rate=%.1f%%  "
                "model_calls=%llu\n",
                static_cast<unsigned long long>(stats.cacheHits),
                static_cast<unsigned long long>(stats.cacheMisses),
                stats.hitRate() * 100.0,
                static_cast<unsigned long long>(stats.modelCalls));

    // 5. Served results must be exactly what the sequential fast path
    //    computes (the same autograd-free forward the workers run).
    const auto& w = ws.front();
    auto servedPred =
        server.predict(w.graph, &w.canonicalData, model::Metric::Cycles);
    auto ep = reference->encode(w.graph, &w.canonicalData);
    auto direct = reference->predict(ep, model::Metric::Cycles);
    std::printf("== cross-check (%s cycles) ==\nserved=%ld direct=%ld "
                "-> %s\n",
                w.name.c_str(), servedPred.value, direct.value,
                servedPred.value == direct.value ? "identical"
                                                 : "MISMATCH");
    if (servedPred.value != direct.value)
        return 1;
    if (stats.completed != stats.submitted) {
        std::printf("ERROR: %llu submitted but %llu completed\n",
                    static_cast<unsigned long long>(stats.submitted),
                    static_cast<unsigned long long>(stats.completed));
        return 1;
    }

    // 6. With LLMULATOR_TRACE=1, export the request and stage spans
    //    as chrome://tracing JSON. stop() first: span collection wants
    //    the worker threads quiescent.
    if (obs::traceEnabled()) {
        server.stop();
        std::string path = util::envString("LLMULATOR_TRACE_FILE",
                                           "serve_demo_trace.json");
        if (!obs::writeChromeTraceFile(path))
            return 1;
        std::printf("trace written to %s (load in chrome://tracing)\n",
                    path.c_str());
    }
    return 0;
}
