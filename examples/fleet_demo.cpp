/**
 * @file
 * Networked fleet-serving demo: stand a FleetServer (sharded
 * PredictionServers behind the loopback TCP front-end) on an ephemeral
 * port, round-trip queries through a FleetClient, replay a small corpus
 * twice through that client (every first answer computed, every second
 * one served from the shard caches), then restart the whole fleet and
 * show the shard caches, warmed from the snapshot, answering the
 * replayed queries without any model work. This is also the CI smoke
 * leg for src/net: every claim below is LLM_CHECKed, so a regression
 * fails the run instead of just printing different numbers.
 *
 *   ./fleet_demo                     # 12-program corpus
 *   LLMULATOR_SMOKE=1 ./fleet_demo   # 4 programs, used by the smoke test
 *
 * Knobs (see README "Networked serving"): the fleet shape comes from
 * fleetConfigFromEnv(), so LLMULATOR_NET_SHARDS etc. apply — except the
 * port and cache file, which this demo pins (ephemeral port, a
 * pid-suffixed /tmp snapshot it deletes on exit).
 */

#include <algorithm>
#include <cstdio>
#include <unistd.h>

#include "dfir/builder.h"
#include "harness/harness.h"
#include "net/fleet_client.h"
#include "net/fleet_server.h"
#include "util/common.h"
#include "util/string_util.h"

using namespace llmulator;
using namespace llmulator::dfir;

namespace {

/** Y[i] = X[i] + bias: the demo corpus, parameterized by bias. */
DataflowGraph
makeGraph(long bias)
{
    Operator op;
    op.name = "scale";
    op.scalarParams = {"N"};
    op.tensors = {tensor("X", {p("N")}), tensor("Y", {p("N")})};
    op.body = {forLoop("i", c(0), p("N"),
                       {assign("Y", {v("i")},
                               badd(a("X", {v("i")}), c(bias)))})};
    DataflowGraph g;
    g.name = util::format("fleet-demo-%ld", bias);
    g.ops = {op};
    g.calls = {{"scale"}};
    return g;
}

std::unique_ptr<model::CostModel>
tinyModel()
{
    // Untrained Tiny model: init is seeded, so the restarted fleet
    // below rebuilds the *same* model and the cache snapshot stays
    // valid across the restart — exactly the redeploy scenario.
    auto cfg = model::configForScale(model::ModelScale::Tiny);
    cfg.enc.maxSeq = 128;
    return std::make_unique<model::CostModel>(cfg);
}

} // namespace

int
main()
{
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    const bool smoke = harness::smokeMode();
    const std::string cachePath = util::format(
        "/tmp/llm_fleet_demo_%ld.cache", static_cast<long>(::getpid()));
    std::remove(cachePath.c_str());

    net::FleetConfig cfg = net::fleetConfigFromEnv();
    cfg.port = 0; // always ephemeral: demos must not collide
    cfg.persistPath = cachePath;
    if (smoke)
        cfg.shards = std::min(cfg.shards, 2);

    DataflowGraph g = makeGraph(7);
    RuntimeData d;
    d.scalars["N"] = 32;
    model::NumericPrediction coldPred;

    // --- Generation 1: cold fleet -------------------------------------
    {
        net::FleetServer fleet(tinyModel(), cfg);
        fleet.start();
        std::printf("== fleet up: 127.0.0.1:%d, %zu shards ==\n",
                    fleet.port(), fleet.shardCount());

        net::FleetClient client;
        LLM_CHECK(client.connectLoopback(fleet.port()),
                  "fleet_demo: connect failed");
        net::NetResponse resp;
        LLM_CHECK(client.predict(g, &d, model::Metric::Cycles, resp),
                  "fleet_demo: round trip failed");
        LLM_CHECK(resp.status == net::Status::Ok,
                  "fleet_demo: first query not Ok");
        LLM_CHECK(!resp.cacheHit, "fleet_demo: cold query was a hit?");
        coldPred = resp.prediction;
        std::printf("cold prediction: cycles=%ld (model v%llu)\n",
                    coldPred.value,
                    static_cast<unsigned long long>(resp.modelVersion));

        // Replay a corpus of distinct programs twice: the first pass
        // computes every answer, the second finds each in its shard's
        // cache.
        const long corpusSize = smoke ? 4 : 12;
        for (int pass = 0; pass < 2; ++pass) {
            for (long i = 0; i < corpusSize; ++i) {
                DataflowGraph cg = makeGraph(i + 1);
                RuntimeData cd;
                cd.scalars["N"] = 16 + i * 4;
                LLM_CHECK(client.predict(cg, &cd, model::Metric::Cycles, resp),
                          "fleet_demo: corpus round trip failed");
                LLM_CHECK(resp.status == net::Status::Ok,
                          "fleet_demo: corpus query not Ok");
                LLM_CHECK(resp.cacheHit == (pass == 1),
                          "fleet_demo: pass " << pass + 1 << ", query " << i
                                              << ": cacheHit="
                                              << resp.cacheHit);
            }
        }
        net::FleetStats stats = fleet.stats();
        std::printf("corpus: %ld programs replayed twice, ok=%llu "
                    "hit_rate=%.1f%%\n",
                    corpusSize, static_cast<unsigned long long>(stats.ok),
                    stats.hitRate() * 100.0);

        fleet.stop(); // snapshots the shard caches to cachePath
    }

    // --- Generation 2: restarted fleet, caches warmed from the snapshot
    {
        net::FleetServer fleet(tinyModel(), cfg);
        net::FleetStats cold = fleet.stats();
        std::printf("== restart: %llu cached results loaded ==\n",
                    static_cast<unsigned long long>(cold.persistLoaded));
        LLM_CHECK(cold.persistLoaded > 0,
                  "fleet_demo: snapshot loaded nothing");
        fleet.start();

        net::FleetClient client;
        LLM_CHECK(client.connectLoopback(fleet.port()),
                  "fleet_demo: reconnect failed");
        net::NetResponse resp;
        LLM_CHECK(client.predict(g, &d, model::Metric::Cycles, resp),
                  "fleet_demo: replay round trip failed");
        LLM_CHECK(resp.status == net::Status::Ok,
                  "fleet_demo: replay not Ok");
        LLM_CHECK(resp.cacheHit,
                  "fleet_demo: replay missed the warmed cache");
        LLM_CHECK(resp.prediction.value == coldPred.value,
                  "fleet_demo: cached prediction diverged");
        net::FleetStats warm = fleet.stats();
        LLM_CHECK(warm.shardModelCalls == 0,
                  "fleet_demo: replay ran the model anyway");
        std::printf("replay: cycles=%ld served from the warmed cache "
                    "(0 model calls)\n",
                    resp.prediction.value);
    }

    std::remove(cachePath.c_str());
    std::printf("OK\n");
    return 0;
}
