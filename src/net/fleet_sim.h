#ifndef LLMULATOR_NET_FLEET_SIM_H
#define LLMULATOR_NET_FLEET_SIM_H

/**
 * @file
 * Fleet workload simulator: N client threads streaming cost-model
 * queries at a running FleetServer over real loopback connections,
 * with Zipf-skewed program popularity — the xiaozhi-style fleet
 * scenario from the ROADMAP, where thousands of heterogeneous devices
 * keep asking about a heavy-tailed mix of mostly-popular programs.
 *
 * Popularity: corpus entry at rank i (0-based) is drawn with weight
 * (i + 1)^-skew. skew = 0 is uniform; skew = 1 is the classic Zipf
 * law where a handful of programs dominate — which is what makes the
 * fleet's sharded result caches pay off. Each client gets its
 * own deterministic Rng (seed + client index) and its own connection,
 * and cycles priorities High/Normal/Low when `mixedPriorities` is set.
 *
 * The result aggregates client-observed latencies (exact quantiles
 * over the merged samples, not histogram buckets) and the Ok /
 * Overloaded / transport-failure split, so benches can report
 * sustained rps and tail latency as the fleet scales.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace llmulator {
namespace net {

/** One corpus entry: a pre-serialized query the fleet replays. */
struct SimQuery
{
    std::string program; //!< dfir::printStatic() text
    dfir::RuntimeData data;
    bool hasData = false;
    model::Metric metric = model::Metric::Cycles;
};

/** Build a corpus entry from an IR graph. */
SimQuery makeSimQuery(const dfir::DataflowGraph& g,
                      const dfir::RuntimeData* data, model::Metric metric);

/** Simulated-fleet shape. */
struct SimConfig
{
    int clients = 8;            //!< concurrent client threads
    int requestsPerClient = 100;
    double zipfSkew = 0.0;      //!< 0 = uniform popularity
    uint64_t seed = 42;         //!< per-client Rng base seed
    serve::Priority priority = serve::Priority::Normal;
    bool mixedPriorities = false; //!< cycle High/Normal/Low per request
};

/** Aggregated client-side outcome of one simulated fleet run. */
struct SimResult
{
    uint64_t ok = 0;
    uint64_t overloaded = 0;
    uint64_t failed = 0; //!< transport failures + non-Ok non-Overloaded
    double elapsedSec = 0;
    double rps = 0;    //!< ok / elapsed
    double p50Ms = 0;  //!< exact quantiles over all Ok round trips
    double p99Ms = 0;
};

/**
 * Run the simulated fleet against 127.0.0.1:port and block until every
 * client finishes. The corpus must be non-empty.
 */
SimResult runFleet(int port, const std::vector<SimQuery>& corpus,
                   const SimConfig& cfg);

} // namespace net
} // namespace llmulator

#endif // LLMULATOR_NET_FLEET_SIM_H
