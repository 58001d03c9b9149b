#ifndef LLMULATOR_NET_FLEET_SERVER_H
#define LLMULATOR_NET_FLEET_SERVER_H

/**
 * @file
 * Networked fleet-serving front-end over the in-process serving
 * runtime — the ROADMAP "make serve a service" direction.
 *
 * A FleetServer owns N PredictionServer shards (clones of one trained
 * CostModel) and a loopback TCP listener speaking the length-prefixed
 * binary protocol of net/protocol.h with one blocking thread per
 * connection (self-contained: POSIX sockets only, no external deps).
 * Request handling:
 *
 *  1. parse the program text (dfir::parseProgram; a parse error or a
 *     verifier error -> a BAD_REQUEST reply carrying its text, the
 *     connection stays usable; verifier warnings are served),
 *  2. derive the result key once (serve::makeResultKey: canonical
 *     program hash, remapped input hash, metric). The SHARD RULE is
 *     `shard = key.program % shards` — the canonical hash — so
 *     semantically equivalent programs (renamed values, commuted
 *     operands, dead code) always land on the same shard and therefore
 *     the same result cache, keeping per-shard hit rates high under the
 *     Zipf-skewed popularity a real fleet produces,
 *  3. hand that key to the shard's admission control
 *     (PredictionServer::submitIfAdmitted), which does not canonicalize
 *     again: a shard-cache hit answers at once and is flagged `cacheHit`
 *     on the wire; otherwise a full queue refuses instead of blocking,
 *     which surfaces as an explicit OVERLOADED reply, so an overloaded
 *     fleet degrades by answering fast, not by stalling every client,
 *  4. wait for the prediction (the shard fills its cache with it).
 *
 * A connection's thread ends with its connection, and the accept loop
 * joins it while the fleet keeps running, so the threads (and stacks)
 * held at any time are bounded by the live connections, not by every
 * connection the fleet has served.
 *
 * stop() (also run by the destructor) closes the listener, unblocks
 * and joins every connection thread, drains the shards, and — when a
 * persistPath is configured — atomically writes every shard's result
 * cache into one snapshot (net/snapshot.h). The constructor loads it
 * back, putting each entry into shard `key.program % shards`, so the
 * next fleet warms instantly even with a different shard count.
 *
 * Shards never calibrate (FleetConfig forbids it): every shard must
 * stay on one shared weight generation or the model version that
 * stamps the snapshot would fork across shards.
 *
 * Telemetry flows through a per-instance always-on obs::Registry
 * (`net.*` counters + `net.handle_ms`); FleetStats is a point-in-time
 * view over it plus the aggregated shard ServerStats.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace llmulator {
namespace net {

/** Fleet front-end tuning knobs. */
struct FleetConfig
{
    int port = 0;          //!< loopback TCP port; 0 = ephemeral
    int shards = 2;        //!< PredictionServer instances
    int maxConnections = 64; //!< concurrent connections (excess refused)
    //! Per-shard serving knobs. The calibration sub-config must stay
    //! disabled — see the file header.
    serve::ServeConfig serve;
    //! Result snapshot path: stop() saves the shard result caches
    //! here and the constructor warms them from it; "" = no snapshot.
    std::string persistPath;
};

/**
 * Overlay the LLMULATOR_NET_* environment knobs (parsed via util/env.h)
 * onto `base`: LLMULATOR_NET_PORT, LLMULATOR_NET_SHARDS,
 * LLMULATOR_NET_MAX_CONNS and LLMULATOR_NET_CACHE_FILE.
 */
FleetConfig fleetConfigFromEnv(FleetConfig base = {});

/** Point-in-time fleet statistics (front-end + aggregated shards). */
struct FleetStats
{
    uint64_t requests = 0;   //!< decoded requests handled
    uint64_t ok = 0;         //!< answered with Status::Ok
    uint64_t overloaded = 0; //!< refused: the shard's queue was full
    uint64_t badRequest = 0; //!< undecodable payload / invalid program
    uint64_t errors = 0;     //!< server-side failures
    //! Connections closed for a framing violation: a frame header over
    //! kMaxFrameBytes, or a frame not complete within kFrameDeadline.
    uint64_t badFrames = 0;
    //! Warm-start view of the snapshot load: entries accepted / skipped
    //! because they were stamped with another model version.
    uint64_t persistLoaded = 0;
    uint64_t persistStale = 0;
    //! Sums over the shards' ServerStats.
    uint64_t shardCacheHits = 0;
    uint64_t shardCacheMisses = 0;
    uint64_t shardModelCalls = 0;
    uint64_t shardRejected = 0;

    /** Fraction of Ok answers served from a shard result cache. */
    double hitRate() const
    {
        return ok == 0 ? 0.0 : double(shardCacheHits) / double(ok);
    }
};

/** Sharded, admission-controlled fleet server with a cache snapshot. */
class FleetServer
{
  public:
    /**
     * Takes ownership of one (usually trained) model and clones it per
     * shard, so every shard answers from the same weight generation.
     * Warms the shard caches from cfg.persistPath when it is set.
     * The listener does NOT start until start().
     */
    FleetServer(std::unique_ptr<model::CostModel> model,
                const FleetConfig& cfg = {});
    ~FleetServer();

    FleetServer(const FleetServer&) = delete;
    FleetServer& operator=(const FleetServer&) = delete;

    /** Bind + listen on 127.0.0.1 and start accepting. LLM_CHECKs on
     *  bind failure. Idempotent until stop(). */
    void start();

    /** Close the listener, join connections, drain shards, snapshot
     *  the shard caches. Idempotent; runs on destruction. */
    void stop();

    /** The bound port (resolved after start() when cfg.port == 0). */
    int port() const { return port_; }

    /**
     * Handle one decoded request in-process — the same path the wire
     * loop runs, exposed for tests and zero-copy local callers.
     */
    NetResponse handle(const NetRequest& req);

    /** The shard rule, exposed for tests. */
    static size_t shardOf(uint64_t canonicalHash, size_t shards)
    {
        return shards == 0 ? 0 : canonicalHash % shards;
    }

    FleetStats stats() const;
    const obs::Registry& telemetry() const { return telemetry_; }
    size_t shardCount() const { return shards_.size(); }
    serve::PredictionServer& shard(size_t i) { return *shards_[i]; }
    const FleetConfig& config() const { return cfg_; }

  private:
    void acceptLoop();
    void connectionLoop(int fd);
    /** Join the threads whose connections have closed. */
    void reapFinished();

    FleetConfig cfg_;
    std::vector<std::unique_ptr<serve::PredictionServer>> shards_;
    uint64_t modelVersion_ = 0; //!< shared across shards, fixed

    int listenFd_ = -1;
    int port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopped_{false};
    std::thread acceptThread_;
    std::mutex connMu_;
    std::condition_variable connCv_; //!< signalled as connections end
    //! Live connections: descriptor (for shutdown wakeup) -> its thread.
    std::map<int, std::thread> conns_;
    //! Threads whose connection ended, waiting to be joined.
    std::vector<std::thread> finished_;

    //! Always-on per-instance registry backing FleetStats.
    obs::Registry telemetry_{/*alwaysOn=*/true};
    obs::Counter& requests_;       //!< net.requests
    obs::Counter& okCount_;        //!< net.ok
    obs::Counter& overloadedCount_; //!< net.overloaded
    obs::Counter& badRequestCount_; //!< net.bad_request
    obs::Counter& errorCount_;     //!< net.error
    obs::Counter& badFrameCount_;  //!< net.bad_frame
    obs::Histogram& handleMs_;     //!< net.handle_ms
    uint64_t persistLoaded_ = 0;
    uint64_t persistStale_ = 0;
};

} // namespace net
} // namespace llmulator

#endif // LLMULATOR_NET_FLEET_SERVER_H
