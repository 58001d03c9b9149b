#ifndef LLMULATOR_SERVE_SERVER_H
#define LLMULATOR_SERVE_SERVER_H

/**
 * @file
 * Concurrent prediction-serving runtime.
 *
 * A PredictionServer owns one trained CostModel and a pool of worker
 * threads behind a bounded MPMC request queue. Each worker pops one
 * request and runs what CostModel::predict() runs: encode, one
 * autograd-free full forward (InferenceSession::forwardPooledBatch of
 * the one encoding — paper Section 5.3's fast path without its
 * prefix-reuse approximation), then the digit head's beam decode at its
 * default width. No training tape is built on the serving path, and a
 * served prediction equals CostModel::predict() of the same request bit
 * for bit (pinned by test_serve).
 *
 * Finished predictions land in an LRU ResultCache keyed by
 * (canonical program hash, runtime-input hash, metric, model version);
 * repeated queries are
 * answered without touching the model. Each server owns an always-on
 * obs::Registry (stage histograms under `serve.*`; see obs/metrics.h)
 * — ServerStats is a point-in-time view over it, adding p99 latency,
 * queue-wait and per-stage breakdowns to the counters; when
 * LLMULATOR_TRACE is set the request lifecycle additionally exports
 * trace spans (serve.request, serve.queue_wait, serve.assembly,
 * serve.forward, serve.decode and serve.cache_fill, each carrying the
 * request id). Telemetry is speed-only: it is never hashed into cache keys
 * and cannot change a result bit. Cache keys come from makeResultKey()
 * (serve/result_cache.h): the program hash is dfir::canonicalHash — the
 * structural hash of the canonicalized graph — and the input hash is
 * taken over the runtime data with scalars renamed into the canonical
 * graph's namespace (dfir::remapRuntimeData), so semantically identical
 * programs (renamed values, reordered commuting operands, dead assigns)
 * share one cache entry. The model still encodes each miss's ORIGINAL
 * graph text; equivalent programs therefore share the cached prediction
 * of whichever variant arrived first, exactly as a cache is expected to.
 *
 * Clients use the blocking predict(), the future-based submitAsync(), or
 * the admission-controlled submitIfAdmitted(); all three run one submit
 * path and differ only in blocking push vs. refusing when the queue is
 * full. submitIfAdmitted() takes the key its caller already derived (the
 * fleet front-end shards by it), so the program is canonicalized once
 * per request. stats() returns a ServerStats snapshot (throughput, p50/p95
 * latency, hit rate, queue depth). stop() — also run by the destructor
 * — closes the intake and drains the queue, so every accepted request
 * is answered before the workers exit.
 *
 * Weights come from the same eval/model_cache registry the bench suite
 * trains into: build the model with harness::trainCostModel (or any
 * loader that fills CostModel::parameters() via eval::loadCached) and
 * hand it to the server, so serving shares training artifacts instead
 * of retraining.
 *
 * ## Live calibration (opt-in: ServeConfig::calibration.enabled)
 *
 * The server can calibrate itself against traffic drift without a
 * restart. A CalibrationManager (serve/calibration.h) shadow-profiles a
 * sampled fraction of answered Cycles requests, watches the residuals
 * for drift, DPO-calibrates a CLONE of the live model in the
 * background, and hands the clone back through swapModel(). Publication
 * is RCU-style: the live model is an immutable snapshot behind a
 * shared_ptr + monotonically increasing version; workers acquire the
 * snapshot once per request, so every request is answered by exactly
 * one coherent weight generation and the retired model is freed only
 * when its last in-flight request finishes. The result cache is
 * keyed by that version (ResultKey::version), so a cached prediction
 * can never outlive the weights that produced it. With calibration
 * disabled (the default) no shadow work, profiling, or swapping
 * happens and results are bit-identical to a server without the
 * feature.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "model/cost_model.h"
#include "obs/metrics.h"
#include "serve/calibration.h"
#include "serve/request_queue.h"
#include "serve/result_cache.h"

namespace llmulator {
namespace serve {

/** Server tuning knobs. */
struct ServeConfig
{
    int workers = 4;        //!< worker thread count
    size_t queueCapacity = 256; //!< bounded queue (backpressure)
    size_t cacheCapacity = 4096; //!< result-cache entries; 0 disables
    //! Live calibration pipeline (off by default; see the file header).
    CalibrationConfig calibration;
};

/** Outcome class of an admission-controlled submit. */
enum class AdmitStatus
{
    Accepted, //!< future is valid (may already be fulfilled via cache)
    Rejected  //!< queue full at push time, or server stopped
};

/** submitIfAdmitted() result: a future only when Accepted. */
struct Admission
{
    AdmitStatus status = AdmitStatus::Rejected;
    std::future<model::NumericPrediction> future;
    bool cacheHit = false; //!< the result cache answered at submit
};

/**
 * Point-in-time server statistics snapshot. Every count is a `serve.*`
 * counter of the server's registry, named in its comment.
 */
struct ServerStats
{
    uint64_t submitted = 0;  //!< requests accepted (serve.submitted)
    uint64_t completed = 0;  //!< futures fulfilled (serve.completed)
    uint64_t cacheHits = 0;  //!< serve.cache_hits
    uint64_t cacheMisses = 0; //!< serve.cache_misses
    //! Requests the workers popped off the queue (serve.batches);
    //! submit-path cache hits never enter the queue.
    uint64_t batches = 0;
    uint64_t modelCalls = 0; //!< head decodes run (serve.model_calls)
    //! Admission refusals (serve.rejected): submitIfAdmitted() found the
    //! queue full or the server stopped. The blocking submit path never
    //! refuses.
    uint64_t rejected = 0;
    //! Submit -> fulfil latency quantiles, from the server's
    //! `serve.e2e_ms` histogram (bucket-edge quantiles; whole run, not
    //! a sliding window). Monotone: p50 <= p95 <= p99.
    double p50LatencyMs = 0;
    double p95LatencyMs = 0;
    double p99LatencyMs = 0;
    //! Queue wait (submit -> a worker takes the request) of
    //! queue-dispatched requests; submit-path cache hits never wait.
    double meanQueueWaitMs = 0;
    double queueWaitP99Ms = 0;
    //! Per-request stage means of the worker's misses: assembly (cache
    //! re-probe + encode), forward, decode, and result-cache fill.
    //! Sourced from the `serve.stage.*` histograms.
    double meanAssemblyMs = 0;
    double meanForwardMs = 0;
    double meanDecodeMs = 0;
    double meanCacheFillMs = 0;
    double throughputRps = 0; //!< completed / wall time since start
    size_t queueDepth = 0;
    //! Live-calibration view (all zero when calibration is disabled,
    //! except modelVersion which also reflects manual swapModel calls).
    uint64_t modelVersion = 0;   //!< current weight generation
    uint64_t calibSwaps = 0;     //!< hot-swaps performed
    uint64_t shadowProfiled = 0; //!< shadow samples simulated
    double driftScore = 0;       //!< current CUSUM drift statistic
    double meanAbsResidual = 0;  //!< rolling mean |residual|

    /** cacheHits / (cacheHits + cacheMisses), 0 when no lookups. */
    double hitRate() const
    {
        uint64_t total = cacheHits + cacheMisses;
        return total == 0 ? 0.0 : double(cacheHits) / double(total);
    }
};

/** Cached, multi-threaded front end over one CostModel. */
class PredictionServer
{
  public:
    /** Takes ownership of a constructed (usually trained) model. */
    PredictionServer(std::unique_ptr<model::CostModel> model,
                     const ServeConfig& cfg = {});
    ~PredictionServer();

    PredictionServer(const PredictionServer&) = delete;
    PredictionServer& operator=(const PredictionServer&) = delete;

    /**
     * Enqueue one prediction. The graph and data are copied into the
     * request, so the caller may free them immediately. `data` may be
     * nullptr for static metrics. The future carries the prediction, or
     * an exception if the server was stopped before accepting it.
     */
    std::future<model::NumericPrediction>
    submitAsync(const dfir::DataflowGraph& g, const dfir::RuntimeData* data,
                model::Metric metric);

    /** Blocking convenience wrapper around submitAsync(). */
    model::NumericPrediction predict(const dfir::DataflowGraph& g,
                                     const dfir::RuntimeData* data,
                                     model::Metric metric);

    /**
     * Admission-controlled submit: never blocks on a full queue. `key`
     * is makeResultKey(g, data, metric); the metric is read from it and
     * its version is ignored (the server stamps its own). Submit-path
     * cache hits are always Accepted (they bypass the queue); otherwise
     * the request is Rejected only when the queue is full or the server
     * is stopped. Refusals count as `serve.rejected`; the caller turns
     * them into an explicit OVERLOADED reply instead of backpressure.
     */
    Admission submitIfAdmitted(const ResultKey& key,
                               const dfir::DataflowGraph& g,
                               const dfir::RuntimeData* data);

    /**
     * Stop intake, answer everything already queued, join the workers.
     * Idempotent; runs automatically on destruction.
     */
    void stop();

    /** Point-in-time statistics (a view over telemetry()). */
    ServerStats stats() const;

    /**
     * This server's private always-on metrics registry (histograms
     * `serve.e2e_ms`, `serve.queue_wait_ms`, `serve.stage.*_ms`) —
     * per-instance, so concurrent or sequential servers never mix
     * telemetry. ServerStats is derived from it; benches snapshot it
     * into CSV rows via bench::dumpRegistryCsv.
     */
    const obs::Registry& telemetry() const { return telemetry_; }

    /**
     * The currently-published model snapshot (RCU read side). The
     * returned pointer stays valid — and its weights immutable — for as
     * long as the caller holds it, even across hot-swaps.
     */
    std::shared_ptr<const model::CostModel> modelSnapshot() const;

    /**
     * Publish `next` as the live model under a new, strictly increasing
     * version (stamped via CostModel::setVersion). In-flight requests
     * finish on the snapshot they already acquired; later requests and
     * cache keys use the new version. The retired model is released
     * outside the swap lock, when its last reference drops. Thread-safe;
     * called by the calibration thread and by tests.
     */
    void swapModel(std::unique_ptr<model::CostModel> next);

    /** Current weight generation (0 until the first swap). */
    uint64_t modelVersion() const
    {
        return version_.load(std::memory_order_acquire);
    }

    /**
     * Run one calibration round right now (ignoring drift), if the
     * manager exists and has shadow-profiled at least one sample.
     * Returns whether a round (and therefore a swap) ran.
     */
    bool forceCalibrationRound();

    const ServeConfig& config() const { return cfg_; }

    /** The result cache (thread-safe), for snapshot save and restore. */
    ResultCache& cache() { return cache_; }

  private:
    struct Request
    {
        dfir::DataflowGraph graph;
        dfir::RuntimeData data;
        bool hasData = false;
        model::Metric metric = model::Metric::Power;
        ResultKey key;
        uint64_t id = 0; //!< trace-span correlation id (1-based)
        std::promise<model::NumericPrediction> promise;
        std::chrono::steady_clock::time_point submitTime;
    };

    void workerLoop();
    /** Answer one popped request on the current model snapshot. */
    void process(Request& req);
    void fulfil(Request& req, const model::NumericPrediction& pred);
    /**
     * The one submit path: refuse when stopped, answer cache hits on the
     * spot, else queue a copy of the graph and data — by blocking push,
     * or with `admit` by a tryPush that refuses when the queue is full.
     * Only the admission path counts refusals.
     */
    Admission submit(const ResultKey& key, const dfir::DataflowGraph& g,
                     const dfir::RuntimeData* data, bool admit);

    ServeConfig cfg_;
    //! RCU write side: the published snapshot, guarded by modelMu_ (the
    //! version counter is read lock-free on the submit path).
    mutable std::mutex modelMu_;
    std::shared_ptr<const model::CostModel> model_;
    std::atomic<uint64_t> version_{0};
    ResultCache cache_;
    BoundedQueue<Request> queue_;
    std::vector<std::thread> workers_;
    std::chrono::steady_clock::time_point startTime_;

    std::atomic<bool> stopped_{false};
    std::atomic<uint64_t> reqSeq_{0};

    //! Per-instance registry; always-on (not LLMULATOR_METRICS-gated)
    //! because ServerStats is defined as a view over it. Declared
    //! before the histogram references bound to it in the ctor.
    obs::Registry telemetry_{/*alwaysOn=*/true};
    obs::Histogram& e2eMs_;       //!< serve.e2e_ms (submit -> fulfil)
    obs::Histogram& queueWaitMs_; //!< serve.queue_wait_ms
    obs::Histogram& assemblyMs_;  //!< serve.stage.assembly_ms
    obs::Histogram& forwardMs_;   //!< serve.stage.forward_ms
    obs::Histogram& decodeMs_;    //!< serve.stage.decode_ms
    obs::Histogram& cacheFillMs_; //!< serve.stage.cache_fill_ms
    obs::Counter& submitted_;     //!< serve.submitted
    obs::Counter& completed_;     //!< serve.completed
    obs::Counter& cacheHits_;     //!< serve.cache_hits
    obs::Counter& cacheMisses_;   //!< serve.cache_misses
    obs::Counter& batches_;       //!< serve.batches (popped requests)
    obs::Counter& modelCalls_;    //!< serve.model_calls
    obs::Counter& rejected_;      //!< serve.rejected (queue-full refusals)
    obs::Counter& swapCount_;     //!< calib.swaps

    //! Declared after telemetry_ (holds references into it) so it is
    //! destroyed first; null when calibration is disabled.
    std::unique_ptr<CalibrationManager> calib_;
};

} // namespace serve
} // namespace llmulator

#endif // LLMULATOR_SERVE_SERVER_H
