#include "serve/server.h"

#include <algorithm>
#include <stdexcept>

#include "dfir/ir.h"
#include "model/fast_encoder.h"
#include "obs/trace.h"
#include "util/common.h"

namespace llmulator {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Record one request stage in its histogram and, traced, as a span. */
void
recordStage(obs::Histogram& ms, const char* span, Clock::time_point from,
            Clock::time_point to, uint64_t id)
{
    ms.record(msBetween(from, to));
    if (obs::traceEnabled())
        obs::recordSpan(span, from, to, id);
}

/** Clamp degenerate knobs so config() reports the effective values. */
ServeConfig
normalized(ServeConfig cfg)
{
    cfg.workers = std::max(1, cfg.workers);
    cfg.queueCapacity = std::max<size_t>(1, cfg.queueCapacity);
    return cfg;
}

} // namespace

PredictionServer::PredictionServer(std::unique_ptr<model::CostModel> model,
                                   const ServeConfig& cfg)
    : cfg_(normalized(cfg)),
      model_(std::move(model)),
      cache_(cfg_.cacheCapacity),
      queue_(cfg_.queueCapacity),
      startTime_(Clock::now()),
      e2eMs_(telemetry_.histogram("serve.e2e_ms")),
      queueWaitMs_(telemetry_.histogram("serve.queue_wait_ms")),
      assemblyMs_(telemetry_.histogram("serve.stage.assembly_ms")),
      forwardMs_(telemetry_.histogram("serve.stage.forward_ms")),
      decodeMs_(telemetry_.histogram("serve.stage.decode_ms")),
      cacheFillMs_(telemetry_.histogram("serve.stage.cache_fill_ms")),
      submitted_(telemetry_.counter("serve.submitted")),
      completed_(telemetry_.counter("serve.completed")),
      cacheHits_(telemetry_.counter("serve.cache_hits")),
      cacheMisses_(telemetry_.counter("serve.cache_misses")),
      batches_(telemetry_.counter("serve.batches")),
      modelCalls_(telemetry_.counter("serve.model_calls")),
      rejected_(telemetry_.counter("serve.rejected")),
      swapCount_(telemetry_.counter("calib.swaps"))
{
    LLM_CHECK(model_ != nullptr, "PredictionServer needs a model");
    version_.store(model_->version(), std::memory_order_release);
    if (cfg_.calibration.enabled) {
        calib_ = std::make_unique<CalibrationManager>(
            cfg_.calibration, [this] { return modelSnapshot(); },
            [this](std::unique_ptr<model::CostModel> next) {
                swapModel(std::move(next));
            },
            telemetry_);
        calib_->start();
    }
    workers_.reserve(cfg_.workers);
    for (int i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

PredictionServer::~PredictionServer()
{
    stop();
}

Admission
PredictionServer::submit(const ResultKey& key, const dfir::DataflowGraph& g,
                         const dfir::RuntimeData* data, bool admit)
{
    Admission adm; // Rejected until proven otherwise
    if (stopped_.load(std::memory_order_acquire)) {
        if (admit)
            rejected_.add(1);
        return adm;
    }

    Request req;
    req.id = reqSeq_.fetch_add(1, std::memory_order_relaxed) + 1;
    req.key = key;
    // Stamped with the version current at probe time; workers restamp
    // from their acquired snapshot before computing, so every cache
    // entry is labeled with the exact weights that produced it.
    req.key.version = version_.load(std::memory_order_acquire);
    req.metric = static_cast<model::Metric>(key.metric);
    req.submitTime = Clock::now();

    // Cache hits bypass the queue entirely, so they are admitted even
    // under full load — answering a repeat costs no model work.
    model::NumericPrediction cached;
    if (cache_.get(req.key, cached)) {
        adm.future = req.promise.get_future();
        submitted_.add(1);
        cacheHits_.add(1);
        fulfil(req, cached);
        adm.status = AdmitStatus::Accepted;
        adm.cacheHit = true;
        return adm;
    }

    req.graph = g;
    if (data) {
        req.data = *data;
        req.hasData = true;
    }
    auto future = req.promise.get_future();
    const bool queued = admit ? queue_.tryPush(std::move(req))
                              : queue_.push(std::move(req));
    if (!queued) {
        // The queue is full (admission path only), or a stop() won.
        if (admit)
            rejected_.add(1);
        return adm;
    }
    // Counted only once accepted, so submitted == completed holds after
    // a drain even when a submit races stop().
    submitted_.add(1);
    adm.status = AdmitStatus::Accepted;
    adm.future = std::move(future);
    return adm;
}

std::future<model::NumericPrediction>
PredictionServer::submitAsync(const dfir::DataflowGraph& g,
                              const dfir::RuntimeData* data,
                              model::Metric metric)
{
    Admission adm =
        submit(makeResultKey(g, data, metric), g, data, /*admit=*/false);
    if (adm.status == AdmitStatus::Accepted)
        return std::move(adm.future);
    // The blocking path only refuses a stopped server.
    std::promise<model::NumericPrediction> refused;
    refused.set_exception(std::make_exception_ptr(
        std::runtime_error("PredictionServer is stopped")));
    return refused.get_future();
}

model::NumericPrediction
PredictionServer::predict(const dfir::DataflowGraph& g,
                          const dfir::RuntimeData* data, model::Metric metric)
{
    return submitAsync(g, data, metric).get();
}

Admission
PredictionServer::submitIfAdmitted(const ResultKey& key,
                                   const dfir::DataflowGraph& g,
                                   const dfir::RuntimeData* data)
{
    return submit(key, g, data, /*admit=*/true);
}

void
PredictionServer::workerLoop()
{
    Request req;
    while (queue_.pop(req))
        process(req);
}

void
PredictionServer::process(Request& req)
{
    // The RCU snapshot, acquired once per request: the request is
    // answered by ONE coherent weight generation even if a hot-swap
    // lands while it runs.
    const std::shared_ptr<const model::CostModel> snap = modelSnapshot();
    const model::CostModel& m = *snap;
    batches_.add(1);

    // Stage boundaries are stamped so the request's end-to-end span
    // strictly contains its queue wait, forward and decode as disjoint
    // sub-intervals (pinned by test_serve): decode and cache fill are
    // timed BEFORE fulfil runs. The queue-wait span is retroactive
    // because the interval started on the client's thread.
    const auto start = Clock::now();
    recordStage(queueWaitMs_, "serve.queue_wait", req.submitTime, start,
                req.id);

    // Restamp with the acquired snapshot's version: a request submitted
    // before a hot-swap but processed after it must probe and fill the
    // NEW version's cache entries, never the retired one's.
    req.key.version = m.version();
    model::NumericPrediction pred;
    // Another worker may have finished this key since submission.
    if (cache_.get(req.key, pred)) {
        cacheHits_.add(1);
        fulfil(req, pred);
        return;
    }
    if (cache_.enabled())
        cacheMisses_.add(1);

    // Assembly stage: cache probe + tokenize/encode.
    const model::EncodedProgram ep =
        m.encode(req.graph, req.hasData ? &req.data : nullptr);
    const auto assemblyEnd = Clock::now();
    recordStage(assemblyMs_, "serve.assembly", start, assemblyEnd, req.id);

    // The full autograd-free forward CostModel::predict runs. The
    // prefix-reuse cache stays off: its documented Class-I
    // approximation would make results depend on request order.
    const nn::TensorPtr pooled =
        model::InferenceSession(m).forwardPooledBatch({&ep});
    const auto forwardEnd = Clock::now();
    recordStage(forwardMs_, "serve.forward", assemblyEnd, forwardEnd, req.id);

    pred = m.head(req.metric).decode(pooled);
    modelCalls_.add(1);
    const auto decodeEnd = Clock::now();
    recordStage(decodeMs_, "serve.decode", forwardEnd, decodeEnd, req.id);

    cache_.put(req.key, pred);
    recordStage(cacheFillMs_, "serve.cache_fill", decodeEnd, Clock::now(),
                req.id);

    fulfil(req, pred);
    // Shadow stream: offer freshly computed dynamic-cycles answers for
    // background profiling (fulfil() only consumes the promise; the
    // graph and data stay owned by the request).
    if (calib_ && req.hasData && req.metric == model::Metric::Cycles)
        calib_->offer(req.graph, req.data, pred.value);
}

void
PredictionServer::fulfil(Request& req, const model::NumericPrediction& pred)
{
    recordStage(e2eMs_, "serve.request", req.submitTime, Clock::now(),
                req.id);
    completed_.add(1);
    req.promise.set_value(pred);
}

void
PredictionServer::stop()
{
    if (stopped_.exchange(true, std::memory_order_acq_rel))
        return;
    queue_.close(); // workers drain the backlog, then exit
    for (std::thread& w : workers_)
        if (w.joinable())
            w.join();
    // Workers no longer offer shadow samples; now the calibration
    // thread can be stopped (it may still complete an in-flight round
    // and swap — harmless, nothing serves anymore).
    if (calib_)
        calib_->stop();
}

std::shared_ptr<const model::CostModel>
PredictionServer::modelSnapshot() const
{
    std::lock_guard<std::mutex> lk(modelMu_);
    return model_;
}

void
PredictionServer::swapModel(std::unique_ptr<model::CostModel> next)
{
    LLM_CHECK(next != nullptr, "swapModel() needs a model");
    OBS_SPAN("calib.swap");
    std::shared_ptr<const model::CostModel> retired;
    {
        std::lock_guard<std::mutex> lk(modelMu_);
        const uint64_t v = version_.load(std::memory_order_relaxed) + 1;
        next->setVersion(v);
        retired = std::move(model_);
        model_ = std::shared_ptr<const model::CostModel>(std::move(next));
        version_.store(v, std::memory_order_release);
    }
    swapCount_.add(1);
    // `retired` drops here, outside the lock: workers mid-request still
    // hold their snapshot, so the old weights die with the last of them.
}

bool
PredictionServer::forceCalibrationRound()
{
    return calib_ ? calib_->runRoundNow() : false;
}

ServerStats
PredictionServer::stats() const
{
    ServerStats s;
    s.submitted = submitted_.total();
    s.completed = completed_.total();
    s.cacheHits = cacheHits_.total();
    s.cacheMisses = cacheMisses_.total();
    s.batches = batches_.total();
    s.modelCalls = modelCalls_.total();
    s.rejected = rejected_.total();
    s.queueDepth = queue_.depth();

    obs::HistogramSnapshot e2e = e2eMs_.snapshot();
    s.p50LatencyMs = e2e.quantile(0.50);
    s.p95LatencyMs = e2e.quantile(0.95);
    s.p99LatencyMs = e2e.quantile(0.99);
    obs::HistogramSnapshot qw = queueWaitMs_.snapshot();
    s.meanQueueWaitMs = qw.mean();
    s.queueWaitP99Ms = qw.quantile(0.99);
    s.meanAssemblyMs = assemblyMs_.snapshot().mean();
    s.meanForwardMs = forwardMs_.snapshot().mean();
    s.meanDecodeMs = decodeMs_.snapshot().mean();
    s.meanCacheFillMs = cacheFillMs_.snapshot().mean();

    s.modelVersion = version_.load(std::memory_order_acquire);
    s.calibSwaps = swapCount_.total();
    if (calib_) {
        CalibrationStats cs = calib_->stats();
        s.shadowProfiled = cs.profiled;
        s.driftScore = cs.driftScore;
        s.meanAbsResidual = cs.meanAbsResidual;
    }

    double elapsed = std::chrono::duration<double>(
                         Clock::now() - startTime_)
                         .count();
    s.throughputRps = elapsed <= 0 ? 0.0 : double(s.completed) / elapsed;
    return s;
}

} // namespace serve
} // namespace llmulator
