#include "serve/server.h"

#include <algorithm>
#include <stdexcept>

#include "dfir/ir.h"
#include "obs/trace.h"
#include "util/common.h"

namespace llmulator {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

//! How long a worker waits for stragglers to fill a micro-batch.
constexpr std::chrono::microseconds kBatchTimeout{200};

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Clamp degenerate knobs so config() reports the effective values. */
ServeConfig
normalized(ServeConfig cfg)
{
    cfg.workers = std::max(1, cfg.workers);
    cfg.batchMax = std::max(1, cfg.batchMax);
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
      dispatched_(telemetry_.counter("serve.dispatched")),
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
    // One autograd-free inference session per worker: sessions carry
    // mutable state (stats, prefix cache) and so are thread-confined,
    // while the underlying model is shared read-only. The model is an
    // RCU snapshot acquired once per micro-batch — the whole batch is
    // answered by ONE coherent weight generation even if a hot-swap
    // lands mid-batch — and the session is rebuilt when the snapshot
    // changes (it holds a reference into the old model).
    std::shared_ptr<const model::CostModel> snap = modelSnapshot();
    auto session = std::make_unique<model::InferenceSession>(*snap);
    std::vector<Request> batch;
    while (queue_.popBatch(batch, static_cast<size_t>(cfg_.batchMax),
                           kBatchTimeout)) {
        std::shared_ptr<const model::CostModel> cur = modelSnapshot();
        if (cur != snap) {
            snap = std::move(cur);
            session = std::make_unique<model::InferenceSession>(*snap);
        }
        processBatch(batch, *session, *snap);
    }
}

void
PredictionServer::processBatch(std::vector<Request>& batch,
                               model::InferenceSession& session,
                               const model::CostModel& m)
{
    // A request sits in exactly one batch, so the first one's id also
    // names the batch in the trace.
    const uint64_t batchId = batch.front().id;
    batches_.add(1);
    dispatched_.add(batch.size());

    // Stage boundaries are stamped so every queue-dispatched request's
    // end-to-end span strictly contains its queue-wait, the batch
    // forward, and its metric bucket's decode as disjoint sub-intervals
    // (pinned by test_serve): decode and cache fill are timed BEFORE
    // any of their bucket's fulfil calls run.
    const auto batchStart = Clock::now();
    OBS_SPAN_ID("serve.batch", batchId);

    // Queue wait per member: submit -> micro-batch start. The span is
    // retroactive because the interval started on the client's thread.
    for (Request& req : batch) {
        queueWaitMs_.record(msBetween(req.submitTime, batchStart));
        if (obs::traceEnabled())
            obs::recordSpan("serve.queue_wait", req.submitTime, batchStart,
                            req.id);
    }

    // Group cache misses by (program, input): those requests share one
    // tokenization + encoder forward, the dominant per-request cost.
    // Requests for the same key additionally share the head decode.
    struct Group
    {
        uint64_t program;
        uint64_t input;
        std::vector<Request*> members;
    };
    std::vector<Group> groups;

    model::NumericPrediction cached;
    for (Request& req : batch) {
        // Restamp with the acquired snapshot's version: a request
        // submitted before a hot-swap but processed after it must probe
        // and fill the NEW version's cache entries, never the retired
        // one's.
        req.key.version = m.version();
        // A sibling batch may have finished this key since submission.
        if (cache_.get(req.key, cached)) {
            cacheHits_.add(1);
            fulfil(req, cached);
            continue;
        }
        if (cache_.enabled())
            cacheMisses_.add(1);
        auto it = std::find_if(groups.begin(), groups.end(), [&](Group& g) {
            return g.program == req.key.program && g.input == req.key.input;
        });
        if (it == groups.end()) {
            groups.push_back({req.key.program, req.key.input, {}});
            it = groups.end() - 1;
        }
        it->members.push_back(&req);
    }

    if (groups.empty())
        return;

    // ONE batched autograd-free encoder forward for the whole
    // micro-batch: every distinct (program, input) contributes one row.
    // Bit-identical to running InferenceSession::pooled() per group
    // sequentially (forwardPooledBatch's contract), so batching changes
    // throughput, never results. The prefix-reuse cache stays off: its
    // documented Class-I approximation would make results depend on
    // request order, breaking the batched == sequential guarantee.
    std::vector<model::EncodedProgram> eps;
    std::vector<const model::EncodedProgram*> epPtrs;
    eps.reserve(groups.size());
    epPtrs.reserve(groups.size());
    for (Group& group : groups) {
        Request& first = *group.members.front();
        eps.push_back(m.encode(first.graph,
                               first.hasData ? &first.data : nullptr));
    }
    for (const auto& ep : eps)
        epPtrs.push_back(&ep);

    // Assembly stage: cache probe + grouping + tokenize/encode.
    const auto assemblyEnd = Clock::now();
    assemblyMs_.record(msBetween(batchStart, assemblyEnd));
    if (obs::traceEnabled())
        obs::recordSpan("serve.batch_assembly", batchStart, assemblyEnd,
                        batchId);

    nn::TensorPtr pooled = session.forwardPooledBatch(epPtrs);

    const auto forwardEnd = Clock::now();
    forwardMs_.record(msBetween(assemblyEnd, forwardEnd));
    if (obs::traceEnabled())
        obs::recordSpan("serve.forward", assemblyEnd, forwardEnd, batchId);

    // One decode per distinct key, bucketed by metric so every bucket
    // shares a single batched beam-search decode; duplicate requests in
    // the same batch reuse the freshly computed prediction.
    struct Job
    {
        ResultKey key;
        size_t groupIdx;
        std::vector<Request*> requests;
    };
    std::vector<Job> jobs;
    for (size_t gi = 0; gi < groups.size(); ++gi) {
        for (Request* rp : groups[gi].members) {
            auto jit = std::find_if(
                jobs.begin(), jobs.end(),
                [&](const Job& j) { return j.key == rp->key; });
            if (jit == jobs.end()) {
                jobs.push_back({rp->key, gi, {rp}});
            } else {
                jit->requests.push_back(rp);
            }
        }
    }

    const int dim = pooled->cols;
    for (int mi = 0; mi < model::kNumMetrics; ++mi) {
        std::vector<Job*> bucket;
        for (Job& j : jobs)
            if (j.key.metric == mi)
                bucket.push_back(&j);
        if (bucket.empty())
            continue;
        const auto decodeStart = Clock::now();
        // Gather the bucket's pooled rows (row copies preserve bits).
        std::vector<float> rows(bucket.size() * size_t(dim));
        for (size_t bi = 0; bi < bucket.size(); ++bi) {
            const float* src =
                pooled->value.data() + bucket[bi]->groupIdx * size_t(dim);
            std::copy(src, src + dim, rows.begin() + bi * size_t(dim));
        }
        auto bucketPooled = nn::Tensor::fromData(
            static_cast<int>(bucket.size()), dim, std::move(rows));
        std::vector<model::NumericPrediction> preds =
            m.head(static_cast<model::Metric>(mi)).decodeBatch(bucketPooled);
        modelCalls_.add(preds.size());

        const auto decodeEnd = Clock::now();
        decodeMs_.record(msBetween(decodeStart, decodeEnd));
        if (obs::traceEnabled())
            obs::recordSpan("serve.decode", decodeStart, decodeEnd, batchId);

        // Cache fill for the whole bucket, then fulfil: the fill is
        // timed before any member's end-to-end span closes.
        for (size_t bi = 0; bi < bucket.size(); ++bi)
            cache_.put(bucket[bi]->key, preds[bi]);
        const auto fillEnd = Clock::now();
        cacheFillMs_.record(msBetween(decodeEnd, fillEnd));
        if (obs::traceEnabled())
            obs::recordSpan("serve.cache_fill", decodeEnd, fillEnd, batchId);

        for (size_t bi = 0; bi < bucket.size(); ++bi)
            for (Request* rp : bucket[bi]->requests) {
                fulfil(*rp, preds[bi]);
                // Shadow stream: offer freshly computed dynamic-cycles
                // answers for background profiling (fulfil() only
                // consumes the promise; the graph/data stay owned by
                // the batch until processBatch returns).
                if (calib_ && rp->hasData &&
                    rp->metric == model::Metric::Cycles)
                    calib_->offer(rp->graph, rp->data, preds[bi].value);
            }
    }
}

void
PredictionServer::fulfil(Request& req, const model::NumericPrediction& pred)
{
    const auto now = Clock::now();
    e2eMs_.record(msBetween(req.submitTime, now));
    if (obs::traceEnabled())
        obs::recordSpan("serve.request", req.submitTime, now, req.id);
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
    // `retired` drops here, outside the lock: workers mid-batch still
    // hold their snapshot, so the old weights die with the last batch.
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
    s.meanBatch = s.batches == 0 ? 0.0
                                 : double(dispatched_.total()) /
                                       double(s.batches);
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
