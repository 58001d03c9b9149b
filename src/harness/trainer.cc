#include "harness/trainer.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/common.h"
#include "util/env.h"
#include "util/rng.h"

namespace llmulator {
namespace harness {

namespace {

/**
 * Fixed pool of worker threads, created once per training run. run()
 * executes job(worker_index) on every worker and blocks until all have
 * finished — a fork/join barrier per minibatch. A pool constructed with
 * one worker runs jobs inline on the caller's thread (same code path,
 * no scheduling; results are identical either way by design).
 */
class WorkerPool
{
  public:
    explicit WorkerPool(int workers)
    {
        if (workers <= 1)
            return;
        threads_.reserve(workers);
        for (int t = 0; t < workers; ++t)
            threads_.emplace_back([this, t] { workerLoop(t); });
    }

    ~WorkerPool()
    {
        if (threads_.empty())
            return;
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        wake_.notify_all();
        for (auto& th : threads_)
            th.join();
    }

    void
    run(const std::function<void(int)>& job)
    {
        if (threads_.empty()) {
            job(0);
            return;
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            job_ = &job;
            ++generation_;
            remaining_ = static_cast<int>(threads_.size());
        }
        wake_.notify_all();
        std::unique_lock<std::mutex> lock(mu_);
        done_.wait(lock, [this] { return remaining_ == 0; });
        job_ = nullptr;
    }

  private:
    void
    workerLoop(int index)
    {
        uint64_t seen = 0;
        for (;;) {
            const std::function<void(int)>* job = nullptr;
            {
                std::unique_lock<std::mutex> lock(mu_);
                wake_.wait(lock, [this, seen] {
                    return stop_ || generation_ != seen;
                });
                if (stop_)
                    return;
                seen = generation_;
                job = job_;
            }
            (*job)(index);
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (--remaining_ == 0)
                    done_.notify_one();
            }
        }
    }

    std::vector<std::thread> threads_;
    std::mutex mu_;
    std::condition_variable wake_, done_;
    const std::function<void(int)>* job_ = nullptr;
    uint64_t generation_ = 0;
    int remaining_ = 0;
    bool stop_ = false;
};

} // namespace

int
resolveTrainThreads(int requested)
{
    if (requested > 0)
        return requested;
    int n = util::envInt("LLMULATOR_TRAIN_THREADS", 0);
    if (n > 0)
        return n;
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::min(8u, std::max(1u, hw)));
}

TrainStats
trainMinibatch(const std::vector<nn::TensorPtr>& master,
               const std::vector<TrainReplica>& replicas,
               size_t num_samples, const TrainerConfig& cfg,
               const std::vector<double>& sampleCost)
{
    LLM_CHECK(!replicas.empty(), "trainMinibatch needs >= 1 replica");
    for (const auto& r : replicas)
        LLM_CHECK(r.params.size() == master.size(),
                  "replica parameter list misaligned with master");
    LLM_CHECK(sampleCost.empty() || sampleCost.size() == num_samples,
              "sampleCost must be empty or hold one estimate per sample");

    const int threads = static_cast<int>(replicas.size());
    const size_t batch = static_cast<size_t>(std::max(1, cfg.batchSize));

    TrainStats stats;
    stats.threads = threads;
    if (num_samples == 0)
        return stats;

    nn::AdamW opt(master, cfg.opt);
    util::Rng rng(cfg.seed);
    std::vector<size_t> order(num_samples);
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    // One gradient slot and loss cell per batch position; the reduction
    // below walks them in position order, which is what makes the math
    // independent of worker scheduling.
    std::vector<nn::GradBuffer> slots(std::min(batch, num_samples));
    std::vector<double> slotLoss(slots.size(), 0.0);
    // Claim order of the current batch's positions, and the cursor the
    // workers claim from.
    std::vector<size_t> claimOrder;
    std::atomic<size_t> nextClaim{0};

    WorkerPool pool(threads);

    // Speed-only telemetry (global registry, gated): step/sample
    // counters plus a per-step gradient-norm gauge. lastGradNorm() is
    // computed by AdamW::step() regardless, so recording it adds no
    // math; nothing here feeds back into training.
    auto recordStepMetrics = [&](size_t nbatch) {
        if (!obs::metricsEnabled())
            return;
        static obs::Counter& steps =
            obs::registry().counter("trainer.steps");
        static obs::Counter& samples =
            obs::registry().counter("trainer.samples");
        static obs::Gauge& gradNorm =
            obs::registry().gauge("trainer.grad_norm");
        steps.add(1);
        samples.add(nbatch);
        gradNorm.set(opt.lastGradNorm());
    };

    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        OBS_SPAN("trainer.epoch");
        rng.shuffle(order);
        double lossSum = 0.0;
        for (size_t start = 0; start < num_samples; start += batch) {
            OBS_SPAN("trainer.minibatch");
            const size_t nb = std::min(batch, num_samples - start);
            const float inv = 1.f / static_cast<float>(nb);

            // Claim order: largest estimated cost first, so the long
            // samples start early and the short ones fill in behind
            // them; ties and the no-estimate case keep position order.
            claimOrder.resize(nb);
            for (size_t p = 0; p < nb; ++p)
                claimOrder[p] = p;
            if (!sampleCost.empty())
                std::stable_sort(claimOrder.begin(), claimOrder.end(),
                                 [&](size_t x, size_t y) {
                                     return sampleCost[order[start + x]] >
                                            sampleCost[order[start + y]];
                                 });
            nextClaim = 0;

            // Fork: each worker syncs its replica to the master weights,
            // then claims batch positions from the shared cursor until
            // none are left.
            pool.run([&](int worker) {
                const TrainReplica& rep = replicas[worker];
                for (size_t i = 0; i < master.size(); ++i)
                    if (rep.params[i] != master[i])
                        rep.params[i]->value = master[i]->value;
                for (size_t c = nextClaim.fetch_add(1); c < nb;
                     c = nextClaim.fetch_add(1)) {
                    const size_t p = claimOrder[c];
                    nn::clearGrads(rep.params);
                    nn::TensorPtr loss = rep.sampleLoss(order[start + p]);
                    loss->backward();
                    slots[p].captureFrom(rep.params);
                    slotLoss[p] = static_cast<double>(loss->value[0]);
                }
            });

            // Join + deterministic reduce: mean of per-sample gradients,
            // summed in batch-position order, then one optimizer step.
            opt.zeroGrad();
            for (size_t p = 0; p < nb; ++p) {
                slots[p].addTo(master, inv);
                lossSum += slotLoss[p];
            }
            opt.step();
            recordStepMetrics(nb);
            ++stats.steps;
            stats.samples += static_cast<long>(nb);
        }
        stats.epochLoss.push_back(lossSum /
                                  static_cast<double>(num_samples));
        if (obs::metricsEnabled())
            obs::registry().gauge("trainer.loss").set(
                stats.epochLoss.back());
        if (!cfg.tag.empty()) {
            std::printf("[train] %s: epoch %d/%d done (loss %.5f)\n",
                        cfg.tag.c_str(), epoch + 1, cfg.epochs,
                        stats.epochLoss.back());
            std::fflush(stdout);
        }
    }
    return stats;
}

} // namespace harness
} // namespace llmulator
