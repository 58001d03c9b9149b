#ifndef LLMULATOR_HARNESS_TRAINER_H
#define LLMULATOR_HARNESS_TRAINER_H

/**
 * @file
 * Shared deterministic minibatch training engine.
 *
 * Every learned model in the suite (the LLMulator cost model and the
 * TLP / GNNHLS / Tenset-MLP baselines) trains through trainMinibatch():
 * samples are shuffled once per epoch, grouped into minibatches, and the
 * per-sample forward/backward passes of a batch run across a fixed pool
 * of worker threads. Each worker owns a private model *replica* whose
 * parameter values are synced from the master before every batch, so
 * concurrent backward passes never touch shared gradient state.
 *
 * Workers claim batch positions from a shared cursor, largest estimated
 * cost first when the caller supplies per-sample estimates (position
 * order otherwise), so one long sample does not leave the other workers
 * idle at the batch barrier.
 *
 * Determinism guarantee: each sample position in a batch captures its
 * replica's gradients into a dedicated nn::GradBuffer slot, and the
 * reducer adds the slots into the master parameters in fixed
 * sample-index order (never completion or claim order) before a single
 * AdamW::step(). The shuffle order depends only on cfg.seed. The loss
 * trajectory and final parameters are therefore bit-identical for 1 vs
 * N worker threads and for any cost estimate — which is why the model
 * cache deliberately excludes the thread count and the estimates from
 * its keys.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/optim.h"
#include "nn/tensor.h"

namespace llmulator {
namespace harness {

/** Engine knobs (model-agnostic; see harness::TrainConfig for defaults). */
struct TrainerConfig
{
    int epochs = 1;
    int batchSize = 8;      //!< samples per optimizer step (math-affecting)
    uint64_t seed = 99;     //!< shuffle seed (math-affecting)
    nn::AdamWConfig opt;    //!< optimizer hyperparameters
    std::string tag;        //!< non-empty: per-epoch progress on stdout
};

/**
 * One model replica visible to the trainer. params must be aligned
 * index-for-index with the master list passed to trainMinibatch();
 * sampleLoss builds the autograd loss for one sample index against this
 * replica's parameters. Exactly one worker thread drives each replica,
 * so sampleLoss needs no internal locking. The master's own parameter
 * list may serve as replica 0 (aliased entries skip the value sync).
 */
struct TrainReplica
{
    std::vector<nn::TensorPtr> params;
    std::function<nn::TensorPtr(size_t)> sampleLoss;
};

/** Deterministic per-run training statistics. */
struct TrainStats
{
    std::vector<double> epochLoss; //!< mean per-sample loss, per epoch
    long steps = 0;                //!< optimizer steps taken
    long samples = 0;              //!< sample visits (epochs * corpus)
    int threads = 0;               //!< worker threads used
};

/**
 * Worker threads to use for training: a positive request passes
 * through; <= 0 resolves to $LLMULATOR_TRAIN_THREADS when set, else
 * min(8, hardware_concurrency). Never affects results, only speed.
 */
int resolveTrainThreads(int requested);

/**
 * Train master parameters with AdamW over minibatches of num_samples
 * samples. replicas.size() fixes the worker-thread count (one thread per
 * replica; a single replica runs inline on the caller's thread). Batch
 * gradients are the mean of the per-sample gradients, reduced in sample
 * order as described above. sampleCost, if not empty, holds one relative
 * work estimate per sample index and only orders the claiming (speed
 * only: it never changes a bit of the result).
 */
TrainStats trainMinibatch(const std::vector<nn::TensorPtr>& master,
                          const std::vector<TrainReplica>& replicas,
                          size_t num_samples, const TrainerConfig& cfg,
                          const std::vector<double>& sampleCost = {});

} // namespace harness
} // namespace llmulator

#endif // LLMULATOR_HARNESS_TRAINER_H
