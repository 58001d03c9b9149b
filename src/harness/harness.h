#ifndef LLMULATOR_HARNESS_HARNESS_H
#define LLMULATOR_HARNESS_HARNESS_H

/**
 * @file
 * Shared experiment harness: dataset assembly, model training with on-disk
 * caching, and per-workload evaluation loops. Every bench binary drives
 * its table/figure through these entry points so training artifacts are
 * shared across the suite.
 */

#include <functional>
#include <memory>
#include <string>

#include "baselines/gnnhls.h"
#include "baselines/tenset_mlp.h"
#include "baselines/tlp.h"
#include "harness/trainer.h"
#include "model/cost_model.h"
#include "model/fast_encoder.h"
#include "synth/dataset.h"
#include "workloads/workloads.h"

namespace llmulator {
namespace harness {

/**
 * Training-loop knobs (shared by all learned models). All training runs
 * through the deterministic minibatch engine in harness/trainer.h; the
 * fields marked math-affecting are part of every model-cache key.
 */
struct TrainConfig
{
    int epochs = 6;        //!< math-affecting
    float lr = 2e-3f;      //!< math-affecting
    uint64_t seed = 99;    //!< math-affecting (epoch shuffle order)
    /** Samples per optimizer step (gradients are minibatch means). */
    int batchSize = 8;     //!< math-affecting
    /**
     * Worker threads for the engine; <= 0 resolves through
     * resolveTrainThreads() ($LLMULATOR_TRAIN_THREADS, else hardware).
     * Training is bit-identical for any thread count, so this knob is
     * deliberately NOT part of the model-cache key.
     */
    int trainThreads = 0;
};

/**
 * Smoke mode shrinks the default dataset and training schedule so every
 * example/bench finishes in seconds instead of minutes. Enabled by the
 * LLMULATOR_SMOKE environment variable (any value except "0") or
 * programmatically via forceSmokeMode() (the bench `--quick` flag).
 */
bool smokeMode();

/** Override the LLMULATOR_SMOKE environment detection. */
void forceSmokeMode(bool on);

/** Default synthesizer config shared by the bench suite (cache-stable). */
synth::SynthConfig defaultSynthConfig();

/** Default LLMulator config (ModelScale::Small, progressive encoding). */
model::CostModelConfig defaultOursConfig();

/** NoEnc ablation config (whole-number tokens, Table 3 "NoEnc" columns). */
model::CostModelConfig noEncConfig();

/** Default training schedule shared by the bench suite. */
TrainConfig defaultTrainConfig();

/**
 * The default training corpus: the Section 6 synthesizer output plus
 * LLM-style mutations of the evaluation workload *families* (never the
 * evaluation instances themselves) — the synthesizer's stage-3 coverage of
 * "realistic scenarios" (Section 6.1). All models in a bench train on the
 * same corpus, mirroring the paper's fairness note (Section 7.1).
 */
synth::Dataset defaultDataset(const synth::SynthConfig& cfg = {});

/** Append mutated variants of the given workloads to a dataset. */
void addWorkloadFamilyData(synth::Dataset& ds,
                           const std::vector<workloads::Workload>& ws,
                           int variants_per_workload, uint64_t seed);

/**
 * Train (or load from cache) a CostModel on the dataset. The cache key
 * combines 'tag' with the model config, dataset identity and every
 * math-affecting TrainConfig field.
 */
std::unique_ptr<model::CostModel>
trainCostModel(const model::CostModelConfig& mcfg, const synth::Dataset& ds,
               const TrainConfig& tcfg, const std::string& tag);

/**
 * Train an already-constructed CostModel in place through the minibatch
 * engine, bypassing the model cache — the path for throughput benches
 * and determinism tests that must measure/verify real training. A
 * non-empty tag enables per-epoch progress lines.
 */
TrainStats trainCostModelUncached(model::CostModel& m,
                                  const synth::Dataset& ds,
                                  const TrainConfig& tcfg,
                                  const std::string& tag = "");

/**
 * Same, over an already pre-encoded corpus (encs[i] must encode
 * ds.samples[i]; encodings are weight-independent, so one set can be
 * shared across runs). This is the exact engine path — the throughput
 * bench uses it to time training without the serial encode cost.
 */
TrainStats trainCostModelUncached(
    model::CostModel& m, const synth::Dataset& ds,
    const std::vector<model::TrainingEncoding>& encs,
    const TrainConfig& tcfg, const std::string& tag = "");

/**
 * The cost model's per-sample work estimates for trainMinibatch's
 * claiming order: stat_len^2 + dyn_len^2 of each encoding. Speed-only,
 * so never part of a cache key.
 */
std::vector<double>
sampleCosts(const std::vector<model::TrainingEncoding>& encs);

/** Train (or load) the TLP baseline. */
std::unique_ptr<baselines::TlpModel>
trainTlp(const synth::Dataset& ds, const TrainConfig& tcfg,
         const std::string& tag);

/** Train (or load) the GNNHLS baseline. */
std::unique_ptr<baselines::GnnHlsModel>
trainGnnHls(const synth::Dataset& ds, const TrainConfig& tcfg,
            const std::string& tag);

/** Train (or load) the Tenset-MLP baseline. */
std::unique_ptr<baselines::TensetMlpModel>
trainTensetMlp(const synth::Dataset& ds, const TrainConfig& tcfg,
               const std::string& tag);

/** Ground-truth targets for a workload (profiled on canonical data). */
model::Targets groundTruth(const workloads::Workload& w);

/** Prediction closure: workload -> predicted value for a metric. */
using PredictFn =
    std::function<long(const workloads::Workload&, model::Metric)>;

/** Per-workload absolute percentage error against the profiler. */
std::vector<double> workloadErrors(const PredictFn& fn,
                                   const std::vector<workloads::Workload>& ws,
                                   model::Metric m);

/** PredictFn adapters for each model family. */
PredictFn predictOurs(const model::CostModel& m);
PredictFn predictTlp(const baselines::TlpModel& m);
PredictFn predictGnnHls(const baselines::GnnHlsModel& m);
PredictFn predictTensetMlp(const baselines::TensetMlpModel& m);

/**
 * Run DPO calibration for one workload over its input variants and return
 * the final-iteration error (Table 3 "Ours" cycles protocol). The model is
 * cloned internally so calibration on one workload does not leak into the
 * next (per-design calibration, as in the paper's per-application runs).
 */
double calibratedCyclesError(const model::CostModel& base,
                             const workloads::Workload& w, int iterations);

/** Stable hash of a dataset (for cache keys). */
uint64_t datasetKey(const synth::Dataset& ds);

} // namespace harness
} // namespace llmulator

#endif // LLMULATOR_HARNESS_HARNESS_H
