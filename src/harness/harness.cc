#include "harness/harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <algorithm>

#include "calib/dpo.h"
#include "dfir/analysis.h"
#include "dfir/passes.h"
#include "eval/metrics.h"
#include "eval/model_cache.h"
#include "harness/trainer.h"
#include "model/fast_encoder.h"
#include "nn/optim.h"
#include "nn/ops.h"
#include "sim/profiler.h"
#include "synth/generators.h"
#include "util/common.h"
#include "util/env.h"
#include "util/string_util.h"

namespace llmulator {
namespace harness {

namespace {

/** -1 = follow the environment; 0/1 = forced by forceSmokeMode(). */
int g_forced_smoke = -1;

} // namespace

bool
smokeMode()
{
    if (g_forced_smoke >= 0)
        return g_forced_smoke != 0;
    return util::envFlag("LLMULATOR_SMOKE", false);
}

void
forceSmokeMode(bool on)
{
    g_forced_smoke = on ? 1 : 0;
}

synth::SynthConfig
defaultSynthConfig()
{
    synth::SynthConfig cfg;
    cfg.numPrograms = smokeMode() ? 8 : 110;
    cfg.seed = 2024;
    return cfg;
}

model::CostModelConfig
defaultOursConfig()
{
    model::CostModelConfig cfg =
        model::configForScale(model::ModelScale::Small);
    cfg.enc.maxSeq = 320;
    return cfg;
}

model::CostModelConfig
noEncConfig()
{
    model::CostModelConfig cfg = defaultOursConfig();
    cfg.tok.progressiveNumbers = false;
    return cfg;
}

TrainConfig
defaultTrainConfig()
{
    TrainConfig cfg;
    if (smokeMode())
        cfg.epochs = 1;
    return cfg;
}

synth::Dataset
defaultDataset(const synth::SynthConfig& cfg)
{
    synth::Dataset ds = synth::synthesize(cfg);
    // Stage-3 realistic coverage: mutated members of the evaluation
    // workload families (never the canonical instances themselves).
    bool smoke = smokeMode();
    addWorkloadFamilyData(ds, workloads::polybench(), smoke ? 1 : 4,
                          cfg.seed + 1);
    addWorkloadFamilyData(ds, workloads::modern(), smoke ? 1 : 2,
                          cfg.seed + 2);
    addWorkloadFamilyData(ds, workloads::accelerators(), smoke ? 1 : 3,
                          cfg.seed + 3);
    return ds;
}

void
addWorkloadFamilyData(synth::Dataset& ds,
                      const std::vector<workloads::Workload>& ws,
                      int variants_per_workload, uint64_t seed)
{
    util::Rng rng(seed);
    synth::GenConfig gen;
    for (const auto& w : ws) {
        for (int i = 0; i < variants_per_workload; ++i) {
            dfir::DataflowGraph mut =
                synth::mutateProgram(w.graph, rng, gen);
            synth::Sample s;
            s.source = synth::SourceKind::LlmMutation;
            s.hasData = dfir::countDynamicParams(mut) > 0;
            if (s.hasData)
                s.data = synth::generateRuntimeData(mut, rng);
            sim::Profile prof = sim::profile(mut, s.data);
            s.targets = synth::targetsFromProfile(prof);
            s.graph = std::move(mut);
            ds.samples.push_back(std::move(s));
        }
    }
}

uint64_t
datasetKey(const synth::Dataset& ds)
{
    uint64_t h = util::fnv1a("dataset");
    for (const auto& s : ds.samples) {
        // Canonical hashes keep cached models valid across generator
        // tweaks that only rename values or reorder commuting operands.
        h = util::hashCombine(h, dfir::canonicalHash(s.graph));
        h = util::hashCombine(h, static_cast<uint64_t>(s.targets.cycles));
        h = util::hashCombine(h, static_cast<uint64_t>(s.targets.area));
    }
    return h;
}

namespace {

/** Exact bit pattern of a float (so lr hashing cannot alias). */
uint64_t
floatBits(float f)
{
    uint32_t b;
    std::memcpy(&b, &f, sizeof(b));
    return b;
}

/** Key combining tag + config hash + dataset hash + training schedule. */
std::string
cacheKey(const std::string& tag, uint64_t cfg_hash, const synth::Dataset& ds,
         const TrainConfig& tcfg)
{
    uint64_t h = util::fnv1a(tag);
    h = util::hashCombine(h, cfg_hash);
    h = util::hashCombine(h, datasetKey(ds));
    // Every math-affecting TrainConfig field participates, so new knobs
    // can never alias a stale artifact. trainThreads is excluded on
    // purpose: the engine is bit-identical across thread counts (see
    // trainer.h), so artifacts trained at different parallelism are
    // interchangeable.
    h = util::hashCombine(h, static_cast<uint64_t>(tcfg.epochs));
    h = util::hashCombine(h, floatBits(tcfg.lr));
    h = util::hashCombine(h, tcfg.seed);
    h = util::hashCombine(h, static_cast<uint64_t>(tcfg.batchSize));
    return util::format("%s_%016llx", tag.c_str(),
                        static_cast<unsigned long long>(h));
}

/** Engine configuration derived from the bench-suite TrainConfig. */
TrainerConfig
engineConfig(const TrainConfig& tcfg, const std::string& tag,
             int epoch_mult)
{
    TrainerConfig tc;
    tc.epochs = tcfg.epochs * epoch_mult;
    tc.batchSize = tcfg.batchSize;
    tc.seed = tcfg.seed;
    tc.opt.lr = tcfg.lr;
    tc.tag = tag;
    return tc;
}

/**
 * Drive the minibatch engine for one master model: build one replica per
 * resolved worker thread (replica 0 is the master itself; the rest are
 * clone()s), wire each to a per-sample loss closure from make_loss, and
 * train. M must expose parameters() and clone(); make_loss(M*) must
 * return a std::function<nn::TensorPtr(size_t)> over sample indices.
 * sample_cost is the engine's optional speed-only claiming estimate.
 */
template <typename M, typename LossFactory>
TrainStats
runEngine(M& master, const LossFactory& make_loss, size_t num_samples,
          const TrainConfig& tcfg, const std::string& tag,
          int epoch_mult = 1, const std::vector<double>& sample_cost = {})
{
    int threads = resolveTrainThreads(tcfg.trainThreads);
    // Workers beyond the batch (or corpus) would never receive a sample;
    // don't pay for their replicas.
    threads = std::min<int>(threads, std::max(1, tcfg.batchSize));
    if (num_samples > 0)
        threads =
            std::min<int>(threads, static_cast<int>(num_samples));

    std::vector<std::unique_ptr<M>> clones;
    std::vector<TrainReplica> replicas;
    replicas.push_back({master.parameters(), make_loss(&master)});
    for (int t = 1; t < threads; ++t) {
        clones.push_back(master.clone());
        replicas.push_back(
            {clones.back()->parameters(), make_loss(clones.back().get())});
    }
    return trainMinibatch(master.parameters(), replicas, num_samples,
                          engineConfig(tcfg, tag, epoch_mult), sample_cost);
}

uint64_t
costModelCfgHash(const model::CostModelConfig& cfg)
{
    uint64_t h = 0;
    for (int x : {cfg.enc.dim, cfg.enc.heads, cfg.enc.layers, cfg.enc.ffn,
                  cfg.enc.maxSeq, cfg.head.base, cfg.head.width,
                  cfg.head.digitEmbed, cfg.head.hidden,
                  static_cast<int>(cfg.tok.progressiveNumbers),
                  1, // the separation mask, once a knob: keys stay put
                  static_cast<int>(cfg.seed)})
        h = util::hashCombine(h, static_cast<uint64_t>(x));
    return h;
}

} // namespace

std::vector<double>
sampleCosts(const std::vector<model::TrainingEncoding>& encs)
{
    // Attention is quadratic in sequence length and dominates a
    // sample's forward + backward, so len^2 per encoded view ranks the
    // samples well enough for claiming.
    std::vector<double> cost;
    cost.reserve(encs.size());
    for (const model::TrainingEncoding& e : encs) {
        const double s = e.stat.length();
        const double d = e.hasDyn ? e.dyn.length() : 0.0;
        cost.push_back(s * s + d * d);
    }
    return cost;
}

std::unique_ptr<model::CostModel>
trainCostModel(const model::CostModelConfig& mcfg, const synth::Dataset& ds,
               const TrainConfig& tcfg, const std::string& tag)
{
    auto m = std::make_unique<model::CostModel>(mcfg);
    std::string key = cacheKey(tag, costModelCfgHash(mcfg), ds, tcfg);
    if (eval::loadCached(key, m->parameters())) {
        std::printf("[train] %s: loaded from cache\n", tag.c_str());
        std::fflush(stdout);
        return m;
    }

    std::printf("[train] %s: %zu samples, %d epoch(s)%s\n", tag.c_str(),
                ds.samples.size(), tcfg.epochs,
                smokeMode() ? " (smoke)" : "");
    std::fflush(stdout);

    trainCostModelUncached(*m, ds, tcfg, tag);
    eval::storeCached(key, m->parameters());
    return m;
}

TrainStats
trainCostModelUncached(model::CostModel& m, const synth::Dataset& ds,
                       const TrainConfig& tcfg, const std::string& tag)
{
    // Pre-encode every sample once (tokenization dominates otherwise);
    // the pair path tokenizes shared segments once for both views.
    std::vector<model::TrainingEncoding> encs;
    encs.reserve(ds.samples.size());
    for (const auto& s : ds.samples)
        encs.push_back(model::encodeForTraining(
            m, s.graph, s.hasData ? &s.data : nullptr, s.reasoning));
    return trainCostModelUncached(m, ds, encs, tcfg, tag);
}

TrainStats
trainCostModelUncached(model::CostModel& m, const synth::Dataset& ds,
                       const std::vector<model::TrainingEncoding>& encs,
                       const TrainConfig& tcfg, const std::string& tag)
{
    LLM_CHECK(encs.size() == ds.samples.size(),
              "pre-encoded corpus misaligned with dataset");
    auto make_loss = [&ds, &encs](const model::CostModel* rm) {
        return [rm, &ds, &encs](size_t i) {
            const model::TrainingEncoding& e = encs[i];
            return rm->lossOnSample(e.stat, e.hasDyn ? &e.dyn : nullptr,
                                    ds.samples[i].targets);
        };
    };
    return runEngine(m, make_loss, encs.size(), tcfg, tag, 1,
                     sampleCosts(encs));
}

std::unique_ptr<baselines::TlpModel>
trainTlp(const synth::Dataset& ds, const TrainConfig& tcfg,
         const std::string& tag)
{
    baselines::TlpConfig cfg;
    cfg.enc.dim = 48;
    cfg.enc.heads = 4;
    cfg.enc.layers = 2;
    cfg.enc.ffn = 128;
    cfg.enc.maxSeq = 256;
    auto m = std::make_unique<baselines::TlpModel>(cfg);

    // The scaler must always be re-fit (it is training-set state).
    for (const auto& s : ds.samples)
        for (int mi = 0; mi < model::kNumMetrics; ++mi)
            m->observeTarget(static_cast<model::Metric>(mi),
                             s.targets.get(static_cast<model::Metric>(mi)));

    std::string key = cacheKey(tag + "_tlp", 0x71b, ds, tcfg);
    if (eval::loadCached(key, m->parameters()))
        return m;

    std::vector<std::vector<int>> toks;
    toks.reserve(ds.samples.size());
    for (const auto& s : ds.samples)
        toks.push_back(m->encode(s.graph));

    auto make_loss = [&ds, &toks](const baselines::TlpModel* rm) {
        return [rm, &ds, &toks](size_t idx) {
            nn::TensorPtr loss;
            for (int mi = 0; mi < model::kNumMetrics; ++mi) {
                auto metric = static_cast<model::Metric>(mi);
                auto l = rm->loss(toks[idx], metric,
                                  ds.samples[idx].targets.get(metric));
                loss = loss ? nn::add(loss, l) : l;
            }
            return loss;
        };
    };
    runEngine(*m, make_loss, toks.size(), tcfg, std::string());
    eval::storeCached(key, m->parameters());
    return m;
}

std::unique_ptr<baselines::GnnHlsModel>
trainGnnHls(const synth::Dataset& ds, const TrainConfig& tcfg,
            const std::string& tag)
{
    baselines::GnnHlsConfig cfg;
    auto m = std::make_unique<baselines::GnnHlsModel>(cfg);
    for (const auto& s : ds.samples)
        for (int mi = 0; mi < model::kNumMetrics; ++mi)
            m->observeTarget(static_cast<model::Metric>(mi),
                             s.targets.get(static_cast<model::Metric>(mi)));

    std::string key = cacheKey(tag + "_gnn", 0x6e4e, ds, tcfg);
    if (eval::loadCached(key, m->parameters()))
        return m;

    std::vector<dfir::ProgramGraph> graphs;
    graphs.reserve(ds.samples.size());
    for (const auto& s : ds.samples)
        graphs.push_back(dfir::extractProgramGraph(s.graph));

    auto make_loss = [&ds, &graphs](const baselines::GnnHlsModel* rm) {
        return [rm, &ds, &graphs](size_t idx) {
            nn::TensorPtr loss;
            for (int mi = 0; mi < model::kNumMetrics; ++mi) {
                auto metric = static_cast<model::Metric>(mi);
                auto l = rm->loss(graphs[idx], metric,
                                  ds.samples[idx].targets.get(metric));
                loss = loss ? nn::add(loss, l) : l;
            }
            return loss;
        };
    };
    runEngine(*m, make_loss, graphs.size(), tcfg, std::string());
    eval::storeCached(key, m->parameters());
    return m;
}

std::unique_ptr<baselines::TensetMlpModel>
trainTensetMlp(const synth::Dataset& ds, const TrainConfig& tcfg,
               const std::string& tag)
{
    baselines::TensetMlpConfig cfg;
    auto m = std::make_unique<baselines::TensetMlpModel>(cfg);
    for (const auto& s : ds.samples)
        for (int mi = 0; mi < model::kNumMetrics; ++mi)
            m->observeTarget(static_cast<model::Metric>(mi),
                             s.targets.get(static_cast<model::Metric>(mi)));

    std::string key = cacheKey(tag + "_tenset", 0x7e4, ds, tcfg);
    if (eval::loadCached(key, m->parameters()))
        return m;

    std::vector<std::vector<float>> feats;
    feats.reserve(ds.samples.size());
    for (const auto& s : ds.samples)
        feats.push_back(
            baselines::TensetMlpModel::features(s.graph, s.data.scalars));

    auto make_loss = [&ds, &feats](const baselines::TensetMlpModel* rm) {
        return [rm, &ds, &feats](size_t idx) {
            nn::TensorPtr loss;
            for (int mi = 0; mi < model::kNumMetrics; ++mi) {
                auto metric = static_cast<model::Metric>(mi);
                auto l = rm->loss(feats[idx], metric,
                                  ds.samples[idx].targets.get(metric));
                loss = loss ? nn::add(loss, l) : l;
            }
            return loss;
        };
    };
    // The MLP is tiny; give it more passes.
    runEngine(*m, make_loss, feats.size(), tcfg, std::string(),
              /*epoch_mult=*/4);
    eval::storeCached(key, m->parameters());
    return m;
}

model::Targets
groundTruth(const workloads::Workload& w)
{
    return synth::targetsFromProfile(
        sim::profile(w.graph, w.canonicalData));
}

std::vector<double>
workloadErrors(const PredictFn& fn,
               const std::vector<workloads::Workload>& ws, model::Metric m)
{
    std::vector<double> errs;
    errs.reserve(ws.size());
    for (const auto& w : ws) {
        model::Targets truth = groundTruth(w);
        long pred = fn(w, m);
        errs.push_back(eval::absPctError(pred, truth.get(m)));
    }
    return errs;
}

PredictFn
predictOurs(const model::CostModel& m)
{
    return [&m](const workloads::Workload& w, model::Metric metric) {
        // Static metrics use the static encoding; cycles see runtime data.
        const dfir::RuntimeData* data =
            metric == model::Metric::Cycles ? &w.canonicalData : nullptr;
        auto ep = m.encode(w.graph, data);
        return m.predict(ep, metric).value;
    };
}

PredictFn
predictTlp(const baselines::TlpModel& m)
{
    return [&m](const workloads::Workload& w, model::Metric metric) {
        return m.predict(m.encode(w.graph), metric);
    };
}

PredictFn
predictGnnHls(const baselines::GnnHlsModel& m)
{
    return [&m](const workloads::Workload& w, model::Metric metric) {
        return m.predict(dfir::extractProgramGraph(w.graph), metric);
    };
}

PredictFn
predictTensetMlp(const baselines::TensetMlpModel& m)
{
    return [&m](const workloads::Workload& w, model::Metric metric) {
        return m.predict(baselines::TensetMlpModel::features(
                             w.graph, w.canonicalData.scalars),
                         metric);
    };
}

double
calibratedCyclesError(const model::CostModel& base,
                      const workloads::Workload& w, int iterations)
{
    calib::DpoConfig dcfg;
    dcfg.lr = 5e-4f;
    dcfg.minibatch = 3;
    calib::DpoCalibrator calibrator(base, dcfg);

    // The paper's Figure 4 loop is online adaptation: each iteration the
    // model predicts for the *current* input, the profiler returns the
    // truth for that same input, and DPO updates the policy. We replay
    // the workload's input variants and finish on the canonical input —
    // the calibrated prediction the table reports is for the last-observed
    // state, exactly as in the paper's flow.
    for (int it = 0; it < iterations; ++it) {
        const dfir::RuntimeData& data =
            (it + 1 == iterations || w.variants.empty())
                ? w.canonicalData
                : w.variants[it % w.variants.size()];
        long truth = sim::profile(w.graph, data).cycles;
        auto ep = calibrator.policy().encode(w.graph, &data);
        calibrator.observe(ep, truth);
    }
    long truth = sim::profile(w.graph, w.canonicalData).cycles;
    auto ep = calibrator.policy().encode(w.graph, &w.canonicalData);
    auto pred = calibrator.predict(ep);
    return eval::absPctError(pred.value, truth);
}

} // namespace harness
} // namespace llmulator
