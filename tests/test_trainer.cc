/**
 * @file
 * Minibatch training engine tests: the bit-identical 1-vs-N-thread
 * guarantee on both a pure-nn regression problem and the real cost
 * model, the same guarantee across claiming-order estimates, a digest
 * of absolute trained bits at the encoder's row-block edges,
 * batch-boundary edge cases (corpus % batch != 0, batch > corpus, batch
 * of one, empty corpus), and repeated pool construction/teardown — the
 * suite CI runs under ThreadSanitizer and ASan/UBSan.
 */

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "harness/harness.h"
#include "harness/trainer.h"
#include "model/fast_encoder.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace {

using namespace llmulator;

/**
 * Tiny deterministic regression corpus: y = x0 - 2*x1 with fixed inputs.
 * Cheap enough that every edge case below runs in microseconds, even
 * under TSan.
 */
struct TinyProblem
{
    std::vector<std::vector<float>> xs;
    std::vector<float> ys;

    explicit TinyProblem(size_t n)
    {
        util::Rng rng(4242);
        for (size_t i = 0; i < n; ++i) {
            float a = static_cast<float>(rng.uniform(-1.0, 1.0));
            float b = static_cast<float>(rng.uniform(-1.0, 1.0));
            xs.push_back({a, b});
            ys.push_back(a - 2.f * b);
        }
    }
};

/** Mlp replica bundle: every replica is its own identically-seeded net. */
struct TinyRig
{
    std::vector<std::unique_ptr<nn::Mlp>> nets;
    std::vector<harness::TrainReplica> replicas;
    const TinyProblem* prob;

    TinyRig(const TinyProblem& p, int threads) : prob(&p)
    {
        for (int t = 0; t < threads; ++t) {
            util::Rng rng(7);
            nets.push_back(
                std::make_unique<nn::Mlp>(std::vector<int>{2, 8, 1}, rng));
            const nn::Mlp* net = nets.back().get();
            replicas.push_back(
                {net->parameters(),
                 [net, &p](size_t i) {
                     auto x = nn::Tensor::fromData(1, 2, p.xs[i]);
                     return nn::mseLoss(net->forward(x), {p.ys[i]});
                 }});
        }
    }

    harness::TrainStats
    train(const harness::TrainerConfig& cfg)
    {
        return harness::trainMinibatch(nets[0]->parameters(), replicas,
                                       prob->xs.size(), cfg);
    }
};

harness::TrainerConfig
tinyConfig(int epochs = 3, int batch = 4)
{
    harness::TrainerConfig cfg;
    cfg.epochs = epochs;
    cfg.batchSize = batch;
    cfg.seed = 11;
    return cfg;
}

void
expectBitIdentical(const harness::TrainStats& a,
                   const harness::TrainStats& b, const nn::Mlp& ma,
                   const nn::Mlp& mb)
{
    ASSERT_EQ(a.epochLoss.size(), b.epochLoss.size());
    for (size_t e = 0; e < a.epochLoss.size(); ++e)
        EXPECT_EQ(a.epochLoss[e], b.epochLoss[e]) << "epoch " << e;
    auto pa = ma.parameters(), pb = mb.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i)
        for (size_t j = 0; j < pa[i]->value.size(); ++j)
            EXPECT_EQ(pa[i]->value[j], pb[i]->value[j])
                << "param " << i << "[" << j << "]";
}

TEST(Trainer, BitIdenticalAcrossThreadCounts)
{
    TinyProblem p(13); // 13 % 4 != 0: exercises a partial final batch too
    TinyRig one(p, 1), four(p, 4), eight(p, 8);
    auto s1 = one.train(tinyConfig());
    auto s4 = four.train(tinyConfig());
    auto s8 = eight.train(tinyConfig());
    expectBitIdentical(s1, s4, *one.nets[0], *four.nets[0]);
    expectBitIdentical(s1, s8, *one.nets[0], *eight.nets[0]);
    EXPECT_EQ(s1.threads, 1);
    EXPECT_EQ(s8.threads, 8);
}

TEST(Trainer, TrainingActuallyLearns)
{
    TinyProblem p(24);
    TinyRig rig(p, 2);
    auto cfg = tinyConfig(/*epochs=*/60, /*batch=*/4);
    cfg.opt.lr = 2e-2f;
    auto stats = rig.train(cfg);
    ASSERT_EQ(stats.epochLoss.size(), 60u);
    EXPECT_LT(stats.epochLoss.back(), 0.25 * stats.epochLoss.front());
}

TEST(Trainer, PartialFinalBatchStepCount)
{
    TinyProblem p(7);
    TinyRig rig(p, 3);
    auto stats = rig.train(tinyConfig(/*epochs=*/2, /*batch=*/3));
    // ceil(7/3) = 3 optimizer steps per epoch.
    EXPECT_EQ(stats.steps, 6);
    EXPECT_EQ(stats.samples, 14);
}

TEST(Trainer, BatchLargerThanCorpus)
{
    TinyProblem p(3);
    TinyRig whole(p, 8); // more replicas than samples: extras stay idle
    auto stats = whole.train(tinyConfig(/*epochs=*/2, /*batch=*/64));
    EXPECT_EQ(stats.steps, 2); // one full-corpus step per epoch

    TinyRig serial(p, 1);
    auto ref = serial.train(tinyConfig(2, 64));
    expectBitIdentical(ref, stats, *serial.nets[0], *whole.nets[0]);
}

TEST(Trainer, BatchOfOneMatchesPerSampleSgd)
{
    // batchSize=1 degenerates to the classic per-sample loop: one
    // optimizer step per sample, mean scale 1.
    TinyProblem p(5);
    TinyRig rig(p, 4);
    auto stats = rig.train(tinyConfig(/*epochs=*/2, /*batch=*/1));
    EXPECT_EQ(stats.steps, 10);

    TinyRig serial(p, 1);
    auto ref = serial.train(tinyConfig(2, 1));
    expectBitIdentical(ref, stats, *serial.nets[0], *rig.nets[0]);
}

TEST(Trainer, EmptyCorpusIsANoOp)
{
    TinyProblem p(0);
    TinyRig rig(p, 2);
    auto stats = rig.train(tinyConfig());
    EXPECT_EQ(stats.steps, 0);
    EXPECT_EQ(stats.samples, 0);
    EXPECT_TRUE(stats.epochLoss.empty());
}

TEST(Trainer, RepeatedDrainAndTeardown)
{
    // Construct and destroy the worker pool many times in a row; under
    // TSan this exercises start/dispatch/join/teardown interleavings.
    TinyProblem p(6);
    for (int round = 0; round < 8; ++round) {
        TinyRig rig(p, 4);
        auto stats = rig.train(tinyConfig(/*epochs=*/1, /*batch=*/2));
        EXPECT_EQ(stats.steps, 3);
    }
}

TEST(Trainer, ResolveTrainThreadsHonorsRequestAndFloor)
{
    EXPECT_EQ(harness::resolveTrainThreads(3), 3);
    EXPECT_GE(harness::resolveTrainThreads(0), 1);
    EXPECT_GE(harness::resolveTrainThreads(-5), 1);
}

TEST(Trainer, CostModelBitIdentical1v8)
{
    // The real thing: the full cost model (transformer encoder + digit
    // heads, static+dynamic encodings) trained at 1 vs 8 threads must
    // produce bit-identical epoch losses and parameters.
    // Corpus and batch both >= 8 so the 8-thread run really fans out
    // eight replicas (runEngine clamps threads to min(batch, corpus)).
    synth::SynthConfig scfg;
    scfg.numPrograms = 9;
    scfg.seed = 31;
    auto ds = synth::synthesize(scfg);
    ASSERT_GE(ds.samples.size(), 8u);

    auto mcfg = model::configForScale(model::ModelScale::Tiny);
    mcfg.enc.maxSeq = 128;

    harness::TrainConfig tcfg;
    tcfg.epochs = 2;
    tcfg.batchSize = 8;

    model::CostModel m1(mcfg), m8(mcfg);
    harness::TrainConfig c1 = tcfg, c8 = tcfg;
    c1.trainThreads = 1;
    c8.trainThreads = 8;
    auto s1 = harness::trainCostModelUncached(m1, ds, c1);
    auto s8 = harness::trainCostModelUncached(m8, ds, c8);
    EXPECT_EQ(s1.threads, 1);
    EXPECT_EQ(s8.threads, 8);

    ASSERT_EQ(s1.epochLoss.size(), s8.epochLoss.size());
    for (size_t e = 0; e < s1.epochLoss.size(); ++e)
        EXPECT_EQ(s1.epochLoss[e], s8.epochLoss[e]) << "epoch " << e;
    auto p1 = m1.parameters(), p8 = m8.parameters();
    ASSERT_EQ(p1.size(), p8.size());
    for (size_t i = 0; i < p1.size(); ++i)
        for (size_t j = 0; j < p1[i]->value.size(); ++j)
            ASSERT_EQ(p1[i]->value[j], p8[i]->value[j])
                << "param " << i << "[" << j << "]";
}

TEST(Trainer, OneWorkerClaimsLargestEstimateFirst)
{
    // Positive control for the claiming order: with a single worker the
    // per-sample losses are built in claim order, which must be
    // descending estimate within each batch (ties in position order).
    TinyProblem p(10);
    std::vector<double> cost = {3, 9, 1, 9, 4, 0, 7, 2, 8, 5};
    util::Rng rng(7);
    nn::Mlp net(std::vector<int>{2, 8, 1}, rng);
    std::vector<size_t> calls;
    harness::TrainReplica rep{
        net.parameters(),
        [&](size_t i) {
            calls.push_back(i);
            auto x = nn::Tensor::fromData(1, 2, p.xs[i]);
            return nn::mseLoss(net.forward(x), {p.ys[i]});
        }};
    auto cfg = tinyConfig(/*epochs=*/1, /*batch=*/4);
    harness::trainMinibatch(net.parameters(), {rep}, p.xs.size(), cfg, cost);
    ASSERT_EQ(calls.size(), p.xs.size());
    for (size_t start = 0; start < calls.size(); start += 4) {
        const size_t end = std::min(calls.size(), start + 4);
        for (size_t c = start + 1; c < end; ++c)
            EXPECT_GE(cost[calls[c - 1]], cost[calls[c]])
                << "claim " << c << " of the batch at " << start;
    }
}

/** Cost-model trajectory of one engine run: epoch losses + parameters. */
struct CostModelRun
{
    std::vector<double> epochLoss;
    std::vector<std::vector<float>> params;
};

/**
 * Train a fresh Tiny cost model through trainMinibatch directly, with
 * `threads` replicas and an explicit claiming estimate (empty: none).
 */
CostModelRun
trainCostModelClaiming(const synth::Dataset& ds,
                       const std::vector<model::TrainingEncoding>& encs,
                       int threads, const std::vector<double>& cost)
{
    auto mcfg = model::configForScale(model::ModelScale::Tiny);
    mcfg.enc.maxSeq = 128;
    model::CostModel master(mcfg);
    std::vector<std::unique_ptr<model::CostModel>> clones;
    auto lossFor = [&](const model::CostModel* rm) {
        return [rm, &ds, &encs](size_t i) {
            const model::TrainingEncoding& e = encs[i];
            return rm->lossOnSample(e.stat, e.hasDyn ? &e.dyn : nullptr,
                                    ds.samples[i].targets);
        };
    };
    std::vector<harness::TrainReplica> replicas;
    replicas.push_back({master.parameters(), lossFor(&master)});
    for (int t = 1; t < threads; ++t) {
        clones.push_back(master.clone());
        replicas.push_back(
            {clones.back()->parameters(), lossFor(clones.back().get())});
    }
    harness::TrainerConfig cfg;
    cfg.epochs = 2;
    cfg.batchSize = 8;
    harness::TrainStats stats = harness::trainMinibatch(
        master.parameters(), replicas, encs.size(), cfg, cost);

    CostModelRun run;
    run.epochLoss = stats.epochLoss;
    for (const auto& prm : master.parameters())
        run.params.push_back(prm->value);
    return run;
}

TEST(Trainer, ClaimingOrderCannotMoveBits)
{
    // The cost estimate only reorders which worker computes which batch
    // position; gradient slots stay indexed by position and reduce in
    // position order. Constant, reversed and random estimates at 1, 4
    // and 8 threads must all reproduce the no-estimate run bit for bit.
    synth::SynthConfig scfg;
    scfg.numPrograms = 9;
    scfg.seed = 31;
    auto ds = synth::synthesize(scfg);
    ASSERT_GE(ds.samples.size(), 8u);
    auto mcfg = model::configForScale(model::ModelScale::Tiny);
    mcfg.enc.maxSeq = 128;
    model::CostModel encoder(mcfg);
    std::vector<model::TrainingEncoding> encs;
    for (const auto& smp : ds.samples)
        encs.push_back(model::encodeForTraining(
            encoder, smp.graph, smp.hasData ? &smp.data : nullptr,
            smp.reasoning));

    const std::vector<double> lenSq = harness::sampleCosts(encs);
    std::vector<double> reversed(lenSq.size());
    for (size_t i = 0; i < lenSq.size(); ++i)
        reversed[i] = -lenSq[i];
    std::vector<double> random(lenSq.size());
    util::Rng rng(2718);
    for (double& c : random)
        c = rng.uniform(0.0, 1.0);
    const std::vector<double> constant(lenSq.size(), 1.0);

    const CostModelRun ref = trainCostModelClaiming(ds, encs, 1, {});
    ASSERT_EQ(ref.epochLoss.size(), 2u);
    const std::pair<const char*, const std::vector<double>*> estimates[] = {
        {"constant", &constant},
        {"len^2", &lenSq},
        {"reversed", &reversed},
        {"random", &random},
    };
    for (int threads : {1, 4, 8}) {
        for (const auto& [name, cost] : estimates) {
            const CostModelRun run =
                trainCostModelClaiming(ds, encs, threads, *cost);
            ASSERT_EQ(run.epochLoss.size(), ref.epochLoss.size());
            for (size_t e = 0; e < ref.epochLoss.size(); ++e)
                EXPECT_EQ(ref.epochLoss[e], run.epochLoss[e])
                    << name << " estimate, " << threads << " threads, epoch "
                    << e;
            ASSERT_EQ(run.params.size(), ref.params.size());
            for (size_t i = 0; i < ref.params.size(); ++i)
                ASSERT_EQ(ref.params[i], run.params[i])
                    << name << " estimate, " << threads
                    << " threads, param " << i;
        }
    }
}

/**
 * A synthetic encoding of `len` tokens. From 8 tokens up it has a Class
 * I operator range and a data range, so the dynamic view carries a
 * separation mask; shorter ones are one static graph segment.
 */
model::TrainingEncoding
syntheticEncoding(int len, int vocab, util::Rng& rng)
{
    model::EncodedProgram ep;
    for (int i = 0; i < len; ++i)
        ep.tokens.push_back(static_cast<int>(rng.uniformInt(0, vocab - 1)));
    model::TrainingEncoding enc;
    if (len < 8) {
        ep.ranges.push_back({0, len, model::SegmentKind::Graph, "g", false});
        enc.stat = ep;
        return enc;
    }
    const int a = len / 4, b = len / 2, c = (3 * len) / 4;
    ep.ranges = {{0, a, model::SegmentKind::Graph, "g", false},
                 {a, b, model::SegmentKind::Op, "fixed", true},
                 {b, c, model::SegmentKind::Op, "adaptive", false},
                 {c, len, model::SegmentKind::Data, "data", false}};
    ep.hasData = true;
    enc.dyn = ep;
    enc.hasDyn = true;
    enc.stat = ep;
    enc.stat.tokens.resize(c);
    enc.stat.ranges.pop_back();
    enc.stat.hasData = false;
    return enc;
}

/** FNV-1a over the bytes of `n` values, folded into `h`. */
template <typename T>
uint64_t
digestBits(uint64_t h, const T* v, size_t n)
{
    const auto* p = reinterpret_cast<const unsigned char*>(v);
    for (size_t i = 0; i < n * sizeof(T); ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

TEST(Trainer, TrainedBitsPinnedAtRowBlockEdges)
{
    // Absolute trained bits, not just 1-vs-N agreement: a 2-layer model
    // with a separation mask, on encodings whose lengths sit on and
    // around the encoder's 16-row blocks, trained for a few minibatch
    // steps. Every parameter's bits and every epoch loss fold into one
    // digest, taken from the per-op autograd graph before attention
    // became one op. A change to any gradient sum moves it.
    auto mcfg = model::configForScale(model::ModelScale::Tiny);
    mcfg.enc.layers = 2;
    mcfg.enc.maxSeq = 40;
    model::CostModel proto(mcfg);
    util::Rng rng(1601);
    std::vector<model::TrainingEncoding> encs;
    std::vector<model::Targets> targets;
    for (int len : {1, 15, 16, 17, 33, mcfg.enc.maxSeq}) {
        for (int copy = 0; copy < 2; ++copy) {
            encs.push_back(syntheticEncoding(len, proto.config().enc.vocab,
                                             rng));
            model::Targets t;
            t.power = rng.uniformInt(1, 99999);
            t.area = rng.uniformInt(1, 99999);
            t.flipFlops = rng.uniformInt(1, 9999);
            t.cycles = rng.uniformInt(1, 999999);
            targets.push_back(t);
        }
    }

    for (int threads : {1, 4}) {
        model::CostModel master(mcfg);
        std::vector<std::unique_ptr<model::CostModel>> clones;
        auto lossFor = [&](const model::CostModel* rm) {
            return [rm, &encs, &targets](size_t i) {
                const model::TrainingEncoding& e = encs[i];
                return rm->lossOnSample(e.stat, e.hasDyn ? &e.dyn : nullptr,
                                        targets[i]);
            };
        };
        std::vector<harness::TrainReplica> replicas;
        replicas.push_back({master.parameters(), lossFor(&master)});
        for (int t = 1; t < threads; ++t) {
            clones.push_back(master.clone());
            replicas.push_back(
                {clones.back()->parameters(), lossFor(clones.back().get())});
        }
        harness::TrainerConfig cfg;
        cfg.epochs = 2;
        cfg.batchSize = 4;
        cfg.seed = 5;
        harness::TrainStats stats = harness::trainMinibatch(
            master.parameters(), replicas, encs.size(), cfg);
        ASSERT_EQ(stats.steps, 6);

        uint64_t h = 14695981039346656037ull;
        h = digestBits(h, stats.epochLoss.data(), stats.epochLoss.size());
        for (const auto& prm : master.parameters())
            h = digestBits(h, prm->value.data(), prm->value.size());
        EXPECT_EQ(h, 16836040173347280143ull) << threads << " threads";
    }
}

TEST(Trainer, PairEncodingMatchesSeparateEncodes)
{
    // encodeForTraining shares segment tokenization between the two
    // views; the result must be bitwise what two encode() calls give.
    synth::SynthConfig scfg;
    scfg.numPrograms = 4;
    scfg.seed = 9;
    auto ds = synth::synthesize(scfg);
    model::CostModel m(model::configForScale(model::ModelScale::Tiny));
    for (const auto& s : ds.samples) {
        auto enc = model::encodeForTraining(
            m, s.graph, s.hasData ? &s.data : nullptr, s.reasoning);
        auto stat = m.encode(s.graph, nullptr, s.reasoning);
        EXPECT_EQ(enc.stat.tokens, stat.tokens);
        EXPECT_EQ(enc.hasDyn, s.hasData);
        if (s.hasData) {
            auto dyn = m.encode(s.graph, &s.data, s.reasoning);
            EXPECT_EQ(enc.dyn.tokens, dyn.tokens);
            EXPECT_EQ(enc.dyn.hasData, dyn.hasData);
        }
    }
}

// Telemetry is speed-only: a run with the metrics and trace gates
// forced on trains bit-identical weights and losses to a telemetry-off
// run, while the trainer counters/gauges actually record.
TEST(Trainer, TelemetryEnabledKeepsTrainingBitIdentical)
{
    TinyProblem p(13);
    auto cfg = tinyConfig();

    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    TinyRig off(p, 4);
    auto statsOff = off.train(cfg);

    obs::registry().reset();
    obs::setMetricsEnabled(true);
    obs::setTraceEnabled(true);
    TinyRig on(p, 4);
    auto statsOn = on.train(cfg);
    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    obs::clearSpans();

    expectBitIdentical(statsOff, statsOn, *off.nets[0], *on.nets[0]);

    // The instrumented run recorded its step/sample counters and the
    // per-epoch loss gauge (== the final epoch's mean loss).
    const obs::Counter* steps =
        obs::registry().findCounter("trainer.steps");
    ASSERT_NE(steps, nullptr);
    EXPECT_EQ(steps->total(), uint64_t(statsOn.steps));
    const obs::Counter* samples =
        obs::registry().findCounter("trainer.samples");
    ASSERT_NE(samples, nullptr);
    EXPECT_EQ(samples->total(), uint64_t(statsOn.samples));
    const obs::Gauge* loss = obs::registry().findGauge("trainer.loss");
    ASSERT_NE(loss, nullptr);
    EXPECT_DOUBLE_EQ(loss->value(), statsOn.epochLoss.back());
}

} // namespace
