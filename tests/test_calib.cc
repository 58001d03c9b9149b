/**
 * @file
 * Calibration subsystem tests: ReplayBuffer retention/sampling, the
 * DpoCalibrator's error contract, clone ownership, frozen-reference
 * invariance and convergence smoke, and the DriftDetector's CUSUM /
 * mean-|residual| triggers.
 *
 * All model-touching suites run an *untrained* Tiny model: weight
 * initialization is seeded, so predictions are deterministic.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "calib/dpo.h"
#include "calib/drift.h"
#include "dfir/builder.h"
#include "model/cost_model.h"
#include "nn/ops.h"
#include "util/rng.h"

using namespace llmulator;
using namespace llmulator::dfir;

namespace {

DataflowGraph
makeGraph(long bias)
{
    Operator op;
    op.name = "scale";
    op.scalarParams = {"N"};
    op.tensors = {tensor("X", {p("N")}), tensor("Y", {p("N")})};
    op.body = {forLoop("i", c(0), p("N"),
                       {assign("Y", {v("i")},
                               badd(a("X", {v("i")}), c(bias)))})};
    DataflowGraph g;
    g.name = "calib_kernel";
    g.ops = {op};
    g.calls = {{"scale"}};
    return g;
}

RuntimeData
makeData(long n)
{
    RuntimeData d;
    d.scalars["N"] = n;
    return d;
}

std::unique_ptr<model::CostModel>
tinyModel()
{
    auto cfg = model::configForScale(model::ModelScale::Tiny);
    cfg.enc.maxSeq = 128;
    return std::make_unique<model::CostModel>(cfg);
}

/** A distinguishable triplet (only yw/yl matter for buffer tests). */
calib::PreferenceTriplet
marker(int tag)
{
    calib::PreferenceTriplet t;
    t.yw = {tag};
    return t;
}

void
expectParamsBitwiseEqual(const model::CostModel& a, const model::CostModel& b)
{
    auto pa = a.parameters();
    auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i]->value.size(), pb[i]->value.size());
        for (size_t j = 0; j < pa[i]->value.size(); ++j)
            EXPECT_EQ(pa[i]->value[j], pb[i]->value[j])
                << "param " << i << " element " << j;
    }
}

} // namespace

TEST(ReplayBuffer, EvictsOldestBeyondCapacity)
{
    calib::ReplayBuffer buf(3);
    for (int i = 0; i < 5; ++i)
        buf.push(marker(i));
    EXPECT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf.capacity(), 3u);
    // Oldest-first: 0 and 1 were evicted.
    EXPECT_EQ(buf.at(0).yw, std::vector<int>{2});
    EXPECT_EQ(buf.at(2).yw, std::vector<int>{4});
}

TEST(ReplayBuffer, SamplingIsDeterministicUnderFixedSeed)
{
    calib::ReplayBuffer buf(8);
    for (int i = 0; i < 8; ++i)
        buf.push(marker(i));

    util::Rng rng1(99), rng2(99);
    auto s1 = buf.sample(rng1, 16);
    auto s2 = buf.sample(rng2, 16);
    ASSERT_EQ(s1.size(), 16u);
    ASSERT_EQ(s1.size(), s2.size());
    for (size_t i = 0; i < s1.size(); ++i)
        EXPECT_EQ(s1[i], s2[i]) << "draw " << i;

    // Empty buffer: no samples, never a crash.
    calib::ReplayBuffer empty(4);
    util::Rng rng3(1);
    EXPECT_TRUE(empty.sample(rng3, 4).empty());
}

TEST(DpoCalibrator, ObserveIsNoOpOnIdenticalDigitSequences)
{
    auto m = tinyModel();
    auto before = m->clone();
    calib::DpoCalibrator cal(*m);

    DataflowGraph g = makeGraph(3);
    RuntimeData d = makeData(16);
    model::EncodedProgram ep = cal.policy().encode(g, &d);

    // Feed the model's own prediction back as the "truth": yw == yl, so
    // there is no preference signal and the policy must not move.
    long predicted = cal.predict(ep).value;
    double err = cal.observe(ep, predicted);
    EXPECT_DOUBLE_EQ(err, 0.0);
    expectParamsBitwiseEqual(cal.policy(), *before);
}

TEST(DpoCalibrator, ZeroTruthReportsAbsoluteError)
{
    auto m = tinyModel();
    calib::DpoCalibrator cal(*m);

    DataflowGraph g = makeGraph(1);
    RuntimeData d = makeData(8);
    model::EncodedProgram ep = cal.policy().encode(g, &d);

    long predicted = cal.predict(ep).value;
    double err = cal.observe(ep, 0);
    // max(|truth|, 1) floors the denominator at one cycle, so the
    // zero-cycle edge degrades to |pred| instead of a hardcoded 1.0.
    EXPECT_DOUBLE_EQ(err, std::fabs(double(predicted)));
}

TEST(DpoCalibrator, ErrorUsesFlooredRelativeDenominator)
{
    auto m = tinyModel();
    calib::DpoCalibrator cal(*m);

    DataflowGraph g = makeGraph(2);
    RuntimeData d = makeData(12);
    model::EncodedProgram ep = cal.policy().encode(g, &d);

    long predicted = cal.predict(ep).value;
    long truth = predicted + 50;
    double err = cal.observe(ep, truth);
    EXPECT_DOUBLE_EQ(err, 50.0 / double(truth));
}

TEST(DpoCalibrator, ConstructionNeverMutatesTheSourceModel)
{
    auto m = tinyModel();
    auto before = m->clone();
    calib::DpoConfig cfg;
    cfg.lr = 3e-3f;
    calib::DpoCalibrator cal(*m, cfg);

    DataflowGraph g = makeGraph(5);
    RuntimeData d = makeData(24);
    model::EncodedProgram ep = m->encode(g, &d);
    for (int i = 0; i < 5; ++i)
        cal.observe(ep, 1000 + i);

    // The calibrator trained its own clone; the caller's model and the
    // frozen reference both still carry the original weights.
    expectParamsBitwiseEqual(*m, *before);
    expectParamsBitwiseEqual(cal.reference(), *before);
}

TEST(DpoCalibrator, StoredRefDiffMatchesFrozenReference)
{
    auto m = tinyModel();
    calib::DpoCalibrator cal(*m);

    DataflowGraph g = makeGraph(7);
    RuntimeData d = makeData(20);
    model::EncodedProgram ep = cal.policy().encode(g, &d);
    cal.observe(ep, 12345);

    ASSERT_EQ(cal.buffer().size(), 1u);
    const calib::PreferenceTriplet& t = cal.buffer().at(0);
    ASSERT_NE(t.yw, t.yl); // truth chosen to differ from the prediction

    // Recompute Equation 2's reference log-ratio directly from the
    // frozen reference policy; the cached value must match exactly.
    auto lw = nn::sequenceLogProb(
        cal.reference().digitLogits(ep, model::Metric::Cycles, t.yw), t.yw);
    auto ll = nn::sequenceLogProb(
        cal.reference().digitLogits(ep, model::Metric::Cycles, t.yl), t.yl);
    EXPECT_FLOAT_EQ(t.refDiff, lw->value[0] - ll->value[0]);
}

TEST(DpoCalibrator, ConvergesTowardProfiledTruth)
{
    auto m = tinyModel();
    calib::DpoConfig cfg;
    cfg.lr = 3e-3f;
    cfg.minibatch = 4;
    calib::DpoCalibrator cal(*m, cfg);

    DataflowGraph g = makeGraph(4);
    RuntimeData d = makeData(32);
    model::EncodedProgram ep = cal.policy().encode(g, &d);

    const long truth = 420;
    double first = cal.observe(ep, truth);
    double last = first;
    for (int i = 0; i < 30; ++i)
        last = cal.observe(ep, truth);
    EXPECT_LT(last, first) << "first=" << first << " last=" << last;
}

TEST(DpoCalibrator, TakePolicyHandsOverTheCalibratedPolicy)
{
    auto m = tinyModel();
    calib::DpoCalibrator cal(*m);

    DataflowGraph g = makeGraph(9);
    RuntimeData d = makeData(10);
    model::EncodedProgram ep = cal.policy().encode(g, &d);
    cal.observe(ep, 777);
    EXPECT_EQ(cal.buffer().size(), 1u);

    // The hand-off moves the live policy out; it copies nothing.
    const model::CostModel* live = &cal.policy();
    std::unique_ptr<model::CostModel> taken = cal.takePolicy();
    EXPECT_EQ(taken.get(), live);
}

TEST(DriftDetector, StationaryResidualsNeverTrigger)
{
    calib::DriftConfig cfg;
    cfg.baselineSamples = 4;
    cfg.slack = 0.1;
    cfg.threshold = 2.0;
    calib::DriftDetector det(cfg);

    for (int i = 0; i < 3; ++i)
        det.add(0.05);
    EXPECT_FALSE(det.baselineReady());
    EXPECT_FALSE(det.drifted()); // never before the baseline exists
    det.add(0.05); // 4th sample completes the baseline
    EXPECT_TRUE(det.baselineReady());
    EXPECT_NEAR(det.baselineMean(), 0.05, 1e-9);

    for (int i = 0; i < 40; ++i)
        det.add((i % 2 == 0) ? 0.06 : 0.04); // noise inside the slack
    EXPECT_FALSE(det.drifted());
    EXPECT_LT(det.score(), 2.0);
}

TEST(DriftDetector, SustainedMeanShiftTrips)
{
    calib::DriftConfig cfg;
    cfg.baselineSamples = 4;
    cfg.slack = 0.1;
    cfg.threshold = 2.0;
    calib::DriftDetector det(cfg);

    for (int i = 0; i < 4; ++i)
        det.add(0.0);
    ASSERT_TRUE(det.baselineReady());

    // +1.0 shift accumulates (1.0 - slack) per sample: trips on the 3rd.
    det.add(1.0);
    det.add(1.0);
    EXPECT_FALSE(det.drifted());
    det.add(1.0);
    EXPECT_TRUE(det.drifted());
    EXPECT_GT(det.score(), 2.0);
}

TEST(DriftDetector, NegativeShiftTripsTheLowerSide)
{
    calib::DriftConfig cfg;
    cfg.baselineSamples = 2;
    cfg.slack = 0.05;
    cfg.threshold = 1.0;
    calib::DriftDetector det(cfg);

    det.add(0.0);
    det.add(0.0);
    for (int i = 0; i < 3; ++i)
        det.add(-0.5); // under-prediction drift
    EXPECT_TRUE(det.drifted());
}

TEST(DriftDetector, MeanAbsBackstopCatchesZeroMeanError)
{
    calib::DriftConfig cfg;
    cfg.baselineSamples = 4;
    cfg.slack = 0.1;
    cfg.threshold = 1e9; // CUSUM effectively disabled
    cfg.meanAbsThreshold = 0.5;
    cfg.window = 4;
    calib::DriftDetector det(cfg);

    for (int i = 0; i < 4; ++i)
        det.add(0.0);
    ASSERT_FALSE(det.drifted());

    // Alternating-sign residuals: CUSUM sees a zero-mean process, but
    // the model is badly wrong on every sample — the backstop fires.
    for (int i = 0; i < 4; ++i)
        det.add((i % 2 == 0) ? 0.8 : -0.8);
    EXPECT_NEAR(det.meanAbsResidual(), 0.8, 1e-9);
    EXPECT_TRUE(det.drifted());
}

TEST(DriftDetector, ResetForgetsBaselineAndScores)
{
    calib::DriftConfig cfg;
    cfg.baselineSamples = 2;
    cfg.slack = 0.0;
    cfg.threshold = 0.5;
    calib::DriftDetector det(cfg);

    det.add(0.0);
    det.add(0.0);
    det.add(2.0);
    EXPECT_TRUE(det.drifted());

    det.reset();
    EXPECT_EQ(det.count(), 0u);
    EXPECT_FALSE(det.baselineReady());
    EXPECT_FALSE(det.drifted());
    EXPECT_DOUBLE_EQ(det.score(), 0.0);
    EXPECT_DOUBLE_EQ(det.meanAbsResidual(), 0.0);
}
