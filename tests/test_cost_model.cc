/**
 * @file
 * CostModel + calibration + acceleration tests: segment encoding, the
 * separation mask, SFT trainability, DPO convergence toward profiled
 * truth, and cache consistency of the fast inference path.
 */

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "calib/dpo.h"
#include "dfir/builder.h"
#include "model/cost_model.h"
#include "model/fast_encoder.h"
#include "nn/backend.h"
#include "nn/optim.h"
#include "nn/ops.h"
#include "sim/profiler.h"
#include "util/rng.h"

namespace {

using namespace llmulator;
using namespace llmulator::dfir;
using model::CostModel;
using model::CostModelConfig;
using model::Metric;

Operator
makeScale(long n)
{
    Operator op;
    op.name = "scaleop";
    op.tensors = {tensor("X", {c(n)}), tensor("Y", {c(n)})};
    op.body = {forLoop("i", c(0), c(n),
                       {assign("Y", {v("i")},
                               bmul(a("X", {v("i")}), c(3)))})};
    return op;
}

Operator
makeThreshold()
{
    Operator op;
    op.name = "thresh";
    op.tensors = {tensor("X", {p("N")}), tensor("Y", {p("N")})};
    op.scalarParams = {"N"};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {ifStmt(bgt(a("X", {v("i")}), c(0)),
                {assign("Y", {v("i")},
                        bmul(bmul(a("X", {v("i")}), a("X", {v("i")})),
                             c(2)))},
                {assign("Y", {v("i")}, c(0))})})};
    return op;
}

DataflowGraph
makeGraph(std::vector<Operator> ops)
{
    DataflowGraph g;
    g.name = "test";
    for (const auto& op : ops)
        g.calls.push_back({op.name});
    g.ops = std::move(ops);
    return g;
}

CostModelConfig
tinyConfig()
{
    auto cfg = model::configForScale(model::ModelScale::Tiny);
    cfg.enc.maxSeq = 320;
    cfg.head.width = 6;
    return cfg;
}

/**
 * Every parameter drawn from N(0, 0.3). Fresh models have zero biases
 * and unit layer-norm gains, under which an op-order slip (say, a bias
 * added before its GEMM instead of after) changes no bit.
 */
void
randomizeWeights(CostModel& m, uint64_t seed)
{
    util::Rng rng(seed);
    for (const auto& p : m.parameters())
        for (float& v : p->value)
            v = static_cast<float>(rng.normal(0.0, 0.3));
}

/**
 * A hand-built encoding of exactly `len` tokens: graph, Class I op,
 * Class II op and a tail quarter that is runtime data (masked) or
 * hardware parameters (unmasked, so no separation mask applies).
 */
model::EncodedProgram
syntheticEncoding(int len, bool masked, int vocab)
{
    model::EncodedProgram ep;
    for (int i = 0; i < len; ++i)
        ep.tokens.push_back((len + 7 * i) % vocab);
    const int q1 = len / 4, q2 = len / 2, q3 = 3 * len / 4;
    auto range = [&ep](int begin, int end, model::SegmentKind kind,
                       bool classI) {
        model::TokenRange r;
        r.begin = begin;
        r.end = end;
        r.kind = kind;
        r.classI = classI;
        ep.ranges.push_back(r);
    };
    range(0, q1, model::SegmentKind::Graph, false);
    range(q1, q2, model::SegmentKind::Op, true);
    range(q2, q3, model::SegmentKind::Op, false);
    range(q3, len,
          masked ? model::SegmentKind::Data : model::SegmentKind::Params,
          false);
    ep.hasData = masked;
    return ep;
}

void
expectSamePrediction(const model::NumericPrediction& got,
                     const model::NumericPrediction& want)
{
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.digits, want.digits);
    EXPECT_EQ(got.digitProbs, want.digitProbs);
    EXPECT_EQ(got.logProb, want.logProb);
}

/** Installs a backend for one scope. */
class BackendGuard
{
  public:
    explicit BackendGuard(const nn::Backend& be) : prev_(nn::backend())
    {
        nn::setBackend(be);
    }
    ~BackendGuard() { nn::setBackend(prev_); }

  private:
    const nn::Backend& prev_;
};

TEST(CostModel, EncodeProducesSegmentsInOrder)
{
    CostModel m(tinyConfig());
    auto g = makeGraph({makeScale(16), makeThreshold()});
    RuntimeData data;
    data.scalars["N"] = 32;
    auto ep = m.encode(g, &data);
    ASSERT_GE(ep.ranges.size(), 4u);
    EXPECT_EQ(ep.ranges.front().kind, model::SegmentKind::Graph);
    EXPECT_TRUE(ep.hasData);
    // Class labels recorded: scaleop is Class I, thresh is Class II.
    bool saw_class_i = false, saw_class_ii = false;
    for (const auto& r : ep.ranges) {
        if (r.kind != model::SegmentKind::Op)
            continue;
        if (r.name == "scaleop")
            saw_class_i = r.classI;
        if (r.name == "thresh")
            saw_class_ii = !r.classI;
    }
    EXPECT_TRUE(saw_class_i);
    EXPECT_TRUE(saw_class_ii);
    // Ranges tile the sequence without overlap.
    int cursor = 0;
    for (const auto& r : ep.ranges) {
        EXPECT_EQ(r.begin, cursor);
        cursor = r.end;
    }
    EXPECT_EQ(cursor, ep.length());
}

TEST(CostModel, SeparationMaskBlocksClassIDataPairs)
{
    CostModel m(tinyConfig());
    auto g = makeGraph({makeScale(8), makeThreshold()});
    RuntimeData data;
    data.scalars["N"] = 16;
    auto ep = m.encode(g, &data);
    auto mask = model::buildSeparationMask(ep);
    ASSERT_NE(mask, nullptr);
    // Locate ranges.
    model::TokenRange class_i, data_r;
    for (const auto& r : ep.ranges) {
        if (r.kind == model::SegmentKind::Op && r.classI)
            class_i = r;
        if (r.kind == model::SegmentKind::Data)
            data_r = r;
    }
    ASSERT_GT(class_i.end, class_i.begin);
    ASSERT_GT(data_r.end, data_r.begin);
    EXPECT_LT(mask->at(class_i.begin, data_r.begin), -1e8f);
    EXPECT_LT(mask->at(data_r.begin, class_i.begin), -1e8f);
    // Graph tokens stay connected to data.
    EXPECT_FLOAT_EQ(mask->at(0, data_r.begin), 0.f);
}

TEST(CostModel, NoMaskWithoutData)
{
    CostModel m(tinyConfig());
    auto g = makeGraph({makeScale(8)});
    auto ep = m.encode(g, nullptr);
    EXPECT_EQ(model::buildSeparationMask(ep), nullptr);
}

TEST(CostModel, SftLearnsToSeparateTwoPrograms)
{
    // Overfit two programs with very different cycle counts; the model must
    // reproduce both after a short SFT run.
    auto cfg = tinyConfig();
    CostModel m(cfg);
    nn::AdamWConfig ocfg;
    ocfg.lr = 3e-3f;
    nn::AdamW opt(m.parameters(), ocfg);

    auto g_small = makeGraph({makeScale(8)});
    auto g_large = makeGraph({makeScale(64)});
    long y_small = sim::profileStatic(g_small).cycles;
    long y_large = sim::profileStatic(g_large).cycles;
    ASSERT_NE(y_small, y_large);

    auto ep_small = m.encode(g_small);
    auto ep_large = m.encode(g_large);
    for (int step = 0; step < 150; ++step) {
        opt.zeroGrad();
        auto loss = nn::add(
            m.lossForMetric(ep_small, Metric::Cycles, y_small),
            m.lossForMetric(ep_large, Metric::Cycles, y_large));
        loss->backward();
        opt.step();
    }
    EXPECT_EQ(m.predict(ep_small, Metric::Cycles).value, y_small);
    EXPECT_EQ(m.predict(ep_large, Metric::Cycles).value, y_large);
}

TEST(CostModel, CloneIsIndependent)
{
    CostModel m(tinyConfig());
    auto copy = m.clone();
    auto g = makeGraph({makeScale(8)});
    auto ep = m.encode(g);
    auto before = copy->predict(ep, Metric::Power);
    // Perturb the original; the clone must not move.
    for (auto& p : m.parameters())
        for (auto& v : p->value)
            v += 0.05f;
    auto copy_after = copy->predict(ep, Metric::Power);
    EXPECT_EQ(copy_after.value, before.value);
    EXPECT_DOUBLE_EQ(copy_after.logProb, before.logProb);
    // The perturbed original's output distribution has moved.
    EXPECT_NE(m.predict(ep, Metric::Power).logProb, before.logProb);
}

TEST(Calibration, DpoMovesPredictionTowardProfiledTruth)
{
    auto cfg = tinyConfig();
    CostModel m(cfg);
    auto g = makeGraph({makeThreshold()});
    RuntimeData data;
    data.scalars["N"] = 24;
    long truth = sim::profile(g, data).cycles;
    auto ep = m.encode(g, &data);

    // The paper calibrates the SFT-pretrained static model, not a random
    // initialization: warm up toward a deliberately *biased* label (the
    // static model's systematic misprediction) so DPO has something to fix.
    {
        nn::AdamWConfig ocfg;
        ocfg.lr = 3e-3f;
        nn::AdamW opt(m.parameters(), ocfg);
        long biased = truth + truth / 2;
        for (int step = 0; step < 80; ++step) {
            opt.zeroGrad();
            auto loss = m.lossForMetric(ep, Metric::Cycles, biased);
            loss->backward();
            opt.step();
        }
    }
    double static_err = std::fabs(
        double(m.predict(ep, Metric::Cycles).value) - double(truth)) /
        double(truth);
    EXPECT_GT(static_err, 0.25); // the bias is real before calibration

    calib::DpoConfig dcfg;
    dcfg.lr = 3e-3f;
    dcfg.minibatch = 4;
    calib::DpoCalibrator calib(m, dcfg);

    double first_err = -1, last_err = -1;
    for (int iter = 0; iter < 30; ++iter) {
        double err = calib.observe(ep, truth);
        if (iter == 0)
            first_err = err;
        last_err = err;
    }
    // Error decreases across calibration iterations (Section 1: converges
    // after several iterations).
    EXPECT_LT(last_err, first_err);
    EXPECT_LT(last_err, 0.25);
}

TEST(Calibration, ReplayBufferSlidingWindow)
{
    calib::ReplayBuffer buf(3);
    for (int i = 0; i < 5; ++i) {
        calib::PreferenceTriplet t;
        t.yw = {i};
        buf.push(std::move(t));
    }
    EXPECT_EQ(buf.size(), 3u);
    util::Rng rng(1);
    auto sample = buf.sample(rng, 8);
    ASSERT_EQ(sample.size(), 8u);
    for (const auto* t : sample)
        EXPECT_GE(t->yw[0], 2); // only the 3 most recent survive
}

TEST(FastEncoder, MatchesAutogradForwardWithoutCache)
{
    CostModel m(tinyConfig());
    randomizeWeights(m, 3);
    auto g = makeGraph({makeScale(8), makeThreshold()});
    RuntimeData data;
    data.scalars["N"] = 16;
    auto ep = m.encode(g, &data);
    ASSERT_NE(model::buildSeparationMask(ep), nullptr);

    nn::TensorPtr slowPooled = m.pooledForward(ep);
    auto slow = m.head(Metric::Cycles).decode(slowPooled, 3);
    model::InferenceSession session(m);
    EXPECT_EQ(session.forwardPooledBatch({&ep})->value, slowPooled->value);
    expectSamePrediction(m.predict(ep, Metric::Cycles, 3), slow);
    // A miss, which primes the prefix cache, is the same full forward.
    expectSamePrediction(session.predict(ep, Metric::Cycles, 3), slow);
}

// The no-grad forward runs attention and the FFN in 16-row blocks:
// lengths on both sides of the block edges, with and without the
// separation mask, one at a time and in a mixed-length batch, under
// both backends, must all reproduce the autograd graph bit for bit.
TEST(FastEncoder, EveryForwardEqualsAutogradAcrossRowBlockEdges)
{
    auto cfg = tinyConfig();
    cfg.enc.layers = 2;
    cfg.enc.maxSeq = 40;
    CostModel m(cfg);
    randomizeWeights(m, 5);
    std::vector<model::EncodedProgram> eps;
    for (int len : {1, 15, 16, 17, 31, 33, cfg.enc.maxSeq})
        for (bool masked : {false, true})
            eps.push_back(
                syntheticEncoding(len, masked, m.config().enc.vocab));
    // The longest masked encoding has Class I rows and data rows in more
    // than one 16-row block, so the mask rows of every kind are built in
    // more than one block.
    std::set<int> classIBlocks, dataBlocks;
    ASSERT_TRUE(eps.back().hasData);
    for (const auto& r : eps.back().ranges)
        for (int i = r.begin; i < r.end; ++i) {
            if (r.kind == model::SegmentKind::Op && r.classI)
                classIBlocks.insert(i / 16);
            if (r.kind == model::SegmentKind::Data)
                dataBlocks.insert(i / 16);
        }
    EXPECT_GT(classIBlocks.size(), 1u);
    EXPECT_GT(dataBlocks.size(), 1u);

    std::vector<std::vector<float>> scalarRows;
    for (const nn::Backend* be :
         {&nn::scalarBackend(), &nn::vectorBackend()}) {
        BackendGuard guard(*be);
        model::InferenceSession session(m);
        std::vector<std::vector<float>> rows;
        for (const auto& ep : eps) {
            const std::string what = std::string(be->name) + " len " +
                                     std::to_string(ep.length()) +
                                     (ep.hasData ? " masked" : "");
            nn::TensorPtr ref = m.pooledForward(ep);
            EXPECT_EQ(session.forwardPooledBatch({&ep})->value, ref->value)
                << what;
            const model::DigitHead& head = m.head(Metric::Cycles);
            expectSamePrediction(m.predict(ep, Metric::Cycles, 3),
                                 head.decode(ref, 3));
            rows.push_back(ref->value);
        }
        for (size_t first : {size_t(0), eps.size() - 8}) {
            std::vector<const model::EncodedProgram*> batch;
            for (size_t i = first; i < first + 8; ++i)
                batch.push_back(&eps[i]);
            nn::TensorPtr out = session.forwardPooledBatch(batch);
            ASSERT_EQ(out->rows, 8);
            for (int b = 0; b < 8; ++b)
                EXPECT_EQ(std::vector<float>(
                              out->value.begin() + size_t(b) * out->cols,
                              out->value.begin() +
                                  size_t(b + 1) * out->cols),
                          rows[first + b])
                    << be->name << " B=8 row " << b;
        }
        if (scalarRows.empty())
            scalarRows = rows;
        else
            EXPECT_EQ(rows, scalarRows) << "vector != scalar";
    }
}

TEST(FastEncoder, CacheHitReusesRowsAndKeepsPrediction)
{
    auto cfg = tinyConfig();
    CostModel m(cfg);
    auto g = makeGraph({makeScale(8), makeThreshold()});
    RuntimeData d1, d2;
    d1.scalars["N"] = 16;
    d2.scalars["N"] = 48; // data-only change, same static prefix

    model::InferenceSession session(m);
    auto ep1 = m.encode(g, &d1);
    auto ep2 = m.encode(g, &d2);
    session.predict(ep1, Metric::Cycles);
    // A full forward of a program with another static prefix neither
    // reads nor re-keys the cache: ep1's prefix still hits below.
    auto other = m.encode(makeGraph({makeScale(16)}), &d1);
    session.forwardPooledBatch({&other});
    long reused_before = session.stats().rowsReused;
    auto cached = session.predict(ep2, Metric::Cycles);
    EXPECT_EQ(session.stats().cachedForwards, 1);
    EXPECT_GT(session.stats().rowsReused, reused_before);

    // Cached prediction must agree with an uncached prediction on the same
    // input up to the documented Class-I approximation; with a freshly
    // initialized model the digit outputs are diffuse, so only check the
    // mechanism here (exactness on an unchanged input is pinned by
    // CacheHitOnIdenticalEncodingReturnsUncachedBits).
    auto exact = m.predict(ep2, Metric::Cycles);
    EXPECT_EQ(exact.digits.size(), cached.digits.size());
}

TEST(FastEncoder, CacheHitOnIdenticalEncodingReturnsUncachedBits)
{
    CostModel m(tinyConfig());
    randomizeWeights(m, 9);
    auto g = makeGraph({makeScale(8), makeThreshold()});
    RuntimeData data;
    data.scalars["N"] = 16;
    auto ep = m.encode(g, &data);

    // Rows a hit may serve: Class I operator and hardware-parameter rows
    // ahead of the data segment.
    int staticLen = ep.length();
    for (const auto& r : ep.ranges)
        if (r.kind == model::SegmentKind::Data)
            staticLen = std::min(staticLen, r.begin);
    std::vector<uint8_t> reusable(ep.length(), 0);
    for (const auto& r : ep.ranges)
        if ((r.kind == model::SegmentKind::Op && r.classI) ||
            r.kind == model::SegmentKind::Params)
            for (int i = r.begin; i < std::min(r.end, staticLen); ++i)
                reusable[i] = 1;
    long nReusable = 0;
    for (uint8_t f : reusable)
        nReusable += f;
    ASSERT_GT(nReusable, 0);
    ASSERT_LT(nReusable, ep.length());

    model::InferenceSession session(m);
    nn::TensorPtr primed = session.pooled(ep);
    nn::TensorPtr hit = session.pooled(ep);
    EXPECT_EQ(session.stats().cachedForwards, 1);
    EXPECT_EQ(session.stats().rowsReused, nReusable);
    EXPECT_EQ(session.stats().rowsComputed, 2L * ep.length() - nReusable);
    EXPECT_EQ(hit->value, primed->value);
    EXPECT_EQ(hit->value, m.pooledForward(ep)->value);
}

TEST(FastEncoder, StaticPrefixChangeInvalidatesCache)
{
    auto cfg = tinyConfig();
    CostModel m(cfg);
    auto g1 = makeGraph({makeScale(8)});
    auto g2 = makeGraph({makeScale(16)}); // different static program
    model::InferenceSession session(m);
    session.predict(m.encode(g1), Metric::Cycles);
    session.predict(m.encode(g2), Metric::Cycles);
    EXPECT_EQ(session.stats().cachedForwards, 0);
    EXPECT_EQ(session.stats().fullForwards, 2);
}

} // namespace
