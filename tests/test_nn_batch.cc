/**
 * @file
 * Batched-inference tests. The library has one batched path, the
 * ragged and autograd-free InferenceSession::forwardPooledBatch followed
 * by DigitHead::decodeBatch; both must equal B sequential calls bit for
 * bit. Also pins that the encoder forward stays bit-identical with the
 * telemetry gates on.
 *
 * Every equality here is EXPECT_EQ on float values (or whole vectors),
 * not near-comparison: bit-identity is the API contract that keeps a
 * prediction byte-stable whatever batch it ran in (CostModel::predict,
 * DPO and the serving workers run B = 1).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "dfir/builder.h"
#include "model/cost_model.h"
#include "model/fast_encoder.h"
#include "nn/layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace llmulator;
using namespace llmulator::dfir;

namespace {

/** Rows [start, start+len) of a stacked tensor as a plain vector. */
std::vector<float>
rowSpan(const nn::TensorPtr& t, int start, int len)
{
    return std::vector<float>(
        t->value.begin() + size_t(start) * t->cols,
        t->value.begin() + size_t(start + len) * t->cols);
}

nn::EncoderConfig
tinyEncoderConfig()
{
    nn::EncoderConfig cfg;
    cfg.vocab = 13;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.ffn = 24;
    cfg.maxSeq = 32;
    return cfg;
}

/** Deterministic token sequence of the given length. */
std::vector<int>
makeSeq(int len, int salt, int vocab)
{
    std::vector<int> ids(len);
    for (int i = 0; i < len; ++i)
        ids[i] = (salt + 3 * i) % vocab;
    return ids;
}

/** Additive mask blocking (i, j) pairs where i%3==0 and j>=len/2. */
nn::TensorPtr
makeControlMask(int len)
{
    auto mask = nn::Tensor::zeros(len, len);
    for (int i = 0; i < len; i += 3)
        for (int j = len / 2; j < len; ++j) {
            mask->at(i, j) = -1e9f;
            mask->at(j, i) = -1e9f;
        }
    return mask;
}

DataflowGraph
makeGraph(const std::string& name, long bias)
{
    Operator op;
    op.name = "scale";
    op.scalarParams = {"N"};
    op.tensors = {tensor("X", {p("N")}), tensor("Y", {p("N")})};
    op.body = {forLoop("i", c(0), p("N"),
                       {assign("Y", {v("i")},
                               badd(a("X", {v("i")}), c(bias)))})};
    DataflowGraph g;
    g.name = name;
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

model::CostModelConfig
tinyModelConfig()
{
    auto cfg = model::configForScale(model::ModelScale::Tiny);
    cfg.enc.maxSeq = 128;
    return cfg;
}

} // namespace

TEST(InferenceSessionBatch, ForwardPooledBatchMatchesSequential)
{
    model::CostModel m(tinyModelConfig());
    DataflowGraph g1 = makeGraph("x", 3), g2 = makeGraph("y", 4);
    RuntimeData d = makeData(20);
    auto epA = m.encode(g1, nullptr);
    auto epB = m.encode(g2, &d);
    auto epC = m.encode(g2, nullptr);

    model::InferenceSession batchSession(m);
    nn::TensorPtr batch =
        batchSession.forwardPooledBatch({&epA, &epB, &epC});
    ASSERT_EQ(batch->rows, 3);
    EXPECT_EQ(batchSession.stats().fullForwards, 3);

    model::InferenceSession seq(m);
    const model::EncodedProgram* eps[] = {&epA, &epB, &epC};
    for (int i = 0; i < 3; ++i) {
        nn::TensorPtr ref = seq.forwardPooledBatch({eps[i]});
        EXPECT_EQ(rowSpan(batch, i, 1), rowSpan(ref, 0, 1))
            << "fast-path pooled row " << i;
    }
}

// The forward's GEMMs go through the counted entry point matmul uses,
// so the nn.* FLOP rows see serving: one forward counts exactly the
// encoder's shape formula (per layer: Q/K/V/O projections, scores and
// P.V, two FFN matmuls; 2 FLOPs per multiply-add).
TEST(InferenceSessionBatch, CountedFlopsOfOneForwardMatchShapeFormula)
{
    model::CostModel m(tinyModelConfig());
    RuntimeData d = makeData(20);
    auto ep = m.encode(makeGraph("f", 2), &d);
    const nn::EncoderConfig& enc = m.config().enc;
    const uint64_t n = uint64_t(std::min(ep.length(), enc.maxSeq));
    const uint64_t dim = uint64_t(enc.dim), ffn = uint64_t(enc.ffn);

    model::InferenceSession session(m);
    obs::registry().reset();
    obs::setMetricsEnabled(true);
    session.forwardPooledBatch({&ep});
    obs::setMetricsEnabled(false);
    double flops = 0;
    for (const auto& row : obs::registry().rows("nn."))
        if (row.name.size() > 6 &&
            row.name.compare(row.name.size() - 6, 6, ".flops") == 0)
            flops += row.value;
    obs::registry().reset();

    EXPECT_EQ(flops, double(uint64_t(enc.layers) *
                            (8 * n * dim * dim + 4 * n * n * dim +
                             4 * n * dim * ffn)));
}

TEST(DigitHeadBatch, DecodeBatchMatchesSequentialDecode)
{
    model::CostModel m(tinyModelConfig());
    DataflowGraph g1 = makeGraph("p", 1), g2 = makeGraph("q", 5);
    auto epA = m.encode(g1, nullptr);
    auto epB = m.encode(g2, nullptr);

    model::InferenceSession session(m);
    nn::TensorPtr pooled = session.forwardPooledBatch({&epA, &epB});

    for (int mi = 0; mi < model::kNumMetrics; ++mi) {
        const model::DigitHead& head =
            m.head(static_cast<model::Metric>(mi));
        auto preds = head.decodeBatch(pooled, /*beam_width=*/3);
        ASSERT_EQ(preds.size(), 2u);
        for (int r = 0; r < 2; ++r) {
            auto row = nn::Tensor::fromData(1, pooled->cols,
                                            rowSpan(pooled, r, 1));
            model::NumericPrediction ref = head.decode(row, 3);
            EXPECT_EQ(preds[r].value, ref.value);
            EXPECT_EQ(preds[r].digits, ref.digits);
            EXPECT_EQ(preds[r].digitProbs, ref.digitProbs);
            EXPECT_EQ(preds[r].logProb, ref.logProb);
        }
    }
}

// Telemetry is speed-only: with the metrics and trace gates forced on,
// the encoder forward produces bit-identical outputs to a telemetry-off
// run, while the GEMM call/FLOP counters actually count.
TEST(EncoderBatch, TelemetryEnabledKeepsForwardBitIdentical)
{
    nn::EncoderConfig cfg = tinyEncoderConfig();
    std::vector<std::vector<int>> seqs = {makeSeq(7, 1, cfg.vocab),
                                          makeSeq(12, 5, cfg.vocab)};
    std::vector<nn::TensorPtr> masks = {makeControlMask(7), nullptr};
    // Every sequence's pooled row, concatenated.
    auto pooledRows = [&](const nn::TransformerEncoder& enc) {
        std::vector<float> out;
        for (size_t b = 0; b < seqs.size(); ++b) {
            nn::TensorPtr p = nn::TransformerEncoder::pooled(
                enc.forward(seqs[b], masks[b]));
            out.insert(out.end(), p->value.begin(), p->value.end());
        }
        return out;
    };

    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    util::Rng rngOff(11);
    nn::TransformerEncoder encOff(cfg, rngOff);
    std::vector<float> off = pooledRows(encOff);

    obs::registry().reset();
    obs::setMetricsEnabled(true);
    obs::setTraceEnabled(true);
    util::Rng rngOn(11);
    nn::TransformerEncoder encOn(cfg, rngOn);
    std::vector<float> on = pooledRows(encOn);
    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    obs::clearSpans();

    EXPECT_EQ(on, off); // every row, bit for bit

    // The instrumented run counted its GEMMs (per kernel per backend,
    // nn.gemm_accum.<backend>.{calls,flops}).
    uint64_t calls = 0;
    for (const auto& row : obs::registry().rows("nn.gemm_accum."))
        if (row.metric == "count" &&
            row.name.find(".calls") != std::string::npos)
            calls += uint64_t(row.value);
    EXPECT_GT(calls, 0u);
}
