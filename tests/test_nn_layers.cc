/**
 * @file
 * Layer-level tests: shapes, masking semantics, optimizer behaviour, and an
 * end-to-end "tiny transformer can fit a toy classification task" check.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace {

using namespace llmulator;
using nn::Tensor;
using nn::TensorPtr;

TEST(Layers, LinearShapeAndBias)
{
    util::Rng rng(1);
    nn::Linear lin(4, 3, rng);
    auto x = Tensor::zeros(2, 4);
    lin.bias->value = {1.f, 2.f, 3.f};
    auto y = lin.forward(x);
    EXPECT_EQ(y->rows, 2);
    EXPECT_EQ(y->cols, 3);
    // Zero input -> output equals bias on every row.
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_FLOAT_EQ(y->at(i, j), lin.bias->value[j]);
}

TEST(Layers, EmbeddingLookup)
{
    util::Rng rng(2);
    nn::Embedding emb(10, 6, rng);
    auto y = emb.forward({3, 3, 7});
    EXPECT_EQ(y->rows, 3);
    EXPECT_EQ(y->cols, 6);
    for (int j = 0; j < 6; ++j) {
        EXPECT_FLOAT_EQ(y->at(0, j), y->at(1, j));
        EXPECT_FLOAT_EQ(y->at(0, j), emb.table->at(3, j));
    }
}

TEST(Layers, LayerNormNormalizesRows)
{
    util::Rng rng(3);
    nn::LayerNorm ln(8);
    std::vector<float> data(24);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<float>(rng.normal(5.0, 3.0));
    auto x = Tensor::fromData(3, 8, std::move(data));
    auto y = ln.forward(x);
    for (int i = 0; i < 3; ++i) {
        float mean = 0.f, var = 0.f;
        for (int j = 0; j < 8; ++j)
            mean += y->at(i, j);
        mean /= 8;
        for (int j = 0; j < 8; ++j)
            var += (y->at(i, j) - mean) * (y->at(i, j) - mean);
        var /= 8;
        EXPECT_NEAR(mean, 0.f, 1e-4f);
        EXPECT_NEAR(var, 1.f, 1e-2f);
    }
}

TEST(Layers, AttentionMaskBlocksInteraction)
{
    // With a mask that blocks position 0 from attending to position 1,
    // changing token 1's embedding must not change position 0's attention
    // output (single block, no FFN shortcut: we check the attention layer
    // directly).
    util::Rng rng(4);
    nn::MultiHeadSelfAttention attn(8, 2, rng);

    auto make_x = [&](float v) {
        auto x = Tensor::zeros(2, 8);
        for (int j = 0; j < 8; ++j) {
            x->at(0, j) = 0.1f * j;
            x->at(1, j) = v;
        }
        return x;
    };
    // Additive mask: row 0 can only see itself; row 1 sees everything.
    auto mask = Tensor::zeros(2, 2);
    mask->at(0, 1) = -1e9f;

    auto y1 = attn.forward(make_x(0.5f), mask);
    auto y2 = attn.forward(make_x(9.0f), mask);
    for (int j = 0; j < 8; ++j) {
        EXPECT_NEAR(y1->at(0, j), y2->at(0, j), 1e-5f)
            << "masked row leaked information";
    }
    // Row 1 (unmasked) must differ.
    float diff = 0.f;
    for (int j = 0; j < 8; ++j)
        diff += std::fabs(y1->at(1, j) - y2->at(1, j));
    EXPECT_GT(diff, 1e-3f);
}

TEST(Layers, EncoderShapesAndPooling)
{
    util::Rng rng(5);
    nn::EncoderConfig cfg;
    cfg.vocab = 20;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.ffn = 32;
    cfg.maxSeq = 10;
    nn::TransformerEncoder enc(cfg, rng);
    auto h = enc.forward({1, 2, 3, 4, 5});
    EXPECT_EQ(h->rows, 5);
    EXPECT_EQ(h->cols, 16);
    auto p = nn::TransformerEncoder::pooled(h);
    EXPECT_EQ(p->rows, 1);
    EXPECT_EQ(p->cols, 16);

    // Sequences longer than maxSeq are truncated to their first maxSeq
    // ids, not fatal. The ids differ along the sequence, so keeping any
    // other 10 tokens would change the hidden states.
    std::vector<int> long_ids(25);
    for (int i = 0; i < 25; ++i)
        long_ids[i] = i % cfg.vocab;
    auto h2 = enc.forward(long_ids);
    EXPECT_EQ(h2->rows, 10);
    std::vector<int> prefix(long_ids.begin(), long_ids.begin() + cfg.maxSeq);
    EXPECT_EQ(h2->value, enc.forward(prefix)->value);
}

TEST(Layers, ParameterCountsArePlausible)
{
    util::Rng rng(6);
    nn::EncoderConfig cfg;
    cfg.vocab = 50;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.ffn = 32;
    cfg.maxSeq = 8;
    nn::TransformerEncoder enc(cfg, rng);
    // vocab*d + pos + block(4*(d*d+d) + 2 LN(2d) + ff(d*f+f + f*d+d)) + final LN
    int64_t expect = 50 * 16 + 8 * 16 +
                     (4 * (16 * 16 + 16) + 2 * 32 +
                      (16 * 32 + 32) + (32 * 16 + 16)) +
                     2 * 16;
    EXPECT_EQ(enc.parameterCount(), expect);
}

TEST(Optim, AdamWReducesQuadraticLoss)
{
    auto w = Tensor::fromData(1, 3, {5.f, -4.f, 3.f}, true);
    nn::AdamWConfig cfg;
    cfg.lr = 0.1f;
    cfg.weightDecay = 0.f;
    nn::AdamW opt({w}, cfg);
    std::vector<float> target = {1.f, 1.f, 1.f};
    float first_loss = 0.f, last_loss = 0.f;
    for (int step = 0; step < 200; ++step) {
        opt.zeroGrad();
        auto loss = nn::mseLoss(w, target);
        if (step == 0)
            first_loss = loss->value[0];
        last_loss = loss->value[0];
        loss->backward();
        opt.step();
    }
    EXPECT_LT(last_loss, first_loss * 1e-3f);
}

TEST(Optim, GradClippingBoundsUpdateDirection)
{
    auto w = Tensor::fromData(1, 1, {0.f}, true);
    nn::AdamWConfig cfg;
    cfg.clipNorm = 1.0f;
    nn::AdamW opt({w}, cfg);
    opt.zeroGrad();
    auto loss = nn::mseLoss(w, {1000.f}); // huge gradient
    loss->backward();
    opt.step();
    EXPECT_GT(opt.lastGradNorm(), 1.0f); // raw norm was large
    // Parameter moved by roughly lr (Adam normalizes), not exploded.
    EXPECT_LT(std::fabs(w->value[0]), 1.f);
}

TEST(EndToEnd, TinyTransformerFitsCountingTask)
{
    // Token sequences of {1,2}; label = whether the fraction of token 2
    // exceeds one half. Mean-pooled attention can represent this directly.
    util::Rng rng(7);
    nn::EncoderConfig cfg;
    cfg.vocab = 4;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.ffn = 32;
    cfg.maxSeq = 8;
    nn::TransformerEncoder enc(cfg, rng);
    nn::Linear head(16, 2, rng);

    auto params = enc.parameters();
    for (const auto& p : head.parameters())
        params.push_back(p);
    nn::AdamWConfig ocfg;
    ocfg.lr = 3e-3f;
    nn::AdamW opt(params, ocfg);

    auto sample = [&](util::Rng& r, std::vector<int>& ids) {
        ids.clear();
        int len = static_cast<int>(r.uniformInt(4, 8));
        int twos = 0;
        for (int i = 0; i < len; ++i) {
            int t = static_cast<int>(r.uniformInt(1, 2));
            twos += (t == 2);
            ids.push_back(t);
        }
        return (2 * twos > len) ? 1 : 0;
    };

    for (int step = 0; step < 300; ++step) {
        std::vector<int> ids;
        int label = sample(rng, ids);
        opt.zeroGrad();
        auto h = enc.forward(ids);
        auto logits = head.forward(nn::TransformerEncoder::pooled(h));
        auto loss = nn::crossEntropyLogits(logits, {label});
        loss->backward();
        opt.step();
    }

    util::Rng eval_rng(99);
    int correct = 0, total = 60;
    for (int i = 0; i < total; ++i) {
        std::vector<int> ids;
        int label = sample(eval_rng, ids);
        auto h = enc.forward(ids);
        auto logits = head.forward(nn::TransformerEncoder::pooled(h));
        int pred = logits->at(0, 0) > logits->at(0, 1) ? 0 : 1;
        correct += (pred == label);
    }
    EXPECT_GT(correct, total * 3 / 4)
        << "transformer failed to fit an easy parity task";
}

TEST(Serialize, RoundTripRestoresWeights)
{
    util::Rng rng(8);
    nn::Linear a(4, 4, rng), b(4, 4, rng);
    std::string path = "/tmp/llmulator_test_params.bin";
    ASSERT_TRUE(nn::saveParameters(path, a.parameters()));
    ASSERT_TRUE(nn::loadParameters(path, b.parameters()));
    for (size_t i = 0; i < a.weight->value.size(); ++i)
        EXPECT_FLOAT_EQ(a.weight->value[i], b.weight->value[i]);
    // Shape mismatch must fail cleanly.
    nn::Linear c(4, 5, rng);
    EXPECT_FALSE(nn::loadParameters(path, c.parameters()));
    std::remove(path.c_str());
}

} // namespace
