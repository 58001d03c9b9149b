/**
 * @file
 * Gradient checks for the autograd primitives: every op's analytic gradient
 * is compared against a central finite difference. The attention op is
 * also held to the per-head composite it replaced (attention_oracle.h),
 * bit for bit, for values and gradients, alone and inside an encoder.
 */

#include <cmath>
#include <cstring>
#include <functional>

#include <gtest/gtest.h>

#include "attention_oracle.h"
#include "nn/attention.h"
#include "nn/backend.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace {

using namespace llmulator;
using nn::Tensor;
using nn::TensorPtr;

/** Build a random [r,c] tensor with requires_grad. */
TensorPtr
randTensor(int r, int c, util::Rng& rng, double scale = 1.0)
{
    std::vector<float> data(size_t(r) * c);
    for (auto& v : data)
        v = static_cast<float>(rng.normal(0.0, scale));
    return Tensor::fromData(r, c, std::move(data), true);
}

/**
 * Numerically check d(scalar fn)/d(input) for every element of every input.
 * fn must rebuild the graph from the current input values on each call.
 */
void
checkGrads(const std::vector<TensorPtr>& inputs,
           const std::function<TensorPtr()>& fn, float tol = 2e-2f)
{
    TensorPtr loss = fn();
    ASSERT_EQ(loss->numel(), 1);
    for (const auto& in : inputs)
        in->zeroGrad();
    loss->backward();

    const float h = 1e-3f;
    for (const auto& in : inputs) {
        ASSERT_FALSE(in->grad.empty());
        for (size_t i = 0; i < in->value.size(); ++i) {
            float orig = in->value[i];
            in->value[i] = orig + h;
            float up = fn()->value[0];
            in->value[i] = orig - h;
            float down = fn()->value[0];
            in->value[i] = orig;
            float numeric = (up - down) / (2 * h);
            float analytic = in->grad[i];
            float err = std::fabs(numeric - analytic);
            float denom = std::max(1.0f, std::fabs(numeric));
            EXPECT_LT(err / denom, tol)
                << "element " << i << " numeric=" << numeric
                << " analytic=" << analytic;
        }
    }
}

TEST(Autograd, MatmulGradient)
{
    util::Rng rng(1);
    auto a = randTensor(3, 4, rng);
    auto b = randTensor(4, 2, rng);
    checkGrads({a, b}, [&] { return nn::sumAll(nn::matmul(a, b)); });
}

TEST(Autograd, TransposeGradient)
{
    util::Rng rng(2);
    auto a = randTensor(3, 5, rng);
    auto w = randTensor(3, 5, rng);
    w->requiresGrad = false;
    checkGrads({a}, [&] {
        return nn::sumAll(
            nn::mulElem(oracle::transpose(a), oracle::transpose(w)));
    });
}

TEST(Autograd, AddSubMulGradient)
{
    util::Rng rng(3);
    auto a = randTensor(2, 3, rng);
    auto b = randTensor(2, 3, rng);
    checkGrads({a, b}, [&] {
        return nn::sumAll(nn::mulElem(nn::add(a, b), nn::sub(a, b)));
    });
}

TEST(Autograd, AddRowGradient)
{
    util::Rng rng(4);
    auto x = randTensor(4, 3, rng);
    auto b = randTensor(1, 3, rng);
    checkGrads({x, b}, [&] {
        return nn::sumAll(nn::mulElem(nn::addRow(x, b), nn::addRow(x, b)));
    });
}

TEST(Autograd, SoftmaxGradient)
{
    util::Rng rng(5);
    auto x = randTensor(3, 6, rng);
    auto w = randTensor(3, 6, rng);
    w->requiresGrad = false;
    checkGrads({x}, [&] {
        return nn::sumAll(nn::mulElem(oracle::softmaxRows(x), w));
    });
}

TEST(Autograd, GeluGradient)
{
    util::Rng rng(6);
    auto x = randTensor(3, 4, rng);
    checkGrads({x}, [&] { return nn::sumAll(nn::gelu(x)); });
}

TEST(Autograd, ReluSigmoidTanhGradient)
{
    util::Rng rng(7);
    auto x = randTensor(2, 5, rng);
    checkGrads({x}, [&] { return nn::sumAll(nn::sigmoid(x)); });
}

TEST(Autograd, LayerNormGradient)
{
    util::Rng rng(8);
    auto x = randTensor(3, 8, rng);
    auto gamma = randTensor(1, 8, rng, 0.5);
    auto beta = randTensor(1, 8, rng, 0.5);
    auto w = randTensor(3, 8, rng);
    w->requiresGrad = false;
    checkGrads({x, gamma, beta}, [&] {
        return nn::sumAll(
            nn::mulElem(nn::layerNormRows(x, gamma, beta), w));
    });
}

TEST(Autograd, EmbedRowsGradient)
{
    util::Rng rng(9);
    auto table = randTensor(6, 4, rng);
    std::vector<int> ids = {1, 3, 3, 0};
    checkGrads({table}, [&] { return nn::sumAll(nn::embedRows(table, ids)); });
}

TEST(Autograd, ConcatSliceGradient)
{
    util::Rng rng(10);
    auto a = randTensor(3, 2, rng);
    auto b = randTensor(3, 3, rng);
    checkGrads({a, b}, [&] {
        auto cat = nn::concatCols(a, b);
        auto s = nn::sliceCols(cat, 1, 3);
        return nn::sumAll(nn::mulElem(s, s));
    });
}

TEST(Autograd, MeanRowsGradient)
{
    util::Rng rng(11);
    auto x = randTensor(5, 3, rng);
    checkGrads({x}, [&] {
        auto m = nn::meanRows(x);
        return nn::sumAll(nn::mulElem(m, m));
    });
}

TEST(Autograd, CrossEntropyGradient)
{
    util::Rng rng(12);
    auto logits = randTensor(4, 5, rng);
    std::vector<int> targets = {0, 2, 4, 1};
    checkGrads({logits},
               [&] { return nn::crossEntropyLogits(logits, targets); });
}

TEST(Autograd, SequenceLogProbGradient)
{
    util::Rng rng(13);
    auto logits = randTensor(3, 10, rng);
    std::vector<int> targets = {7, 0, 3};
    checkGrads({logits},
               [&] { return nn::sequenceLogProb(logits, targets); });
}

TEST(Autograd, MseGradient)
{
    util::Rng rng(14);
    auto pred = randTensor(1, 4, rng);
    std::vector<float> target = {0.1f, -0.5f, 2.0f, 0.0f};
    checkGrads({pred}, [&] { return nn::mseLoss(pred, target); });
}

TEST(Autograd, GradAccumulatesAcrossReuse)
{
    // x used twice in the graph must receive the sum of both paths.
    auto x = Tensor::fromData(1, 2, {1.f, 2.f}, true);
    auto y = nn::add(x, x);
    auto loss = nn::sumAll(y);
    loss->backward();
    EXPECT_FLOAT_EQ(x->grad[0], 2.f);
    EXPECT_FLOAT_EQ(x->grad[1], 2.f);
}

/**
 * Gradients — not just values — must be bit-identical across compute
 * backends (backend.h contract): the matmul backward runs through the
 * backend's gemmAccumBt/gemmAccumAt kernels, so a reordered reduction
 * there would corrupt training trajectories while passing value-only
 * comparisons. Deep matmul/transpose chains make the gradient path
 * exercise all three GEMM variants multiple times.
 */
TEST(Autograd, MatmulTransposeChainGradBitIdenticalAcrossBackends)
{
    struct Run
    {
        float loss;
        std::vector<float> ga, gb, gc;
    };
    auto runChain = [](const nn::Backend& be) {
        const nn::Backend* saved = &nn::backend();
        nn::setBackend(be);
        util::Rng rng(321);
        auto rand = [&rng](int r, int c) {
            std::vector<float> d(size_t(r) * c);
            for (auto& v : d)
                v = static_cast<float>(rng.normal(0.0, 1.0));
            return Tensor::fromData(r, c, std::move(d), true);
        };
        auto a = rand(9, 13);
        auto b = rand(13, 7);
        auto c = rand(9, 7);
        // ((a*b) ⊙ c)^T * a  -> [7,13], then * b -> [7,7], summed.
        auto ab = nn::matmul(a, b);
        auto mixed = nn::mulElem(ab, c);
        auto chained = nn::matmul(oracle::transpose(mixed), a);
        auto loss = nn::sumAll(nn::matmul(chained, b));
        a->zeroGrad();
        b->zeroGrad();
        c->zeroGrad();
        loss->backward();
        Run r{loss->value[0], a->grad, b->grad, c->grad};
        nn::setBackend(*saved);
        return r;
    };
    Run s = runChain(nn::scalarBackend());
    Run v = runChain(nn::vectorBackend());
    EXPECT_EQ(0, std::memcmp(&s.loss, &v.loss, sizeof(float)));
    auto bitEq = [](const std::vector<float>& x, const std::vector<float>& y) {
        return x.size() == y.size() &&
               std::memcmp(x.data(), y.data(),
                           x.size() * sizeof(float)) == 0;
    };
    EXPECT_TRUE(bitEq(s.ga, v.ga));
    EXPECT_TRUE(bitEq(s.gb, v.gb));
    EXPECT_TRUE(bitEq(s.gc, v.gc));
}

TEST(Autograd, AttentionGradient)
{
    util::Rng rng(15);
    auto q = randTensor(5, 8, rng, 0.5);
    auto k = randTensor(5, 8, rng, 0.5);
    auto v = randTensor(5, 8, rng);
    auto w = randTensor(5, 8, rng);
    w->requiresGrad = false;
    auto mask = Tensor::zeros(5, 5);
    mask->at(0, 3) = -1e9f;
    mask->at(3, 0) = -1e9f;
    for (const TensorPtr& m : {TensorPtr(), mask})
        checkGrads({q, k, v}, [&] {
            return nn::sumAll(nn::mulElem(nn::attention(q, k, v, m, 2), w));
        });
}

/** Bitwise equality of two float vectors. */
bool
bitEq(const std::vector<float>& x, const std::vector<float>& y)
{
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/**
 * An [n, n] additive mask shaped like the separation mask: rows of one
 * range block the columns of another and vice versa, so whole
 * probabilities come out exactly zero. Null below 4 rows.
 */
TensorPtr
blockingMask(int n)
{
    if (n < 4)
        return nullptr;
    auto mask = Tensor::zeros(n, n);
    for (int i = n / 4; i < n / 2; ++i)
        for (int j = (3 * n) / 4; j < n; ++j) {
            mask->at(i, j) = -1e9f;
            mask->at(j, i) = -1e9f;
        }
    return mask;
}

/** Backend switch restored on scope exit. */
struct ActiveBackend
{
    const nn::Backend* saved = &nn::backend();
    explicit ActiveBackend(const nn::Backend& be) { nn::setBackend(be); }
    ~ActiveBackend() { nn::setBackend(*saved); }
};

TEST(Autograd, AttentionEqualsPerHeadCompositeBitForBit)
{
    // Lengths on and around the op's 16-row blocks; head widths on both
    // sides of the vector gemmAccumBt's 8-column cutoff.
    struct Shape
    {
        int d, heads;
    };
    for (const nn::Backend* be :
         {&nn::scalarBackend(), &nn::vectorBackend()}) {
        ActiveBackend active(*be);
        for (Shape shape : {Shape{24, 2}, Shape{48, 4}, Shape{8, 2}}) {
            for (int n : {1, 3, 15, 16, 17, 33, 40, 50}) {
                for (bool masked : {false, true}) {
                    SCOPED_TRACE(testing::Message()
                                 << be->name << " d=" << shape.d << " heads="
                                 << shape.heads << " n=" << n
                                 << (masked ? " masked" : ""));
                    util::Rng rng(100 + n);
                    auto q = randTensor(n, shape.d, rng, 0.7);
                    auto k = randTensor(n, shape.d, rng, 0.7);
                    auto v = randTensor(n, shape.d, rng);
                    auto w = randTensor(n, shape.d, rng);
                    w->requiresGrad = false;
                    const TensorPtr mask = masked ? blockingMask(n) : nullptr;

                    TensorPtr op = nn::attention(q, k, v, mask, shape.heads);
                    nn::sumAll(nn::mulElem(op, w))->backward();
                    const std::vector<float> gq = q->grad, gk = k->grad,
                                             gv = v->grad;
                    for (const TensorPtr& t : {q, k, v})
                        t->zeroGrad();
                    TensorPtr ref =
                        oracle::attention(q, k, v, mask, shape.heads);
                    nn::sumAll(nn::mulElem(ref, w))->backward();

                    EXPECT_TRUE(bitEq(op->value, ref->value));
                    EXPECT_TRUE(bitEq(gq, q->grad));
                    EXPECT_TRUE(bitEq(gk, k->grad));
                    EXPECT_TRUE(bitEq(gv, v->grad));
                }
            }
        }
    }
}

TEST(Autograd, EncoderOnAttentionOpEqualsCompositeBitForBit)
{
    // The whole tape, not just the op: two masked layers trained on
    // sequences around the row blocks. Every parameter gradient must
    // equal the composite encoder's, which pins the order in which
    // the Q, K and V projections' gradients reach the LN output.
    nn::EncoderConfig cfg;
    cfg.vocab = 31;
    cfg.dim = 24;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.ffn = 40;
    cfg.maxSeq = 40;
    for (const nn::Backend* be :
         {&nn::scalarBackend(), &nn::vectorBackend()}) {
        ActiveBackend active(*be);
        util::Rng rng(77);
        nn::TransformerEncoder enc(cfg, rng);
        auto head = randTensor(cfg.dim, 1, rng, 0.3);
        auto params = enc.parameters();
        params.push_back(head);

        auto grads = [&](bool composite) {
            util::Rng ids(5);
            TensorPtr loss;
            for (int n : {1, 16, 17, 33, 40}) {
                std::vector<int> seq(n);
                for (int& id : seq)
                    id = static_cast<int>(ids.uniformInt(0, cfg.vocab - 1));
                const TensorPtr mask = blockingMask(n);
                TensorPtr hidden = composite
                                       ? oracle::encoderForward(enc, seq, mask)
                                       : enc.forward(seq, mask);
                TensorPtr l = nn::mseLoss(
                    nn::matmul(nn::TransformerEncoder::pooled(hidden), head),
                    {0.25f * n});
                loss = loss ? nn::add(loss, l) : l;
            }
            for (const auto& p : params)
                p->zeroGrad();
            loss->backward();
            std::vector<std::vector<float>> out = {loss->value};
            for (const auto& p : params)
                out.push_back(p->grad);
            return out;
        };
        const auto op = grads(false);
        const auto ref = grads(true);
        ASSERT_EQ(op.size(), ref.size());
        for (size_t i = 0; i < op.size(); ++i)
            EXPECT_TRUE(bitEq(op[i], ref[i]))
                << be->name << (i == 0 ? " loss" : " parameter gradient ")
                << (i == 0 ? "" : std::to_string(i - 1));
    }
}

TEST(Autograd, NoGradWhenNotRequired)
{
    auto x = Tensor::fromData(1, 2, {1.f, 2.f}, false);
    auto y = nn::scale(x, 3.f);
    EXPECT_FALSE(y->requiresGrad);
    EXPECT_EQ(y->backwardFn, nullptr);
}

} // namespace
