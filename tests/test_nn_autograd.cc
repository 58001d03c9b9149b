/**
 * @file
 * Gradient checks for the autograd primitives: every op's analytic gradient
 * is compared against a central finite difference.
 */

#include <cmath>
#include <cstring>
#include <functional>

#include <gtest/gtest.h>

#include "nn/backend.h"
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
        return nn::sumAll(nn::mulElem(nn::transpose(a), nn::transpose(w)));
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
        return nn::sumAll(nn::mulElem(nn::softmaxRows(x), w));
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
        auto chained = nn::matmul(nn::transpose(mixed), a);
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

TEST(Autograd, NoGradWhenNotRequired)
{
    auto x = Tensor::fromData(1, 2, {1.f, 2.f}, false);
    auto y = nn::scale(x, 3.f);
    EXPECT_FALSE(y->requiresGrad);
    EXPECT_EQ(y->backwardFn, nullptr);
}

} // namespace
