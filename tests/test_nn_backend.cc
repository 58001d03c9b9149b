/**
 * @file
 * Pins the nn compute-backend contracts (src/nn/backend.h):
 *
 *  1. Bit-identity: on finite inputs the vector backend produces
 *     bit-for-bit the scalar reference's results — raw kernels across
 *     odd/tiny/large shapes and zero-heavy inputs, full
 *     forward+backward autograd graphs (values AND gradients), and a
 *     complete minibatch-training run.
 *  2. Cache-key exclusion: because backends are interchangeable bit for
 *     bit, backend choice is NOT part of model-cache keys — parameters
 *     stored under one backend must hit and load bitwise under the
 *     other.
 *  3. Finite-input contract: the GEMM zero-skip (`a == 0.0f`, also true
 *     for -0.0f) suppresses the skipped element's IEEE contribution
 *     (notably 0 * inf = NaN). Both backends share the predicate, so
 *     they agree with each other even on hazardous inputs; the hazard
 *     exists only relative to an unskipped evaluation.
 *  4. Selection: setBackendByName / the LLMULATOR_NN_BACKEND contract
 *     ("auto"/empty resolve to vector, unknown names are rejected).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "eval/model_cache.h"
#include "harness/trainer.h"
#include "nn/backend.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"
#include "util/string_util.h"

#include <unistd.h>

namespace {

using namespace llmulator;
using nn::Tensor;
using nn::TensorPtr;

/** Restore the active backend on scope exit (tests share the global). */
class BackendGuard
{
  public:
    BackendGuard() : saved_(&nn::backend()) {}
    ~BackendGuard() { nn::setBackend(*saved_); }

  private:
    const nn::Backend* saved_;
};

std::vector<float>
randVec(size_t n, util::Rng& rng, double scale = 1.0)
{
    std::vector<float> v(n);
    for (auto& x : v)
        x = static_cast<float>(rng.normal(0.0, scale));
    return v;
}

/** Random data where roughly `zero_permille`/1000 entries are ±0. */
std::vector<float>
zeroHeavyVec(size_t n, util::Rng& rng, int zero_permille)
{
    std::vector<float> v(n);
    for (size_t i = 0; i < n; ++i) {
        if (rng.uniform(0.0, 1000.0) < zero_permille)
            v[i] = (i % 3 == 0) ? -0.f : 0.f;
        else
            v[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    return v;
}

bool
bitEqual(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

struct GemmShape
{
    int m, k, n;
};

/**
 * The sweep: tiny, odd/prime, non-multiple-of-block, and the
 * [64,256]x[256,256] class the pooled cost-model GEMMs hit, plus the
 * real encoder shapes (attention scores at headDim 12, FFN at 48->128)
 * and per-head attention at sequence lengths 206 and 280, whose P*V,
 * dV and dQ have 12-wide outputs.
 */
const GemmShape kShapes[] = {
    {1, 1, 1},      {1, 1, 8},       {1, 7, 3},      {3, 1, 1},
    {2, 3, 4},      {4, 8, 8},       {5, 7, 9},      {13, 1, 17},
    {7, 13, 11},    {17, 31, 29},    {33, 64, 15},   {31, 12, 192},
    {192, 48, 128}, {100, 48, 48},   {64, 256, 256}, {206, 206, 12},
    {280, 280, 12}, {206, 12, 206},
};

void
runGemmCompare(const GemmShape& s, const std::vector<float>& a,
               const std::vector<float>& b, const std::vector<float>& dc,
               const std::vector<float>& cinit)
{
    const nn::Backend& sc = nn::scalarBackend();
    const nn::Backend& ve = nn::vectorBackend();

    std::vector<float> c1 = cinit, c2 = cinit;
    sc.gemmAccum(a.data(), b.data(), c1.data(), s.m, s.k, s.n);
    ve.gemmAccum(a.data(), b.data(), c2.data(), s.m, s.k, s.n);
    EXPECT_TRUE(bitEqual(c1, c2))
        << "gemmAccum " << s.m << "x" << s.k << "x" << s.n;

    std::vector<float> da1(size_t(s.m) * s.k, 0.25f);
    std::vector<float> da2 = da1;
    sc.gemmAccumBt(dc.data(), b.data(), da1.data(), s.m, s.k, s.n);
    ve.gemmAccumBt(dc.data(), b.data(), da2.data(), s.m, s.k, s.n);
    EXPECT_TRUE(bitEqual(da1, da2))
        << "gemmAccumBt " << s.m << "x" << s.k << "x" << s.n;

    std::vector<float> db1(size_t(s.k) * s.n, -0.5f);
    std::vector<float> db2 = db1;
    sc.gemmAccumAt(a.data(), dc.data(), db1.data(), s.m, s.k, s.n);
    ve.gemmAccumAt(a.data(), dc.data(), db2.data(), s.m, s.k, s.n);
    EXPECT_TRUE(bitEqual(db1, db2))
        << "gemmAccumAt " << s.m << "x" << s.k << "x" << s.n;
}

TEST(NnBackend, GemmBitIdentityShapeSweepDense)
{
    util::Rng rng(101);
    for (const auto& s : kShapes) {
        auto a = randVec(size_t(s.m) * s.k, rng);
        auto b = randVec(size_t(s.k) * s.n, rng);
        auto dc = randVec(size_t(s.m) * s.n, rng);
        auto c = randVec(size_t(s.m) * s.n, rng, 0.1);
        runGemmCompare(s, a, b, dc, c);
    }
}

TEST(NnBackend, GemmBitIdentityZeroHeavy)
{
    // Zero-heavy multipliers exercise the zero-skip on every path,
    // including -0.0f entries (skipped: -0.0f == 0.0f).
    util::Rng rng(202);
    for (const auto& s : kShapes) {
        auto a = zeroHeavyVec(size_t(s.m) * s.k, rng, 700);
        auto b = zeroHeavyVec(size_t(s.k) * s.n, rng, 300);
        auto dc = zeroHeavyVec(size_t(s.m) * s.n, rng, 700);
        std::vector<float> c(size_t(s.m) * s.n, 0.f);
        runGemmCompare(s, a, b, dc, c);
    }
}

TEST(NnBackend, GemmBitIdentityNarrowWidthSweep)
{
    // Every output width 1..20 of every variant (n for gemmAccum and
    // gemmAccumAt, k for gemmAccumBt) crosses the 16-, 12-, 8- and
    // 4-wide tiles and the per-element tail, at one full row block
    // (m = 4) and one with a leftover row (m = 5).
    util::Rng rng(404);
    for (int m : {4, 5}) {
        for (int k = 1; k <= 20; ++k) {
            for (int n = 1; n <= 20; ++n) {
                const GemmShape s{m, k, n};
                const size_t mk = size_t(m) * k, kn = size_t(k) * n;
                const size_t mn = size_t(m) * n;
                runGemmCompare(s, randVec(mk, rng), randVec(kn, rng),
                               randVec(mn, rng), randVec(mn, rng, 0.1));
                runGemmCompare(s, zeroHeavyVec(mk, rng, 600),
                               zeroHeavyVec(kn, rng, 300),
                               zeroHeavyVec(mn, rng, 600),
                               std::vector<float>(mn, 0.f));
            }
        }
    }
}

TEST(NnBackend, RowWiseKernelsBitIdentity)
{
    util::Rng rng(303);
    const nn::Backend& sc = nn::scalarBackend();
    const nn::Backend& ve = nn::vectorBackend();
    const int dims[][2] = {{1, 1},  {1, 9},  {3, 1},   {5, 8},
                           {7, 13}, {16, 48}, {33, 127}, {64, 256}};
    for (const auto& d : dims) {
        int m = d[0], n = d[1];
        size_t sz = size_t(m) * n;
        auto x = randVec(sz, rng, 2.0);
        auto y = randVec(sz, rng);

        std::vector<float> o1(sz), o2(sz);
        sc.softmaxRows(x.data(), o1.data(), m, n);
        ve.softmaxRows(x.data(), o2.data(), m, n);
        EXPECT_TRUE(bitEqual(o1, o2)) << "softmaxRows " << m << "x" << n;

        auto gamma = randVec(n, rng);
        auto beta = randVec(n, rng);
        std::vector<float> xh1(sz), xh2(sz), is1(m), is2(m);
        sc.layerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f,
                         o1.data(), xh1.data(), is1.data(), m, n);
        ve.layerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f,
                         o2.data(), xh2.data(), is2.data(), m, n);
        EXPECT_TRUE(bitEqual(o1, o2)) << "layerNormRows " << m << "x" << n;
        EXPECT_TRUE(bitEqual(xh1, xh2)) << "layerNorm xhat " << m << "x" << n;
        EXPECT_TRUE(bitEqual(is1, is2)) << "layerNorm invstd " << m;

        std::vector<float> t1(sz), t2(sz), o3(sz);
        sc.geluForward(x.data(), o1.data(), t1.data(), sz);
        ve.geluForward(x.data(), o2.data(), t2.data(), sz);
        EXPECT_TRUE(bitEqual(o1, o2)) << "gelu " << sz;
        EXPECT_TRUE(bitEqual(t1, t2)) << "gelu tanh " << sz;
        for (size_t i = 0; i < sz; ++i) // the tanh y was built from
            ASSERT_EQ(o1[i], 0.5f * x[i] * (1.f + t1[i])) << "gelu " << i;
        ve.geluForward(x.data(), o3.data(), nullptr, sz); // tanh optional
        EXPECT_TRUE(bitEqual(o1, o3)) << "gelu without tanh " << sz;

        sc.addElem(x.data(), y.data(), o1.data(), sz);
        ve.addElem(x.data(), y.data(), o2.data(), sz);
        EXPECT_TRUE(bitEqual(o1, o2)) << "addElem " << sz;

        sc.subElem(x.data(), y.data(), o1.data(), sz);
        ve.subElem(x.data(), y.data(), o2.data(), sz);
        EXPECT_TRUE(bitEqual(o1, o2)) << "subElem " << sz;

        sc.mulElem(x.data(), y.data(), o1.data(), sz);
        ve.mulElem(x.data(), y.data(), o2.data(), sz);
        EXPECT_TRUE(bitEqual(o1, o2)) << "mulElem " << sz;

        std::vector<float> acc1 = y, acc2 = y;
        sc.axpy(0.37f, x.data(), acc1.data(), sz);
        ve.axpy(0.37f, x.data(), acc2.data(), sz);
        EXPECT_TRUE(bitEqual(acc1, acc2)) << "axpy " << sz;

        sc.scaleElem(-1.7f, x.data(), o1.data(), sz);
        ve.scaleElem(-1.7f, x.data(), o2.data(), sz);
        EXPECT_TRUE(bitEqual(o1, o2)) << "scaleElem " << sz;
    }
}

/**
 * Build a 2-layer encoder + pooled regression graph over three sequences
 * of different lengths, sum their losses, run forward and backward, and
 * return the loss bits plus every parameter gradient. Everything (init,
 * data) is seeded, so the only degree of freedom between calls is the
 * active backend.
 */
struct GraphResult
{
    float loss;
    std::vector<std::vector<float>> grads;
};

GraphResult
runEncoderGraph(const nn::Backend& be)
{
    BackendGuard guard;
    nn::setBackend(be);

    util::Rng rng(7777);
    nn::EncoderConfig cfg;
    cfg.vocab = 23;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.ffn = 32;
    cfg.maxSeq = 12;
    nn::TransformerEncoder enc(cfg, rng);

    std::vector<std::vector<int>> seqs = {
        {1, 2, 3, 4, 5, 6, 7},
        {8, 9, 10},
        {11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
    };
    // One scalar head on top so softmax/gelu/layernorm/GEMM all sit on
    // the gradient path.
    auto head = nn::Tensor::fromData(
        cfg.dim, 1, randVec(cfg.dim, rng, 0.3), true);
    const float targets[] = {0.5f, -1.0f, 2.0f};
    TensorPtr loss;
    for (size_t i = 0; i < seqs.size(); ++i) {
        TensorPtr pooled =
            nn::TransformerEncoder::pooled(enc.forward(seqs[i]));
        TensorPtr l = nn::mseLoss(nn::matmul(pooled, head), {targets[i]});
        loss = loss ? nn::add(loss, l) : l;
    }

    auto params = enc.parameters();
    params.push_back(head);
    for (auto& p : params)
        p->zeroGrad();
    loss->backward();

    GraphResult r;
    r.loss = loss->value[0];
    for (auto& p : params)
        r.grads.push_back(p->grad);
    return r;
}

TEST(NnBackend, ForwardBackwardGraphBitIdentity)
{
    GraphResult s = runEncoderGraph(nn::scalarBackend());
    GraphResult v = runEncoderGraph(nn::vectorBackend());
    EXPECT_EQ(0, std::memcmp(&s.loss, &v.loss, sizeof(float)));
    ASSERT_EQ(s.grads.size(), v.grads.size());
    for (size_t i = 0; i < s.grads.size(); ++i)
        EXPECT_TRUE(bitEqual(s.grads[i], v.grads[i]))
            << "parameter gradient " << i;
}

/** Tiny seeded MLP regression task for trainMinibatch. */
struct TrainOutcome
{
    std::vector<double> epochLoss;
    std::vector<std::vector<float>> params;
};

TrainOutcome
runTraining(const nn::Backend& be)
{
    BackendGuard guard;
    nn::setBackend(be);

    util::Rng rng(4242);
    nn::Mlp mlp({6, 12, 1}, rng);
    const size_t kSamples = 24;
    std::vector<std::vector<float>> xs;
    std::vector<float> ys;
    for (size_t i = 0; i < kSamples; ++i) {
        auto x = randVec(6, rng);
        float y = 0.f;
        for (float v : x)
            y += v * v;
        xs.push_back(std::move(x));
        ys.push_back(y);
    }

    harness::TrainReplica rep;
    rep.params = mlp.parameters();
    rep.sampleLoss = [&](size_t idx) {
        auto in = Tensor::fromData(1, 6, xs[idx]);
        return nn::mseLoss(mlp.forward(in), {ys[idx]});
    };

    harness::TrainerConfig tcfg;
    tcfg.epochs = 3;
    tcfg.batchSize = 8;
    tcfg.seed = 11;
    harness::TrainStats stats =
        harness::trainMinibatch(mlp.parameters(), {rep}, kSamples, tcfg);

    TrainOutcome out;
    out.epochLoss = stats.epochLoss;
    for (const auto& p : mlp.parameters())
        out.params.push_back(p->value);
    return out;
}

TEST(NnBackend, TrainingTrajectoryBitIdentity)
{
    TrainOutcome s = runTraining(nn::scalarBackend());
    TrainOutcome v = runTraining(nn::vectorBackend());
    ASSERT_EQ(s.epochLoss.size(), v.epochLoss.size());
    for (size_t e = 0; e < s.epochLoss.size(); ++e)
        EXPECT_EQ(0, std::memcmp(&s.epochLoss[e], &v.epochLoss[e],
                                 sizeof(double)))
            << "epoch " << e;
    ASSERT_EQ(s.params.size(), v.params.size());
    for (size_t i = 0; i < s.params.size(); ++i)
        EXPECT_TRUE(bitEqual(s.params[i], v.params[i]))
            << "trained parameter " << i;
}

TEST(NnBackend, ModelCacheKeysExcludeBackend)
{
    // Parameters stored while one backend is active must hit — and load
    // bitwise — under the other: backend choice is not a cache-key
    // component, because backends are bit-identical by contract.
    BackendGuard guard;
    std::string dir =
        util::format("/tmp/llm_backend_cache_%ld", long(::getpid()));
    ::setenv("LLMULATOR_CACHE_DIR", dir.c_str(), 1);

    util::Rng rng(99);
    auto stored = Tensor::fromData(4, 5, randVec(20, rng), true);
    nn::setBackend(nn::scalarBackend());
    eval::storeCached("backend_contract_key", {stored});

    nn::setBackend(nn::vectorBackend());
    auto loaded = Tensor::zeros(4, 5, true);
    EXPECT_TRUE(eval::loadCached("backend_contract_key", {loaded}));
    EXPECT_TRUE(bitEqual(stored->value, loaded->value));

    std::remove(eval::cachePath("backend_contract_key").c_str());
    ::rmdir(dir.c_str());
    ::unsetenv("LLMULATOR_CACHE_DIR");
}

TEST(NnBackend, ZeroSkipFiniteInputContract)
{
    // a = [0, -0, 1]: the zero entries are skipped by predicate
    // `a == 0.0f` in BOTH backends, so a non-finite B row sitting under
    // a zero multiplier is suppressed rather than poisoning C with
    // 0*inf = NaN. This is exactly the documented divergence from
    // unskipped IEEE arithmetic — and why the kernel contract requires
    // finite inputs.
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> a = {0.f, -0.f, 1.f};              // [1,3]
    std::vector<float> b = {inf, -inf,                    // row 0 (skipped)
                            std::nanf(""), 7.f,           // row 1 (skipped)
                            2.f, 3.f};                    // row 2
    std::vector<float> c1 = {1.f, 1.f}, c2 = c1;
    nn::scalarBackend().gemmAccum(a.data(), b.data(), c1.data(), 1, 3, 2);
    nn::vectorBackend().gemmAccum(a.data(), b.data(), c2.data(), 1, 3, 2);
    EXPECT_TRUE(bitEqual(c1, c2));
    EXPECT_FLOAT_EQ(c1[0], 3.f); // 1 + 1*2: skipped rows contribute nothing
    EXPECT_FLOAT_EQ(c1[1], 4.f); // 1 + 1*3
    // The unskipped IEEE result would be NaN in both columns — the
    // skip is semantics, not an optimization, hence the contract.
    float naive0 = 1.f + 0.f * inf;
    EXPECT_TRUE(std::isnan(naive0));

    // Same contract on the A^T*dC kernel, whose skip is on A as well.
    // Column p=0 of A is [0, -0]: both i contributions are skipped, so
    // out row 0 stays exactly zero even though dc holds an inf that an
    // unskipped 0*inf would have turned into NaN.
    std::vector<float> at = {0.f, 1.f, -0.f, 0.5f}; // [2,2]
    std::vector<float> dc = {inf, 1.f, 2.f, 4.f};   // [2,2]
    std::vector<float> o1 = {0.f, 0.f, 0.f, 0.f}, o2 = o1;
    nn::scalarBackend().gemmAccumAt(at.data(), dc.data(), o1.data(), 2, 2, 2);
    nn::vectorBackend().gemmAccumAt(at.data(), dc.data(), o2.data(), 2, 2, 2);
    EXPECT_TRUE(bitEqual(o1, o2));
    EXPECT_FLOAT_EQ(o1[0], 0.f);
    EXPECT_FLOAT_EQ(o1[1], 0.f);
    EXPECT_TRUE(std::isinf(o1[2])); // genuine inf * nonzero passes through
    EXPECT_FLOAT_EQ(o1[3], 3.f);    // 1*1 + 0.5*4
}

TEST(NnBackend, ZeroSkipHoldsInNarrowTiles)
{
    // The 12-, 8- and 4-wide tiles must keep the zero-skip too: an inf
    // in a B (or dC) row under a zero multiplier contributes nothing,
    // exactly as in the scalar kernel, instead of 0 * inf = NaN.
    const float inf = std::numeric_limits<float>::infinity();
    util::Rng rng(505);
    for (int w : {4, 8, 12}) {
        const int m = 4, k = 3;
        // gemmAccum: A[:,1] is zero (one -0), B row 1 is all inf.
        std::vector<float> a = randVec(size_t(m) * k, rng);
        for (int i = 0; i < m; ++i)
            a[size_t(i) * k + 1] = (i == 2) ? -0.f : 0.f;
        std::vector<float> b = randVec(size_t(k) * w, rng);
        for (int j = 0; j < w; ++j)
            b[size_t(w) + j] = (j % 2) ? inf : -inf;
        std::vector<float> c1(size_t(m) * w, 0.5f), c2 = c1;
        nn::scalarBackend().gemmAccum(a.data(), b.data(), c1.data(), m, k,
                                      w);
        nn::vectorBackend().gemmAccum(a.data(), b.data(), c2.data(), m, k,
                                      w);
        EXPECT_TRUE(bitEqual(c1, c2)) << "gemmAccum width " << w;
        for (float v : c2)
            EXPECT_TRUE(std::isfinite(v)) << "gemmAccum width " << w;

        // gemmAccumAt: out row p of width w; A[:,0] is zero, so the inf
        // in dC row 1 is skipped for out row 0 and only there.
        const int kk = 4; // one full 4-row block of out
        std::vector<float> at = randVec(size_t(m) * kk, rng);
        for (int i = 0; i < m; ++i)
            at[size_t(i) * kk] = 0.f;
        std::vector<float> dc = randVec(size_t(m) * w, rng);
        dc[size_t(w) + size_t(w) - 1] = inf;
        std::vector<float> o1(size_t(kk) * w, 0.f), o2 = o1;
        nn::scalarBackend().gemmAccumAt(at.data(), dc.data(), o1.data(), m,
                                        kk, w);
        nn::vectorBackend().gemmAccumAt(at.data(), dc.data(), o2.data(), m,
                                        kk, w);
        EXPECT_TRUE(bitEqual(o1, o2)) << "gemmAccumAt width " << w;
        for (int j = 0; j < w; ++j)
            EXPECT_TRUE(std::isfinite(o2[size_t(j)]))
                << "gemmAccumAt width " << w << " column " << j;
    }
}

TEST(NnBackend, SelectionByName)
{
    BackendGuard guard;
    EXPECT_TRUE(nn::setBackendByName("scalar"));
    EXPECT_STREQ("scalar", nn::backend().name);
    EXPECT_TRUE(nn::setBackendByName("vector"));
    EXPECT_STREQ("vector", nn::backend().name);
    // auto and "" (unset env) both resolve to the vector backend.
    EXPECT_TRUE(nn::setBackendByName("auto"));
    EXPECT_STREQ("vector", nn::backend().name);
    EXPECT_TRUE(nn::setBackendByName(""));
    EXPECT_STREQ("vector", nn::backend().name);
    // Unknown names are rejected and leave the active backend alone.
    nn::setBackendByName("scalar");
    EXPECT_FALSE(nn::setBackendByName("blas"));
    EXPECT_STREQ("scalar", nn::backend().name);
}

} // namespace
