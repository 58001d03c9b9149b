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
 *  5. The owned transcendentals (src/nn/transcendentals.h): softmax's
 *     exp and GELU's tanh are fixed sequences copied from glibc, so
 *     their results are pinned as bits on edge inputs — through the raw
 *     sequences, their 8-lane forms and both backends' kernels — and
 *     scalar == vector over a strided sweep of all float bit patterns.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "eval/model_cache.h"
#include "harness/trainer.h"
#include "nn/backend.h"
#include "nn/kernels.h"
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

bool
anyNaN(const std::vector<float>& v)
{
    for (float x : v)
        if (std::isnan(x))
            return true;
    return false;
}

/**
 * Operands whose only zero (+0, then -0) is the multiplier's first
 * element, then its last. For gemmAccum and gemmAccumAt the partner row
 * that zero multiplies holds +-inf: the zero must be skipped, so a zero
 * scan that misses one element (and runs the untested tile) turns
 * 0 * inf into NaN. gemmAccumBt tests no zero — its reference takes
 * every term, so 0 * inf is NaN on both sides — and gets the lone zero
 * against finite partners.
 */
void
runLoneZeroCompare(const GemmShape& s, util::Rng& rng)
{
    const nn::Backend& sc = nn::scalarBackend();
    const nn::Backend& ve = nn::vectorBackend();
    const float inf = std::numeric_limits<float>::infinity();
    const size_t mk = size_t(s.m) * s.k, kn = size_t(s.k) * s.n;
    const size_t mn = size_t(s.m) * s.n;
    for (float zero : {0.f, -0.f}) {
        for (bool last : {false, true}) {
            // The zero sits at A[i,p]: gemmAccum multiplies it into B's
            // row p, gemmAccumAt into dC's row i.
            const int i = last ? s.m - 1 : 0, p = last ? s.k - 1 : 0;
            auto a = randVec(mk, rng);
            a[size_t(i) * s.k + p] = zero;
            auto b = randVec(kn, rng);
            auto dc = randVec(mn, rng);
            for (int j = 0; j < s.n; ++j) {
                b[size_t(p) * s.n + j] = j % 2 ? -inf : inf;
                dc[size_t(i) * s.n + j] = j % 2 ? inf : -inf;
            }
            const std::string where =
                util::format(" %dx%dx%d, %s zero %s", s.m, s.k, s.n,
                             std::signbit(zero) ? "-" : "+",
                             last ? "last" : "first");

            std::vector<float> c1(mn, 0.5f), c2 = c1;
            sc.gemmAccum(a.data(), b.data(), c1.data(), s.m, s.k, s.n);
            ve.gemmAccum(a.data(), b.data(), c2.data(), s.m, s.k, s.n);
            EXPECT_TRUE(bitEqual(c1, c2)) << "gemmAccum" << where;
            EXPECT_FALSE(anyNaN(c2)) << "gemmAccum" << where;

            std::vector<float> db1(kn, -0.5f), db2 = db1;
            sc.gemmAccumAt(a.data(), dc.data(), db1.data(), s.m, s.k, s.n);
            ve.gemmAccumAt(a.data(), dc.data(), db2.data(), s.m, s.k, s.n);
            EXPECT_TRUE(bitEqual(db1, db2)) << "gemmAccumAt" << where;
            EXPECT_FALSE(anyNaN(db2)) << "gemmAccumAt" << where;

            auto x = randVec(mn, rng);
            x[last ? mn - 1 : 0] = zero;
            const auto y = randVec(kn, rng);
            std::vector<float> da1(mk, 0.25f), da2 = da1;
            sc.gemmAccumBt(x.data(), y.data(), da1.data(), s.m, s.k, s.n);
            ve.gemmAccumBt(x.data(), y.data(), da2.data(), s.m, s.k, s.n);
            EXPECT_TRUE(bitEqual(da1, da2)) << "gemmAccumBt" << where;
        }
    }
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
        runLoneZeroCompare(s, rng);
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
    // (m = 4) and one with a leftover row (m = 5), on dense, zero-heavy
    // and lone-zero operands.
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
                runLoneZeroCompare(s, rng);
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

        // Attention-shaped rows: every third cell masked by -1e9 (exp
        // underflows to 0), and a range wide enough that x - max reaches
        // exp's underflow band below -103.
        auto masked = x;
        for (size_t e = 0; e < sz; e += 3)
            masked[e] += -1e9f;
        sc.softmaxRows(masked.data(), o1.data(), m, n);
        ve.softmaxRows(masked.data(), o2.data(), m, n);
        EXPECT_TRUE(bitEqual(o1, o2)) << "masked softmax " << m << "x" << n;
        auto wide = randVec(sz, rng, 40.0);
        sc.softmaxRows(wide.data(), o1.data(), m, n);
        ve.softmaxRows(wide.data(), o2.data(), m, n);
        EXPECT_TRUE(bitEqual(o1, o2)) << "wide softmax " << m << "x" << n;

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

        // GELU over N(0, 2) and over [-30, 30]: the wide inputs reach
        // tanh's k > 1 reductions and its |u| >= 22 saturation.
        auto geluWide = x;
        for (auto& v : geluWide)
            v = static_cast<float>(rng.uniform(-30.0, 30.0));
        for (const auto* in : {&x, &geluWide}) {
            std::vector<float> t1(sz), t2(sz), o3(sz);
            sc.geluForward(in->data(), o1.data(), t1.data(), sz);
            ve.geluForward(in->data(), o2.data(), t2.data(), sz);
            EXPECT_TRUE(bitEqual(o1, o2)) << "gelu " << sz;
            EXPECT_TRUE(bitEqual(t1, t2)) << "gelu tanh " << sz;
            for (size_t i = 0; i < sz; ++i) // the tanh y was built from
                ASSERT_EQ(o1[i], 0.5f * (*in)[i] * (1.f + t1[i]))
                    << "gelu " << i;
            ve.geluForward(in->data(), o3.data(), nullptr, sz); // t optional
            EXPECT_TRUE(bitEqual(o1, o3)) << "gelu without tanh " << sz;
        }

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

TEST(NnBackend, SoftmaxRowGroupsBitIdentity)
{
    // The vector kernel sums four rows' chains in one loop and runs the
    // rows left over one at a time: m = 1..9 covers zero, one and two
    // groups with every leftover count, at widths across the 8-lane exp
    // groups and their tails.
    util::Rng rng(606);
    for (int m = 1; m <= 9; ++m) {
        for (int n : {1, 5, 8, 13, 37, 64}) {
            const size_t sz = size_t(m) * n;
            auto x = randVec(sz, rng, 3.0);
            std::vector<float> o1(sz), o2(sz);
            nn::scalarBackend().softmaxRows(x.data(), o1.data(), m, n);
            nn::vectorBackend().softmaxRows(x.data(), o2.data(), m, n);
            EXPECT_TRUE(bitEqual(o1, o2)) << "softmaxRows " << m << "x" << n;
        }
    }
}

TEST(NnBackend, SoftmaxMaxScanBitIdentity)
{
    // The vector kernel scans a row's max with four 8-lane accumulators
    // over 32-element steps, then 8-element steps, then a scalar tail
    // (rows under 32 take the scalar loop): not the scalar kernel's
    // order. That is exact on finite inputs. Max is order-free but for
    // the sign of a zero max, and x - (+0) and x - (-0) feed exp the
    // same value up to the sign of a zero. Widths 1..80 and 271 cross
    // every split of steps and tail, and each row set plants its max at
    // every position in turn, so some rows hold it only in the tail.
    // The cells below it include -1e9 masked cells and -inf. The zero
    // rows plant +0 among -0 cells, and -0 among +0 cells: the one case
    // where the order shows.
    util::Rng rng(707);
    std::vector<int> widths;
    for (int n = 1; n <= 80; ++n)
        widths.push_back(n);
    widths.push_back(271);
    enum Rows { Planted, PlusZeroMax, MinusZeroMax };
    for (int m : {1, 4, 5}) {
        for (int n : widths) {
            const size_t sz = size_t(m) * n;
            std::vector<float> x(sz), o1(sz), o2(sz);
            for (int at = 0; at < n; ++at) {
                for (Rows rows : {Planted, PlusZeroMax, MinusZeroMax}) {
                    for (int r = 0; r < m; ++r) {
                        float* row = x.data() + size_t(r) * n;
                        for (int j = 0; j < n; ++j) {
                            float v = static_cast<float>(
                                rng.uniform(-6.0, rows == Planted ? 2.0
                                                                  : -0.1));
                            if ((j + r) % 5 == 2)
                                v += -1e9f;
                            else if (j % 11 == 4)
                                v = -std::numeric_limits<float>::infinity();
                            else if (rows != Planted && j % 3 == 1)
                                v = rows == PlusZeroMax ? -0.f : 0.f;
                            row[j] = v;
                        }
                        row[at] = rows == Planted       ? 3.f + float(r)
                                  : rows == PlusZeroMax ? 0.f
                                                        : -0.f;
                    }
                    nn::scalarBackend().softmaxRows(x.data(), o1.data(), m,
                                                    n);
                    nn::vectorBackend().softmaxRows(x.data(), o2.data(), m,
                                                    n);
                    ASSERT_TRUE(bitEqual(o1, o2))
                        << "softmaxRows " << m << "x" << n << ", rows "
                        << rows << ", max at " << at;
                }
            }
        }
    }
}

/** One attentionRows block's results: out, and P when asked for. */
struct AttentionResult
{
    std::vector<float> out, probs;
};

/**
 * Run one attentionRows block on `be`. The scratch and the outputs
 * start as NaN, so a cell the kernel reads before writing, or forgets
 * to write, shows.
 */
AttentionResult
runAttentionRows(const nn::Backend& be, const std::vector<float>& q,
                 const std::vector<float>& kt, const std::vector<float>& v,
                 const float* mask, int rb, int n, int hd, bool keepProbs)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> scratch(2 * size_t(nn::kAttentionRowBlock) * n, nan);
    AttentionResult r;
    r.out.assign(size_t(rb) * hd, nan);
    r.probs.assign(keepProbs ? size_t(rb) * n : 0, nan);
    be.attentionRows(q.data(), kt.data(), v.data(), mask, rb, n, hd,
                     scratch.data(), keepProbs ? r.probs.data() : nullptr,
                     r.out.data());
    return r;
}

TEST(NnBackend, AttentionRowsBitIdentity)
{
    // The vector entry fuses widths 12 and 16 (the query rows are its
    // lanes) and runs the composite on the vector kernels at any other
    // width (8 here). rb = 1..16 covers every lane count and n = 1..40
    // every tail of the score sweep's 4-column steps, the exp halves and
    // the 8x8 P transposes; 206, 271, 280 and 320 are encoder lengths.
    // q and v hold exact +-0 cells, which the composite's GEMMs skip and
    // the fused pass adds, and the block's last row is all +-0 queries,
    // so its scores, and its max, are +0. The separation mask blocks
    // the Class I rows from the data columns and the data rows from the
    // Class I columns, with rows and columns of each kind and of both;
    // row 5 is masked in full. The open cells take turns at +0, -0 and
    // a value in (-2, 2): the one kind of cell where adding the mask
    // before the scale would show. Mask lanes past rb hold a value the
    // kernel must ignore.
    const int L = nn::kAttentionRowBlock;
    std::vector<int> lengths;
    for (int n = 1; n <= 40; ++n)
        lengths.push_back(n);
    for (int n : {206, 271, 280, 320})
        lengths.push_back(n);
    util::Rng rng(808);
    for (int hd : {12, 16, 8}) {
        for (int n : lengths) {
            for (int rb = 1; rb <= L; ++rb) {
                auto q = randVec(size_t(rb) * hd, rng);
                auto kt = randVec(size_t(hd) * n, rng);
                auto v = randVec(size_t(n) * hd, rng);
                for (int r = 0; r < rb; ++r)
                    for (int c = 0; c < hd; ++c)
                        if ((r + c) % 5 == 0 || r == rb - 1)
                            q[size_t(r) * hd + c] = (r + c) % 2 ? -0.f : 0.f;
                for (int j = 0; j < n; ++j)
                    for (int c = 0; c < hd; ++c)
                        if ((j + c) % 7 == 0)
                            v[size_t(j) * hd + c] = j % 2 ? -0.f : 0.f;
                std::vector<float> mask(size_t(L) * n, 7.f);
                auto classI = [](int k) { return k % 4 == 1 || k % 4 == 3; };
                auto data = [](int k) { return k % 4 >= 2; };
                for (int j = 0; j < n; ++j)
                    for (int r = 0; r < rb; ++r) {
                        const int cj = j / 3;
                        const bool blocked = r == 5 ||
                                             (classI(r) && data(cj)) ||
                                             (data(r) && classI(cj));
                        const int open = (r + j) % 3;
                        mask[size_t(j) * L + r] =
                            blocked     ? -1e9f
                            : open == 0 ? 0.f
                            : open == 1 ? -0.f
                                        : static_cast<float>(
                                              rng.uniform(-2.0, 2.0));
                    }
                for (const float* m : {static_cast<const float*>(nullptr),
                                       static_cast<const float*>(mask.data())})
                    for (bool keep : {false, true}) {
                        const auto a = runAttentionRows(
                            nn::scalarBackend(), q, kt, v, m, rb, n, hd, keep);
                        const auto b = runAttentionRows(
                            nn::vectorBackend(), q, kt, v, m, rb, n, hd, keep);
                        ASSERT_TRUE(bitEqual(a.out, b.out))
                            << "out, hd " << hd << ", n " << n << ", rb " << rb
                            << (m ? ", masked" : "") << (keep ? ", with P" : "");
                        ASSERT_TRUE(bitEqual(a.probs, b.probs))
                            << "P, hd " << hd << ", n " << n << ", rb " << rb
                            << (m ? ", masked" : "");
                    }
            }
        }
    }
}

std::uint32_t
bitsOf(float x)
{
    std::uint32_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
}

float
floatOf(std::uint32_t u)
{
    float x;
    std::memcpy(&x, &u, sizeof(x));
    return x;
}

/** A float input (as bits) and the bits glibc 2.36's libm returns. */
struct EdgeCase
{
    std::uint32_t in, want;
};

/**
 * exp: the two inputs where mul+add instead of fma changes the result,
 * the underflow/overflow thresholds and their outer neighbours, +-0,
 * +-inf, the smallest subnormals, a -1e9 masked attention cell, a
 * subnormal result and a tiny negative. Expected bits are std::exp's on
 * x86-64 glibc 2.36.
 */
const EdgeCase kExpEdges[] = {
    {0xc27c65d9u, 0x11fa2993u}, // -0x1.f8cbb2p+5 (fma-sensitive)
    {0x4202422fu, 0x56fc9f1cu}, // 0x1.04845ep+5 (fma-sensitive)
    {0xc2cff1b4u, 0x00000001u}, // -0x1.9fe368p+6: underflow threshold
    {0xc2cff1b5u, 0x00000000u}, // -0x1.9fe36ap+6: below it, +0
    {0xc2ce8ecfu, 0x00000001u}, // -0x1.9d1d9ep+6: 0x1p-149 threshold
    {0xc2ce8ed0u, 0x00000001u}, // -0x1.9d1dap+6
    {0x42b17217u, 0x7f7fff84u}, // 0x1.62e42ep+6: overflow threshold
    {0x42b17218u, 0x7f800000u}, // 0x1.62e43p+6: +inf
    {0x00000000u, 0x3f800000u}, // +0
    {0x80000000u, 0x3f800000u}, // -0
    {0xff800000u, 0x00000000u}, // -inf
    {0x7f800000u, 0x7f800000u}, // +inf
    {0x00000001u, 0x3f800000u}, // 0x1p-149
    {0x80000001u, 0x3f800000u}, // -0x1p-149
    {0xce6e6b28u, 0x00000000u}, // -1e9f - 2.5f: a masked cell minus max
    {0xc2b00000u, 0x0041edc4u}, // -88: a subnormal result
    {0xb0800000u, 0x3f800000u}, // -0x1p-30
};

/**
 * tanh: both sides of every band edge — tanhf's 2^-55, 1 and 22, and
 * expm1f's 2^-25, 0.5*ln2 and 1.5*ln2 (at argument/2), its 27*ln2
 * filter, and the inputs where its k reaches 23 and passes 56 — plus
 * +-inf, +-0 and a nan. Expected bits are std::tanh's on x86-64 glibc
 * 2.36.
 */
const EdgeCase kTanhEdges[] = {
    {0x24000000u, 0x24000000u}, // 0x1p-55
    {0x23ffffffu, 0x23ffffffu}, // 0x1.fffffep-56
    {0xa4000000u, 0xa4000000u}, // -0x1p-55
    {0xa3ffffffu, 0xa3ffffffu}, // -0x1.fffffep-56
    {0x32800000u, 0x32800000u}, // 0x1p-26: expm1 argument 2^-25
    {0x327fffffu, 0x327fffffu}, // 0x1.fffffep-27
    {0x3e317218u, 0x3e2fb0cdu}, // expm1 argument 0.5*ln2
    {0x3e317219u, 0x3e2fb0cdu}, // one ulp above
    {0xbe317219u, 0xbe2fb0cdu},
    {0x3f051591u, 0x3ef486f8u}, // one ulp below expm1 argument 1.5*ln2
    {0x3f051592u, 0x3ef486f8u}, // expm1 argument 1.5*ln2
    {0x3f400000u, 0x3f22991fu}, // 0.75: expm1's k <= -2
    {0x3f800000u, 0x3f42f7d6u}, // 1.0
    {0x3f7fffffu, 0x3f42f7d5u}, // 0x1.fffffep-1
    {0xbf800000u, 0xbf42f7d6u}, // -1.0
    {0x4115b843u, 0x3f800000u}, // one ulp below 27*ln2/2
    {0x4115b844u, 0x3f800000u}, // 27*ln2/2
    {0x40f98871u, 0x3f7ffffau}, // expm1's k = 22
    {0x40f98872u, 0x3f7ffffau}, // k = 23
    {0xc0f98872u, 0xbf7ffffau},
    {0x419ca6b8u, 0x3f800000u}, // k = 56
    {0x419ca6b9u, 0x3f800000u}, // k = 57
    {0x41afffffu, 0x3f800000u}, // one ulp below 22
    {0x41b00000u, 0x3f800000u}, // 22
    {0xc1b00000u, 0xbf800000u}, // -22
    {0x7f800000u, 0x3f800000u}, // +inf
    {0xff800000u, 0xbf800000u}, // -inf
    {0x00000000u, 0x00000000u}, // +0
    {0x80000000u, 0x80000000u}, // -0
    {0x7fc00000u, 0x7fc00000u}, // nan
};

/**
 * Check one sequence on a table: the per-element form, and the 8-lane
 * form with the input in each lane among neighbours from another band.
 */
template <size_t N>
void
checkEdgeTable(const EdgeCase (&table)[N], float (*seq)(float),
               void (*lanes)(const float*, float*), const char* name)
{
    for (const EdgeCase& c : table) {
        const float x = floatOf(c.in);
        EXPECT_EQ(c.want, bitsOf(seq(x)))
            << name << " scalar, input 0x" << std::hex << c.in;
        for (int l = 0; l < 8; ++l) {
            float in[8], out[8];
            for (int k = 0; k < 8; ++k)
                in[k] = 0.5f * float(k - 4);
            in[l] = x;
            lanes(in, out);
            EXPECT_EQ(c.want, bitsOf(out[l]))
                << name << " lane " << l << ", input 0x" << std::hex << c.in;
        }
    }
}

TEST(NnBackend, ExpSequenceMatchesGlibcOnEdgeInputs)
{
    checkEdgeTable(kExpEdges, nn::kernels::scalar::expSeq,
                   nn::kernels::vec::exp8, "exp");
}

TEST(NnBackend, ExpTableEveryIndexInEveryLane)
{
    // exp looks up 2^(i/32) for i = k & 31, where k is x * 32/ln2
    // rounded. Inputs x = k * ln2/32: lane l of call c takes the index
    // (c + 5*l) % 32 at exponent e, so every lane meets every index,
    // on both sides of 0.
    const double ln2 = std::log(2.0);
    bool seen[8][32] = {};
    for (int sign : {-1, 1}) {
        for (int c = 0; c < 32; ++c) {
            float in[8], out[8];
            for (int l = 0; l < 8; ++l) {
                const long long i = (c + 5 * l) % 32, e = l + c % 4;
                in[l] = static_cast<float>(double(sign * (i + 32 * e)) *
                                           ln2 / 32.0);
                seen[l][std::llround(double(in[l]) * 32.0 / ln2) & 31] =
                    true;
            }
            nn::kernels::vec::exp8(in, out);
            for (int l = 0; l < 8; ++l)
                EXPECT_EQ(bitsOf(nn::kernels::scalar::expSeq(in[l])),
                          bitsOf(out[l]))
                    << "exp lane " << l << ", input " << in[l];
        }
    }
    for (int l = 0; l < 8; ++l)
        for (int i = 0; i < 32; ++i)
            EXPECT_TRUE(seen[l][i]) << "lane " << l << " never met index " << i;

    // The attention kernel's exp, on its 16 lanes (the query rows): with
    // q the identity at hd 16, score (r, j) is kt[r][j] / 4 exactly, and
    // column 0 scores 0, so column j exponentiates x = kt[r][j] / 4. Lane
    // r of column j meets index (j + 5r) % 32 at exponent r % 4 + 1.
    // Softmax feeds exp s - max <= 0, so this side has one sign. P holds
    // each exp times the row's 1/sum, so a wrong entry shows in P.
    const int L = nn::kAttentionRowBlock, hd = 16, n = 33;
    std::vector<float> q(size_t(L) * hd, 0.f), kt(size_t(hd) * n, 0.f);
    std::vector<float> v(size_t(n) * hd, 1.f);
    bool seen16[16][32] = {};
    for (int r = 0; r < L; ++r) {
        q[size_t(r) * hd + r] = 1.f;
        for (int j = 1; j < n; ++j) {
            const long long i = (j - 1 + 5 * r) % 32, e = r % 4 + 1;
            const float x =
                static_cast<float>(-double(i + 32 * e) * ln2 / 32.0);
            kt[size_t(r) * n + j] = 4.f * x;
            seen16[r][std::llround(double(x) * 32.0 / ln2) & 31] = true;
        }
    }
    const auto a = runAttentionRows(nn::scalarBackend(), q, kt, v, nullptr,
                                    L, n, hd, true);
    const auto b = runAttentionRows(nn::vectorBackend(), q, kt, v, nullptr,
                                    L, n, hd, true);
    for (int r = 0; r < L; ++r)
        for (int j = 0; j < n; ++j)
            EXPECT_EQ(bitsOf(a.probs[size_t(r) * n + j]),
                      bitsOf(b.probs[size_t(r) * n + j]))
                << "attention exp lane " << r << ", column " << j;
    for (int r = 0; r < L; ++r)
        for (int i = 0; i < 32; ++i)
            EXPECT_TRUE(seen16[r][i])
                << "attention lane " << r << " never met index " << i;
}

TEST(NnBackend, TanhSequenceMatchesGlibcOnEdgeInputs)
{
    checkEdgeTable(kTanhEdges, nn::kernels::scalar::tanhSeq,
                   nn::kernels::vec::tanh8, "tanh");
}

TEST(NnBackend, TranscendentalEdgesThroughKernels)
{
    // softmaxRows: rows of the exp table's non-positive inputs plus a 0,
    // so the row max is 0 and each cell exponentiates its edge input
    // exactly. The 11-wide rows are one 8-lane group plus a 3-lane tail;
    // each of the 5 rows is the list rotated by another offset, so every
    // edge lands in lanes and in the tail, in a 4-row group and in the
    // leftover row.
    std::vector<EdgeCase> cells = {{0u, 0x3f800000u}};
    for (const EdgeCase& c : kExpEdges)
        if ((c.in >> 31) && c.in != 0x80000000u)
            cells.push_back(c);
    const int n = static_cast<int>(cells.size());
    ASSERT_EQ(11, n);
    const int m = 5;
    std::vector<float> x(size_t(m) * n), want(x.size());
    for (int r = 0; r < m; ++r) {
        const int rot = r * 3;
        float sum = 0.f;
        for (int j = 0; j < n; ++j) {
            const EdgeCase& c = cells[size_t((j + rot) % n)];
            x[size_t(r) * n + j] = floatOf(c.in);
            sum += floatOf(c.want);
        }
        const float inv = 1.f / sum;
        for (int j = 0; j < n; ++j)
            want[size_t(r) * n + j] =
                floatOf(cells[size_t((j + rot) % n)].want) * inv;
    }
    for (const nn::Backend* be :
         {&nn::scalarBackend(), &nn::vectorBackend()}) {
        std::vector<float> y(x.size());
        be->softmaxRows(x.data(), y.data(), m, n);
        EXPECT_TRUE(bitEqual(want, y)) << be->name << " softmaxRows";
    }

    // geluForward: the finite tanh edges as GELU inputs, plus +-1e13,
    // whose cube overflows so tanh's argument is +-inf and must give
    // +-1. 29 elements: three 8-lane groups and a 5-lane tail, at two
    // offsets.
    std::vector<float> g;
    for (const EdgeCase& c : kTanhEdges)
        if (std::isfinite(floatOf(c.in)))
            g.push_back(floatOf(c.in));
    g.push_back(1e13f);
    g.push_back(-1e13f);
    ASSERT_EQ(29u, g.size());
    for (int rot : {0, 5}) {
        std::vector<float> in(g.size());
        for (size_t i = 0; i < g.size(); ++i)
            in[i] = g[(i + size_t(rot)) % g.size()];
        std::vector<float> y1(in.size()), t1(in.size()), y2(in.size()),
            t2(in.size());
        nn::scalarBackend().geluForward(in.data(), y1.data(), t1.data(),
                                        in.size());
        nn::vectorBackend().geluForward(in.data(), y2.data(), t2.data(),
                                        in.size());
        EXPECT_TRUE(bitEqual(y1, y2)) << "gelu, offset " << rot;
        EXPECT_TRUE(bitEqual(t1, t2)) << "gelu tanh, offset " << rot;
        for (size_t i = 0; i < in.size(); ++i) {
            if (std::fabs(in[i]) == 1e13f) {
                EXPECT_EQ(std::copysign(1.f, in[i]), t1[i]);
                EXPECT_EQ(std::copysign(1.f, in[i]), t2[i]);
            }
            EXPECT_EQ(bitsOf(nn::kernels::scalar::tanhSeq(
                          nn::kernels::kGeluC *
                          (in[i] + nn::kernels::kGeluA * in[i] * in[i] *
                                       in[i]))),
                      bitsOf(t1[i]))
                << "gelu tanh argument of " << in[i];
        }
    }
}

TEST(NnBackend, TranscendentalSequencesScalarEqualsVectorStrided)
{
    // ~1M bit patterns spread over all 2^32 (an odd stride, so the low
    // mantissa bits cycle through every residue): scalar == 8-lane,
    // bitwise, nans and infinities included.
    const std::uint64_t stride = 4099;
    size_t expBad = 0, tanhBad = 0, checked = 0;
    float in[8], e8[8], t8[8];
    int lanes = 0;
    for (std::uint64_t u = 0; u < (std::uint64_t(1) << 32); u += stride) {
        in[lanes] = floatOf(static_cast<std::uint32_t>(u));
        if (++lanes < 8)
            continue;
        lanes = 0;
        nn::kernels::vec::exp8(in, e8);
        nn::kernels::vec::tanh8(in, t8);
        for (int l = 0; l < 8; ++l) {
            expBad += bitsOf(e8[l]) != bitsOf(nn::kernels::scalar::expSeq(in[l]));
            tanhBad +=
                bitsOf(t8[l]) != bitsOf(nn::kernels::scalar::tanhSeq(in[l]));
        }
        checked += 8;
    }
    EXPECT_GT(checked, 1000000u);
    EXPECT_EQ(0u, expBad);
    EXPECT_EQ(0u, tanhBad);
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
