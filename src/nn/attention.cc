#include "nn/attention.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "nn/backend.h"
#include "nn/ops.h"
#include "util/common.h"

namespace llmulator {
namespace nn {

namespace {

/** The scores' scale, 1/sqrt(hd), computed as the composite did. */
float
invSqrt(int hd)
{
    return 1.0f / std::sqrt(static_cast<float>(hd));
}

/**
 * One attention() call's panels (layout in attention.h) and, when the
 * call records a tape node, every head's probabilities [heads][n][n];
 * otherwise `p` is null. `p` starts uninitialized: attentionRows writes
 * every cell of it.
 */
struct Saved
{
    Saved(int n_, int d_, int heads_, bool keepProbs)
        : n(n_), d(d_), heads(heads_), hd(d_ / heads_), q(size_t(n_) * d_),
          kt(q.size()), v(q.size()),
          p(keepProbs ? new float[size_t(heads_) * n_ * n_] : nullptr)
    {
    }

    int n, d, heads, hd;
    std::vector<float> q, kt, v;
    std::unique_ptr<float[]> p;
};

/** One row of softmaxScaleBackward, given the row's dot. */
inline void
rowGrad(const float* p, float* g, float dot, int n, float scale)
{
    for (int j = 0; j < n; ++j)
        g[j] = 0.f + scale * (0.f + (g[j] - dot) * p[j]);
}

/**
 * Rows [0, rb) of one head, in place: g holds dP on entry and the
 * gradient of the unscaled scores on exit. Per element that is the
 * softmax backward into a fresh gradient, 0 + (dP - dot) * P, with
 * dot = sum_j dP[j] * P[j] an ascending-j chain, then the scale's,
 * 0 + 1/sqrt(hd) * dS. (The mask add between them hands dS on as
 * 0 + dS, which equals dS: it already starts from +0, so it is never
 * -0.) Four rows' dot chains advance in one loop, each still strictly
 * ascending, as in the softmax forward's sums.
 */
void
softmaxScaleBackward(const float* p, float* g, int rb, int n, float scale)
{
    int i = 0;
    for (; i + 4 <= rb; i += 4) {
        const float* p0 = p + size_t(i) * n;
        const float* p1 = p0 + n;
        const float* p2 = p1 + n;
        const float* p3 = p2 + n;
        float* g0 = g + size_t(i) * n;
        float* g1 = g0 + n;
        float* g2 = g1 + n;
        float* g3 = g2 + n;
        float d0 = 0.f, d1 = 0.f, d2 = 0.f, d3 = 0.f;
        for (int j = 0; j < n; ++j) {
            d0 += g0[j] * p0[j];
            d1 += g1[j] * p1[j];
            d2 += g2[j] * p2[j];
            d3 += g3[j] * p3[j];
        }
        rowGrad(p0, g0, d0, n, scale);
        rowGrad(p1, g1, d1, n, scale);
        rowGrad(p2, g2, d2, n, scale);
        rowGrad(p3, g3, d3, n, scale);
    }
    for (; i < rb; ++i) {
        const float* pr = p + size_t(i) * n;
        float* gr = g + size_t(i) * n;
        float dot = 0.f;
        for (int j = 0; j < n; ++j)
            dot += gr[j] * pr[j];
        rowGrad(pr, gr, dot, n, scale);
    }
}

/**
 * attention()'s backward: per head, the composite's gradients in its
 * order. dP = dO V^T and dV += P^T dO (P.V's matmul), dS from
 * softmaxScaleBackward, then dQ = dS K and dK^T += Q^T dS (scores'
 * matmul). Every buffer starts from zero, as the tape's fresh
 * gradients did, and the head's slices then add into the inputs'
 * gradients, as sliceCols' backward did. Each GEMM covers all n rows
 * in one call: the vector gemmAccumBt transposes its B operand once
 * per call, so 16-row calls would pay that transpose n/16 times.
 *
 * dV runs as its transpose, dV^T = dO^T P into an [hd, n] buffer, so
 * the product is n wide instead of hd and its tested multiplier is dO,
 * not P with its masked zeros. Per element both are the same ascending-i
 * chain from +0 with the same products (x * y == y * x); they differ
 * only in which zero factor's term is skipped. That changes no bit on
 * finite inputs: in round-to-nearest a sum is -0 only when both addends
 * are -0, so a chain that starts at +0 never holds -0, and adding a
 * zero factor's +-0 term to it leaves it as it was, which is what
 * skipping the term does.
 */
void
attentionBackward(const Tensor& out, Tensor& q, Tensor& k, Tensor& v,
                  const Saved& s)
{
    const Backend& be = backend();
    const int n = s.n, d = s.d, hd = s.hd;
    const float scale = invSqrt(hd);
    for (Tensor* t : {&q, &k, &v})
        if (t->requiresGrad)
            t->ensureGrad();
    std::vector<float> dO(size_t(n) * hd), dQ(dO.size()), dVt(dO.size());
    std::vector<float> dKt(dO.size()), dS(size_t(n) * n);
    for (int h = 0; h < s.heads; ++h) {
        const float* qh = s.q.data() + size_t(h) * n * hd;
        const float* kt = s.kt.data() + size_t(h) * hd * n;
        const float* vh = s.v.data() + size_t(h) * n * hd;
        const float* ph = s.p.get() + size_t(h) * n * n;
        // Head h's output gradient, as concatCols' backward handed it
        // over: 0 + the columns of the op's gradient.
        for (int i = 0; i < n; ++i) {
            const float* g = out.grad.data() + size_t(i) * d + h * hd;
            for (int c = 0; c < hd; ++c)
                dO[size_t(i) * hd + c] = 0.f + g[c];
        }
        if (v.requiresGrad) {
            std::fill(dVt.begin(), dVt.end(), 0.f);
            gemmAccumAt(be, dO.data(), ph, dVt.data(), n, hd, n);
        }
        if (q.requiresGrad || k.requiresGrad) {
            std::fill(dS.begin(), dS.end(), 0.f);
            gemmAccumBt(be, dO.data(), vh, dS.data(), n, n, hd);
            softmaxScaleBackward(ph, dS.data(), n, n, scale);
        }
        if (q.requiresGrad) {
            std::fill(dQ.begin(), dQ.end(), 0.f);
            gemmAccumBt(be, dS.data(), kt, dQ.data(), n, hd, n);
        }
        if (k.requiresGrad) {
            std::fill(dKt.begin(), dKt.end(), 0.f);
            gemmAccumAt(be, qh, dS.data(), dKt.data(), n, hd, n);
        }
        for (int i = 0; i < n; ++i)
            for (int c = 0; c < hd; ++c) {
                const size_t e = size_t(i) * d + h * hd + c;
                if (q.requiresGrad)
                    q.grad[e] += dQ[size_t(i) * hd + c];
                if (k.requiresGrad)
                    k.grad[e] += dKt[size_t(c) * n + i];
                if (v.requiresGrad)
                    v.grad[e] += dVt[size_t(c) * n + i];
            }
    }
}

} // namespace

TensorPtr
attention(const TensorPtr& q, const TensorPtr& k, const TensorPtr& v,
          const TensorPtr& mask, int heads)
{
    const int n = q->rows, d = q->cols;
    LLM_CHECK(heads > 0 && d % heads == 0,
              "attention width " << d << " not divisible by " << heads
                                 << " heads");
    LLM_CHECK(k->rows == n && k->cols == d && v->rows == n && v->cols == d,
              "attention k/v shapes differ from q's " << n << "x" << d);
    LLM_CHECK(!mask || (mask->rows == n && mask->cols == n),
              "attention mask " << mask->rows << "x" << mask->cols
                                << " != " << n << "x" << n);
    LLM_CHECK(!mask || !mask->requiresGrad,
              "attention mask takes no gradient");
    const bool grad = q->requiresGrad || k->requiresGrad || v->requiresGrad;
    auto s = std::make_shared<Saved>(n, d, heads, grad);
    const int hd = s->hd;
    for (int i = 0; i < n; ++i) {
        for (int h = 0; h < heads; ++h) {
            const size_t src = size_t(i) * d + h * hd;
            const size_t dst = (size_t(h) * n + i) * hd;
            std::copy_n(q->value.data() + src, hd, s->q.data() + dst);
            std::copy_n(v->value.data() + src, hd, s->v.data() + dst);
        }
        for (int c = 0; c < d; ++c)
            s->kt[size_t(c) * n + i] = k->value[size_t(i) * d + c];
    }

    const Backend& be = backend();
    auto out = Tensor::zeros(n, d);
    const int lanes = kAttentionRowBlock;
    std::vector<float> scratch(2 * size_t(lanes) * n);
    std::vector<float> cols(mask ? size_t(lanes) * n : 0);
    std::vector<float> head(size_t(lanes) * hd);
    for (int r0 = 0; r0 < n; r0 += lanes) {
        const int rb = std::min(lanes, n - r0);
        // The block's mask rows as columns, once for every head.
        if (mask)
            for (int r = 0; r < rb; ++r) {
                const float* row = mask->value.data() + size_t(r0 + r) * n;
                for (int j = 0; j < n; ++j)
                    cols[size_t(j) * lanes + r] = row[j];
            }
        for (int h = 0; h < heads; ++h) {
            attentionRows(be, s->q.data() + (size_t(h) * n + r0) * hd,
                          s->kt.data() + size_t(h) * hd * n,
                          s->v.data() + size_t(h) * n * hd,
                          mask ? cols.data() : nullptr, rb, n, hd,
                          scratch.data(),
                          grad ? s->p.get() + (size_t(h) * n + r0) * n
                               : nullptr,
                          head.data());
            for (int r = 0; r < rb; ++r)
                std::copy_n(head.data() + size_t(r) * hd, hd,
                            out->value.data() + size_t(r0 + r) * d + h * hd);
        }
    }
    if (grad) {
        out->requiresGrad = true;
        // Parents q, k, v in this order: the tape then runs the
        // backward of v's producer first, then k's, then q's, as it did
        // behind the composite, so their gradients reach the shared
        // input in the same order.
        out->parents = {q, k, v};
        Tensor* self = out.get();
        out->backwardFn = [self, q, k, v, s]() {
            attentionBackward(*self, *q, *k, *v, *s);
        };
    }
    return out;
}

} // namespace nn
} // namespace llmulator
