/**
 * @file
 * The "scalar" backend: the original naive nn kernels, moved here
 * verbatim from ops.cc when the backend seam was introduced. This is
 * the bit-for-bit reference every other backend must match on finite
 * inputs (backend.h spells out the contracts); treat the float
 * operation sequences below as frozen. That includes softmax's exp and
 * GELU's tanh: they are glibc's expf and fdlibm's tanhf, evaluated per
 * element as fixed sequences (transcendentals.h) rather than as libm
 * calls, so they no longer depend on the host's libm.
 */

#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "nn/transcendentals.h"

namespace llmulator {
namespace nn {
namespace kernels {
namespace scalar {

namespace {

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

/**
 * fdlibm's expm1f on the arguments tanhSeq passes it: x in (-2, -2^-54]
 * or [2, 44). The branches expm1f has for other arguments (non-finite,
 * overflow, x <= -27*ln2, and the k == 1 band of positive x below
 * 1.5*ln2) are unreachable from there and left out. Exponent-field
 * arithmetic runs in uint32_t: fdlibm's `i + (k << 23)` shifts a
 * negative k.
 */
float
expm1ForTanh(float x)
{
    using namespace seq;
    const std::uint32_t hx = bitsOf(x) & 0x7fffffffu;
    if (hx < kExpm1Tiny)
        return x;
    int k = 0;
    float c = 0.f;
    if (hx > kExpm1HalfLn2) {
        float hi, lo;
        if (hx < kExpm1ThreeHalfLn2) { // only x < 0 reaches this band
            hi = x + kLn2Hi;
            lo = -kLn2Lo;
            k = -1;
        } else {
            k = static_cast<int>(kInvLn2 * x + (x < 0.f ? -0.5f : 0.5f));
            const float t = static_cast<float>(k);
            hi = x - t * kLn2Hi; // t*ln2_hi is exact here
            lo = t * kLn2Lo;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    }
    const float hfx = 0.5f * x;
    const float hxs = x * hfx;
    const float r1 =
        1.f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
    const float t = 3.f - r1 * hfx;
    float e = hxs * ((r1 - t) / (6.f - x * t));
    if (k == 0)
        return x - (x * e - hxs);
    e = x * (e - c) - c;
    e -= hxs;
    if (k == -1)
        return 0.5f * (x - e) - 0.5f;
    const std::uint32_t kExp = static_cast<std::uint32_t>(k) << 23;
    if (k <= -2 || k > 56) {
        const float y = 1.f - (e - x);
        return floatOf(bitsOf(y) + kExp) - 1.f;
    }
    if (k < 23) {
        const float t1 = floatOf(0x3f800000u - (0x1000000u >> k)); // 1-2^-k
        return floatOf(bitsOf(t1 - (e - x)) + kExp);
    }
    const float t2 = floatOf(static_cast<std::uint32_t>(0x7f - k) << 23);
    const float y = (x - (e + t2)) + 1.f; // t2 = 2^-k
    return floatOf(bitsOf(y) + kExp);
}

} // namespace

float
expSeq(float x)
{
    using namespace seq;
    const std::uint32_t ix = bitsOf(x);
    const std::uint32_t abstop = (ix >> 20) & 0x7ffu;
    if (abstop >= 0x42bu) { // |x| >= 88, or x is inf or nan
        if (ix == 0xff800000u)
            return 0.f;
        if (abstop >= 0x7f8u)
            return x + x;
        if (x > kExpOverflow)
            return std::numeric_limits<float>::infinity();
        if (x < kExpUnderflow)
            return 0.f;
        if (x < kExpMayUnderflow)
            return 0x1p-149f;
    }
    const double xd = x;
    double kd = std::fma(kExpInvLn2N, xd, kExpShift);
    std::uint64_t ki;
    std::memcpy(&ki, &kd, sizeof(ki));
    kd -= kExpShift;
    const double r = std::fma(kExpInvLn2N, xd, -kd);
    const std::uint64_t sbits = kExpTable[ki % 32] + (ki << 47);
    double s;
    std::memcpy(&s, &sbits, sizeof(s));
    const double z = std::fma(kExpC0, r, kExpC1);
    double y = std::fma(r, kExpC2, 1.0);
    y = std::fma(z, r * r, y);
    return static_cast<float>(y * s);
}

float
tanhSeq(float x)
{
    using namespace seq;
    const std::uint32_t jx = bitsOf(x);
    const std::uint32_t ix = jx & 0x7fffffffu;
    if (ix > 0x7f800000u) // nan: fdlibm's 1/x +- 1 is this same quiet nan
        return x + x;
    float z = 1.f; // |x| >= 22 and +-inf: fdlibm's 1 - 1e-30 rounds to 1
    if (ix < kTanhTwentyTwo) {
        if (ix == 0)
            return x;
        if (ix < kTanhTiny)
            return x * (1.f + x);
        const float ax = floatOf(ix);
        if (ix >= kTanhOne) {
            const float t = expm1ForTanh(ax + ax);
            z = 1.f - 2.f / (t + 2.f);
        } else {
            const float t = expm1ForTanh(-2.f * ax);
            z = -t / (t + 2.f);
        }
    }
    return (jx >> 31) ? -z : z;
}

/** C[m,n] += A[m,k] * B[k,n], raw row-major kernel (ikj order). */
void
gemmAccum(const float* a, const float* b, float* c, int m, int k, int n)
{
    for (int i = 0; i < m; ++i) {
        const float* arow = a + size_t(i) * k;
        float* crow = c + size_t(i) * n;
        for (int p = 0; p < k; ++p) {
            float av = arow[p];
            if (av == 0.f)
                continue;
            const float* brow = b + size_t(p) * n;
            for (int j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/** C[m,k] += dC[m,n] * B^T, i.e. C[i,p] += sum_j dC[i,j] * B[p,j]. */
void
gemmAccumBt(const float* dc, const float* b, float* out, int m, int k, int n)
{
    for (int i = 0; i < m; ++i) {
        const float* drow = dc + size_t(i) * n;
        float* orow = out + size_t(i) * k;
        for (int p = 0; p < k; ++p) {
            const float* brow = b + size_t(p) * n;
            float s = 0.f;
            for (int j = 0; j < n; ++j)
                s += drow[j] * brow[j];
            orow[p] += s;
        }
    }
}

/** dB[k,n] += A^T * dC, i.e. dB[p,j] += sum_i A[i,p] * dC[i,j]. */
void
gemmAccumAt(const float* a, const float* dc, float* out, int m, int k, int n)
{
    for (int i = 0; i < m; ++i) {
        const float* arow = a + size_t(i) * k;
        const float* drow = dc + size_t(i) * n;
        for (int p = 0; p < k; ++p) {
            float av = arow[p];
            if (av == 0.f)
                continue;
            float* orow = out + size_t(p) * n;
            for (int j = 0; j < n; ++j)
                orow[j] += av * drow[j];
        }
    }
}

void
softmaxRows(const float* x, float* y, int m, int n)
{
    for (int i = 0; i < m; ++i) {
        const float* in = x + size_t(i) * n;
        float* out = y + size_t(i) * n;
        float mx = in[0];
        for (int j = 1; j < n; ++j)
            mx = std::max(mx, in[j]);
        float sum = 0.f;
        for (int j = 0; j < n; ++j) {
            out[j] = expSeq(in[j] - mx);
            sum += out[j];
        }
        float inv = 1.f / sum;
        for (int j = 0; j < n; ++j)
            out[j] *= inv;
    }
}

void
attentionRows(const float* q, const float* kt, const float* v,
              const float* mask, int rb, int n, int hd, float* scratch,
              float* probs, float* out)
{
    attentionComposite(gemmAccum, softmaxRows, q, kt, v, mask, rb, n, hd,
                       scratch, probs, out);
}

void
layerNormRows(const float* x, const float* gamma, const float* beta,
              float eps, float* y, float* xhat, float* invstd, int m, int n)
{
    for (int i = 0; i < m; ++i) {
        const float* row = x + size_t(i) * n;
        float mean = 0.f;
        for (int j = 0; j < n; ++j)
            mean += row[j];
        mean /= n;
        float var = 0.f;
        for (int j = 0; j < n; ++j) {
            float d = row[j] - mean;
            var += d * d;
        }
        var /= n;
        float is = 1.f / std::sqrt(var + eps);
        invstd[i] = is;
        for (int j = 0; j < n; ++j) {
            float xh = (row[j] - mean) * is;
            xhat[size_t(i) * n + j] = xh;
            y[size_t(i) * n + j] = gamma[j] * xh + beta[j];
        }
    }
}

void
geluForward(const float* x, float* y, float* t, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        float v = x[i];
        float th = tanhSeq(kGeluC * (v + kGeluA * v * v * v));
        y[i] = 0.5f * v * (1.f + th);
        if (t)
            t[i] = th;
    }
}

void
addElem(const float* a, const float* b, float* y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] = a[i] + b[i];
}

void
subElem(const float* a, const float* b, float* y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] = a[i] - b[i];
}

void
mulElem(const float* a, const float* b, float* y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] = a[i] * b[i];
}

void
axpy(float alpha, const float* x, float* y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += alpha * x[i];
}

void
scaleElem(float alpha, const float* x, float* y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] = x[i] * alpha;
}

} // namespace scalar

void
attentionComposite(GemmFn gemm, SoftmaxFn softmax, const float* q,
                   const float* kt, const float* v, const float* mask,
                   int rb, int n, int hd, float* scratch, float* probs,
                   float* out)
{
    const size_t cells = size_t(rb) * n;
    float* scores = scratch;
    float* p = probs ? probs : scratch + size_t(kAttentionRowBlock) * n;
    // q k^T into zeros (p doubles as the product's buffer), x 1/sqrt(hd),
    // + mask: the graph's matmul, scale and add.
    std::fill_n(p, cells, 0.f);
    gemm(q, kt, p, rb, hd, n);
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    for (size_t e = 0; e < cells; ++e)
        scores[e] = p[e] * scale;
    if (mask)
        for (int r = 0; r < rb; ++r)
            for (int j = 0; j < n; ++j)
                scores[size_t(r) * n + j] +=
                    mask[size_t(j) * kAttentionRowBlock + r];
    softmax(scores, p, rb, n);
    std::fill_n(out, size_t(rb) * hd, 0.f);
    gemm(p, v, out, rb, n, hd);
}

} // namespace kernels
} // namespace nn
} // namespace llmulator
