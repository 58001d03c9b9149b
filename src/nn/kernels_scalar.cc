/**
 * @file
 * The "scalar" backend: the original naive nn kernels, moved here
 * verbatim from ops.cc when the backend seam was introduced. This is
 * the bit-for-bit reference every other backend must match on finite
 * inputs (backend.h spells out the contracts); treat the float
 * operation sequences below as frozen.
 */

#include "nn/kernels.h"

#include <algorithm>
#include <cmath>

namespace llmulator {
namespace nn {
namespace kernels {
namespace scalar {

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
            out[j] = std::exp(in[j] - mx);
            sum += out[j];
        }
        float inv = 1.f / sum;
        for (int j = 0; j < n; ++j)
            out[j] *= inv;
    }
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
        float th = std::tanh(kGeluC * (v + kGeluA * v * v * v));
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
} // namespace kernels
} // namespace nn
} // namespace llmulator
