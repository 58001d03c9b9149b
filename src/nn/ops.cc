#include "nn/ops.h"

#include <cmath>

#include "nn/backend.h"
#include "nn/kernels.h" // kGeluC/kGeluA, shared with the backend kernels
#include "obs/metrics.h"
#include "util/common.h"

namespace llmulator {
namespace nn {

// The raw hot kernels (three GEMM variants, fused row-wise primitives,
// elementwise loops) live behind the pluggable nn::Backend dispatch
// table — see backend.h for the bit-identity and finite-input
// contracts, kernels_scalar.cc for the reference implementations.

namespace {

bool
anyRequiresGrad(const TensorPtr& a)
{
    return a->requiresGrad;
}

bool
anyRequiresGrad(const TensorPtr& a, const TensorPtr& b)
{
    return a->requiresGrad || b->requiresGrad;
}

/**
 * Per-kernel, per-backend GEMM call/FLOP counters in the global
 * registry (`nn.<kernel>.<backend>.{calls,flops}`), gated by
 * LLMULATOR_METRICS. A thread-local cache keyed by the backend pointer
 * keeps the enabled hot path free of name building and registry
 * lookups; disabled cost is one relaxed load + branch. Speed-only:
 * counting observes the dispatch, it never changes it.
 */
enum GemmKernel { kGemmAccum = 0, kGemmAccumBt = 1, kGemmAccumAt = 2 };

void
countGemm(GemmKernel kernel, const Backend& be, uint64_t flops)
{
    if (!obs::metricsEnabled())
        return;
    static const char* const kKernelNames[3] = {
        "gemm_accum", "gemm_accum_bt", "gemm_accum_at"};
    struct Entry
    {
        const Backend* be = nullptr;
        obs::Counter* calls = nullptr;
        obs::Counter* flops = nullptr;
    };
    thread_local Entry cache[3];
    Entry& e = cache[kernel];
    if (e.be != &be) {
        std::string base =
            std::string("nn.") + kKernelNames[kernel] + "." + be.name;
        e.calls = &obs::registry().counter(base + ".calls");
        e.flops = &obs::registry().counter(base + ".flops");
        e.be = &be;
    }
    e.calls->add(1);
    e.flops->add(flops);
}

} // namespace

void
gemmAccum(const Backend& be, const float* a, const float* b, float* c, int m,
          int k, int n)
{
    be.gemmAccum(a, b, c, m, k, n);
    countGemm(kGemmAccum, be, 2ull * uint64_t(m) * uint64_t(k) * uint64_t(n));
}

void
gemmAccumBt(const Backend& be, const float* dc, const float* b, float* out,
            int m, int k, int n)
{
    be.gemmAccumBt(dc, b, out, m, k, n);
    countGemm(kGemmAccumBt, be,
              2ull * uint64_t(m) * uint64_t(k) * uint64_t(n));
}

void
gemmAccumAt(const Backend& be, const float* a, const float* dc, float* out,
            int m, int k, int n)
{
    be.gemmAccumAt(a, dc, out, m, k, n);
    countGemm(kGemmAccumAt, be,
              2ull * uint64_t(m) * uint64_t(k) * uint64_t(n));
}

TensorPtr
matmul(const TensorPtr& a, const TensorPtr& b)
{
    LLM_CHECK(a->cols == b->rows,
              "matmul shape mismatch " << a->rows << "x" << a->cols << " * "
                                       << b->rows << "x" << b->cols);
    auto out = Tensor::zeros(a->rows, b->cols);
    gemmAccum(backend(), a->value.data(), b->value.data(), out->value.data(),
              a->rows, a->cols, b->cols);
    if (anyRequiresGrad(a, b)) {
        out->requiresGrad = true;
        out->parents = {a, b};
        Tensor* self = out.get();
        out->backwardFn = [self, a, b]() {
            int m = a->rows, k = a->cols, n = b->cols;
            const Backend& be = backend();
            if (a->requiresGrad) {
                a->ensureGrad();
                gemmAccumBt(be, self->grad.data(), b->value.data(),
                            a->grad.data(), m, k, n);
            }
            if (b->requiresGrad) {
                b->ensureGrad();
                gemmAccumAt(be, a->value.data(), self->grad.data(),
                            b->grad.data(), m, k, n);
            }
        };
    }
    return out;
}

namespace {

/** Shared elementwise binary-op scaffolding for add/sub/mul. */
enum class BinKind { Add, Sub, Mul };

TensorPtr
binaryElem(const TensorPtr& a, const TensorPtr& b, BinKind kind)
{
    LLM_CHECK(a->rows == b->rows && a->cols == b->cols,
              "elementwise shape mismatch");
    auto out = Tensor::zeros(a->rows, a->cols);
    size_t n = out->value.size();
    const Backend& be = backend();
    switch (kind) {
      case BinKind::Add:
        be.addElem(a->value.data(), b->value.data(), out->value.data(), n);
        break;
      case BinKind::Sub:
        be.subElem(a->value.data(), b->value.data(), out->value.data(), n);
        break;
      case BinKind::Mul:
        be.mulElem(a->value.data(), b->value.data(), out->value.data(), n);
        break;
    }
    if (anyRequiresGrad(a, b)) {
        out->requiresGrad = true;
        out->parents = {a, b};
        Tensor* self = out.get();
        out->backwardFn = [self, a, b, kind]() {
            size_t n = self->grad.size();
            if (a->requiresGrad) {
                a->ensureGrad();
                for (size_t i = 0; i < n; ++i) {
                    float g = self->grad[i];
                    if (kind == BinKind::Mul)
                        g *= b->value[i];
                    a->grad[i] += g;
                }
            }
            if (b->requiresGrad) {
                b->ensureGrad();
                for (size_t i = 0; i < n; ++i) {
                    float g = self->grad[i];
                    if (kind == BinKind::Mul)
                        g *= a->value[i];
                    else if (kind == BinKind::Sub)
                        g = -g;
                    b->grad[i] += g;
                }
            }
        };
    }
    return out;
}

} // namespace

TensorPtr
add(const TensorPtr& a, const TensorPtr& b)
{
    return binaryElem(a, b, BinKind::Add);
}

TensorPtr
sub(const TensorPtr& a, const TensorPtr& b)
{
    return binaryElem(a, b, BinKind::Sub);
}

TensorPtr
mulElem(const TensorPtr& a, const TensorPtr& b)
{
    return binaryElem(a, b, BinKind::Mul);
}

TensorPtr
addRow(const TensorPtr& x, const TensorPtr& b)
{
    LLM_CHECK(b->rows == 1 && b->cols == x->cols, "addRow shape mismatch");
    auto out = Tensor::zeros(x->rows, x->cols);
    {
        const Backend& be = backend();
        for (int i = 0; i < x->rows; ++i)
            be.addElem(x->value.data() + size_t(i) * x->cols,
                       b->value.data(),
                       out->value.data() + size_t(i) * x->cols, x->cols);
    }
    if (anyRequiresGrad(x, b)) {
        out->requiresGrad = true;
        out->parents = {x, b};
        Tensor* self = out.get();
        out->backwardFn = [self, x, b]() {
            if (x->requiresGrad) {
                x->ensureGrad();
                backend().axpy(1.f, self->grad.data(), x->grad.data(),
                               x->grad.size());
            }
            if (b->requiresGrad) {
                b->ensureGrad();
                for (int i = 0; i < self->rows; ++i)
                    for (int j = 0; j < self->cols; ++j)
                        b->grad[j] += self->grad[size_t(i) * self->cols + j];
            }
        };
    }
    return out;
}

TensorPtr
scale(const TensorPtr& x, float s)
{
    auto out = Tensor::zeros(x->rows, x->cols);
    backend().scaleElem(s, x->value.data(), out->value.data(),
                        x->value.size());
    if (anyRequiresGrad(x)) {
        out->requiresGrad = true;
        out->parents = {x};
        Tensor* self = out.get();
        out->backwardFn = [self, x, s]() {
            x->ensureGrad();
            backend().axpy(s, self->grad.data(), x->grad.data(),
                           x->grad.size());
        };
    }
    return out;
}

using kernels::kGeluA;
using kernels::kGeluC;

TensorPtr
gelu(const TensorPtr& x)
{
    auto out = Tensor::zeros(x->rows, x->cols);
    // The forward's tanh values stay on the tape for the backward.
    std::shared_ptr<std::vector<float>> tanhs;
    if (anyRequiresGrad(x))
        tanhs = std::make_shared<std::vector<float>>(x->value.size());
    backend().geluForward(x->value.data(), out->value.data(),
                          tanhs ? tanhs->data() : nullptr, x->value.size());
    if (anyRequiresGrad(x)) {
        out->requiresGrad = true;
        out->parents = {x};
        Tensor* self = out.get();
        out->backwardFn = [self, x, tanhs]() {
            x->ensureGrad();
            for (size_t i = 0; i < x->grad.size(); ++i) {
                float v = x->value[i];
                float t = (*tanhs)[i];
                float dinner = kGeluC * (1.f + 3.f * kGeluA * v * v);
                float d = 0.5f * (1.f + t) + 0.5f * v * (1.f - t * t) * dinner;
                x->grad[i] += self->grad[i] * d;
            }
        };
    }
    return out;
}

TensorPtr
relu(const TensorPtr& x)
{
    auto out = Tensor::zeros(x->rows, x->cols);
    for (size_t i = 0; i < x->value.size(); ++i)
        out->value[i] = x->value[i] > 0.f ? x->value[i] : 0.f;
    if (anyRequiresGrad(x)) {
        out->requiresGrad = true;
        out->parents = {x};
        Tensor* self = out.get();
        out->backwardFn = [self, x]() {
            x->ensureGrad();
            for (size_t i = 0; i < x->grad.size(); ++i)
                if (x->value[i] > 0.f)
                    x->grad[i] += self->grad[i];
        };
    }
    return out;
}

TensorPtr
sigmoid(const TensorPtr& x)
{
    auto out = Tensor::zeros(x->rows, x->cols);
    for (size_t i = 0; i < x->value.size(); ++i)
        out->value[i] = 1.f / (1.f + std::exp(-x->value[i]));
    if (anyRequiresGrad(x)) {
        out->requiresGrad = true;
        out->parents = {x};
        Tensor* self = out.get();
        out->backwardFn = [self, x]() {
            x->ensureGrad();
            for (size_t i = 0; i < x->grad.size(); ++i) {
                float y = self->value[i];
                x->grad[i] += self->grad[i] * y * (1.f - y);
            }
        };
    }
    return out;
}

TensorPtr
softplus(const TensorPtr& x)
{
    auto out = Tensor::zeros(x->rows, x->cols);
    for (size_t i = 0; i < x->value.size(); ++i) {
        float v = x->value[i];
        // Stable: softplus(v) = max(v,0) + log1p(exp(-|v|)).
        out->value[i] = std::max(v, 0.f) + std::log1p(std::exp(-std::fabs(v)));
    }
    if (anyRequiresGrad(x)) {
        out->requiresGrad = true;
        out->parents = {x};
        Tensor* self = out.get();
        out->backwardFn = [self, x]() {
            x->ensureGrad();
            for (size_t i = 0; i < x->grad.size(); ++i) {
                float v = x->value[i];
                float sig = 1.f / (1.f + std::exp(-v));
                x->grad[i] += self->grad[i] * sig;
            }
        };
    }
    return out;
}

TensorPtr
layerNormRows(const TensorPtr& x, const TensorPtr& gamma,
              const TensorPtr& beta, float eps)
{
    LLM_CHECK(gamma->rows == 1 && gamma->cols == x->cols, "layerNorm gamma");
    LLM_CHECK(beta->rows == 1 && beta->cols == x->cols, "layerNorm beta");
    int m = x->rows, n = x->cols;
    auto out = Tensor::zeros(m, n);
    // Stash normalized activations and inverse stddev for the backward pass.
    auto xhat = std::make_shared<std::vector<float>>(size_t(m) * n);
    auto invstd = std::make_shared<std::vector<float>>(m);
    backend().layerNormRows(x->value.data(), gamma->value.data(),
                            beta->value.data(), eps, out->value.data(),
                            xhat->data(), invstd->data(), m, n);
    if (x->requiresGrad || gamma->requiresGrad || beta->requiresGrad) {
        out->requiresGrad = true;
        out->parents = {x, gamma, beta};
        Tensor* self = out.get();
        out->backwardFn = [self, x, gamma, beta, xhat, invstd]() {
            int m = self->rows, n = self->cols;
            if (gamma->requiresGrad)
                gamma->ensureGrad();
            if (beta->requiresGrad)
                beta->ensureGrad();
            if (x->requiresGrad)
                x->ensureGrad();
            for (int i = 0; i < m; ++i) {
                const float* dy = self->grad.data() + size_t(i) * n;
                const float* xh = xhat->data() + size_t(i) * n;
                if (gamma->requiresGrad || beta->requiresGrad) {
                    for (int j = 0; j < n; ++j) {
                        if (gamma->requiresGrad)
                            gamma->grad[j] += dy[j] * xh[j];
                        if (beta->requiresGrad)
                            beta->grad[j] += dy[j];
                    }
                }
                if (x->requiresGrad) {
                    // dx = invstd * (g - mean(g) - xhat * mean(g*xhat)),
                    // where g = gamma * dy.
                    float mean_g = 0.f, mean_gx = 0.f;
                    for (int j = 0; j < n; ++j) {
                        float g = gamma->value[j] * dy[j];
                        mean_g += g;
                        mean_gx += g * xh[j];
                    }
                    mean_g /= n;
                    mean_gx /= n;
                    float is = (*invstd)[i];
                    float* dx = x->grad.data() + size_t(i) * n;
                    for (int j = 0; j < n; ++j) {
                        float g = gamma->value[j] * dy[j];
                        dx[j] += is * (g - mean_g - xh[j] * mean_gx);
                    }
                }
            }
        };
    }
    return out;
}

TensorPtr
embedRows(const TensorPtr& table, const std::vector<int>& ids)
{
    int m = static_cast<int>(ids.size());
    LLM_CHECK(m > 0, "embedRows with no ids");
    auto out = Tensor::zeros(m, table->cols);
    for (int i = 0; i < m; ++i) {
        int id = ids[i];
        LLM_CHECK(id >= 0 && id < table->rows, "embed id " << id
                  << " out of range " << table->rows);
        const float* src = table->value.data() + size_t(id) * table->cols;
        float* dst = out->value.data() + size_t(i) * table->cols;
        for (int j = 0; j < table->cols; ++j)
            dst[j] = src[j];
    }
    if (anyRequiresGrad(table)) {
        out->requiresGrad = true;
        out->parents = {table};
        Tensor* self = out.get();
        auto ids_copy = ids;
        out->backwardFn = [self, table, ids_copy]() {
            table->ensureGrad();
            const Backend& be = backend();
            for (size_t i = 0; i < ids_copy.size(); ++i)
                be.axpy(1.f, self->grad.data() + i * table->cols,
                        table->grad.data() +
                            size_t(ids_copy[i]) * table->cols,
                        table->cols);
        };
    }
    return out;
}

TensorPtr
concatCols(const TensorPtr& a, const TensorPtr& b)
{
    LLM_CHECK(a->rows == b->rows, "concatCols row mismatch");
    int m = a->rows, na = a->cols, nb = b->cols;
    auto out = Tensor::zeros(m, na + nb);
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < na; ++j)
            out->at(i, j) = a->at(i, j);
        for (int j = 0; j < nb; ++j)
            out->at(i, na + j) = b->at(i, j);
    }
    if (anyRequiresGrad(a, b)) {
        out->requiresGrad = true;
        out->parents = {a, b};
        Tensor* self = out.get();
        out->backwardFn = [self, a, b]() {
            int m = a->rows, na = a->cols, nb = b->cols;
            if (a->requiresGrad) {
                a->ensureGrad();
                for (int i = 0; i < m; ++i)
                    for (int j = 0; j < na; ++j)
                        a->grad[size_t(i) * na + j] +=
                            self->grad[size_t(i) * (na + nb) + j];
            }
            if (b->requiresGrad) {
                b->ensureGrad();
                for (int i = 0; i < m; ++i)
                    for (int j = 0; j < nb; ++j)
                        b->grad[size_t(i) * nb + j] +=
                            self->grad[size_t(i) * (na + nb) + na + j];
            }
        };
    }
    return out;
}

TensorPtr
sliceCols(const TensorPtr& x, int start, int len)
{
    LLM_CHECK(start >= 0 && len > 0 && start + len <= x->cols,
              "sliceCols [" << start << "," << start + len << ") of "
                            << x->cols);
    int m = x->rows;
    auto out = Tensor::zeros(m, len);
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < len; ++j)
            out->at(i, j) = x->at(i, start + j);
    if (anyRequiresGrad(x)) {
        out->requiresGrad = true;
        out->parents = {x};
        Tensor* self = out.get();
        out->backwardFn = [self, x, start, len]() {
            x->ensureGrad();
            for (int i = 0; i < self->rows; ++i)
                for (int j = 0; j < len; ++j)
                    x->grad[size_t(i) * x->cols + start + j] +=
                        self->grad[size_t(i) * len + j];
        };
    }
    return out;
}

TensorPtr
meanRows(const TensorPtr& x)
{
    int m = x->rows, n = x->cols;
    auto out = Tensor::zeros(1, n);
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j)
            out->value[j] += x->at(i, j);
    for (int j = 0; j < n; ++j)
        out->value[j] /= m;
    if (anyRequiresGrad(x)) {
        out->requiresGrad = true;
        out->parents = {x};
        Tensor* self = out.get();
        out->backwardFn = [self, x]() {
            x->ensureGrad();
            int m = x->rows, n = x->cols;
            float inv = 1.f / m;
            const Backend& be = backend();
            for (int i = 0; i < m; ++i)
                be.axpy(inv, self->grad.data(),
                        x->grad.data() + size_t(i) * n, n);
        };
    }
    return out;
}

TensorPtr
sumAll(const TensorPtr& x)
{
    float s = 0.f;
    for (float v : x->value)
        s += v;
    auto out = Tensor::scalar(s);
    if (anyRequiresGrad(x)) {
        out->requiresGrad = true;
        out->parents = {x};
        Tensor* self = out.get();
        out->backwardFn = [self, x]() {
            x->ensureGrad();
            for (auto& g : x->grad)
                g += self->grad[0];
        };
    }
    return out;
}

TensorPtr
crossEntropyLogits(const TensorPtr& logits, const std::vector<int>& targets,
                   const std::vector<float>& row_weights)
{
    int m = logits->rows, n = logits->cols;
    LLM_CHECK(targets.size() == size_t(m), "crossEntropy target count");
    LLM_CHECK(row_weights.empty() || row_weights.size() == size_t(m),
              "crossEntropy weight count");
    auto weights = std::make_shared<std::vector<float>>(
        row_weights.empty() ? std::vector<float>(m, 1.f) : row_weights);
    float wsum = 0.f;
    for (float w : *weights)
        wsum += w;
    LLM_CHECK(wsum > 0.f, "crossEntropy weights sum to zero");

    auto probs = std::make_shared<std::vector<float>>(size_t(m) * n);
    backend().softmaxRows(logits->value.data(), probs->data(), m, n);
    double loss = 0.0;
    for (int i = 0; i < m; ++i) {
        int t = targets[i];
        LLM_CHECK(t >= 0 && t < n, "crossEntropy target " << t);
        float p = std::max((*probs)[size_t(i) * n + t], 1e-12f);
        loss -= (*weights)[i] * std::log(p);
    }
    auto out = Tensor::scalar(static_cast<float>(loss / wsum));
    if (anyRequiresGrad(logits)) {
        out->requiresGrad = true;
        out->parents = {logits};
        Tensor* self = out.get();
        auto tcopy = targets;
        out->backwardFn = [self, logits, probs, tcopy, weights, wsum]() {
            logits->ensureGrad();
            int m = logits->rows, n = logits->cols;
            float g = self->grad[0] / wsum;
            for (int i = 0; i < m; ++i) {
                float gw = g * (*weights)[i];
                float* dl = logits->grad.data() + size_t(i) * n;
                const float* p = probs->data() + size_t(i) * n;
                for (int j = 0; j < n; ++j)
                    dl[j] += gw * p[j];
                dl[tcopy[i]] -= gw;
            }
        };
    }
    return out;
}

TensorPtr
sequenceLogProb(const TensorPtr& logits, const std::vector<int>& targets)
{
    int m = logits->rows, n = logits->cols;
    LLM_CHECK(targets.size() == size_t(m), "sequenceLogProb target count");
    auto probs = std::make_shared<std::vector<float>>(size_t(m) * n);
    backend().softmaxRows(logits->value.data(), probs->data(), m, n);
    double lp = 0.0;
    for (int i = 0; i < m; ++i) {
        float p = std::max((*probs)[size_t(i) * n + targets[i]], 1e-12f);
        lp += std::log(p);
    }
    auto out = Tensor::scalar(static_cast<float>(lp));
    if (anyRequiresGrad(logits)) {
        out->requiresGrad = true;
        out->parents = {logits};
        Tensor* self = out.get();
        auto tcopy = targets;
        out->backwardFn = [self, logits, probs, tcopy]() {
            logits->ensureGrad();
            int m = logits->rows, n = logits->cols;
            float g = self->grad[0];
            // d logp_y / d logits = onehot - softmax
            for (int i = 0; i < m; ++i) {
                float* dl = logits->grad.data() + size_t(i) * n;
                const float* p = probs->data() + size_t(i) * n;
                for (int j = 0; j < n; ++j)
                    dl[j] -= g * p[j];
                dl[tcopy[i]] += g;
            }
        };
    }
    return out;
}

TensorPtr
mseLoss(const TensorPtr& pred, const std::vector<float>& target)
{
    LLM_CHECK(pred->value.size() == target.size(), "mse size mismatch");
    double loss = 0.0;
    for (size_t i = 0; i < target.size(); ++i) {
        double d = pred->value[i] - target[i];
        loss += d * d;
    }
    auto out = Tensor::scalar(static_cast<float>(loss / target.size()));
    if (anyRequiresGrad(pred)) {
        out->requiresGrad = true;
        out->parents = {pred};
        Tensor* self = out.get();
        auto tcopy = target;
        out->backwardFn = [self, pred, tcopy]() {
            pred->ensureGrad();
            float g = self->grad[0] * 2.f / tcopy.size();
            for (size_t i = 0; i < tcopy.size(); ++i)
                pred->grad[i] += g * (pred->value[i] - tcopy[i]);
        };
    }
    return out;
}

} // namespace nn
} // namespace llmulator
