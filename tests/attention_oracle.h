#ifndef LLMULATOR_TESTS_ATTENTION_ORACLE_H
#define LLMULATOR_TESTS_ATTENTION_ORACLE_H

/**
 * @file
 * The per-op autograd attention that nn::attention replaced, kept as
 * the oracle it must equal bit for bit: per head, slice q/k/v,
 * scale(matmul(q_h, transpose(k_h)), 1/sqrt(hd)), + mask, softmaxRows,
 * matmul with v_h, and the heads concatenated, one tape node per op.
 * transpose and softmaxRows are the two autograd ops only this
 * composite called; they live here with it. encoderForward is
 * nn::TransformerEncoder::forward built on the composite, so a test can
 * compare every parameter gradient of a whole encoder.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/backend.h"
#include "nn/layers.h"
#include "nn/ops.h"

namespace llmulator {
namespace oracle {

/** Transpose, with its scatter-add backward. */
inline nn::TensorPtr
transpose(const nn::TensorPtr& a)
{
    auto out = nn::Tensor::zeros(a->cols, a->rows);
    for (int i = 0; i < a->rows; ++i)
        for (int j = 0; j < a->cols; ++j)
            out->at(j, i) = a->at(i, j);
    if (a->requiresGrad) {
        out->requiresGrad = true;
        out->parents = {a};
        nn::Tensor* self = out.get();
        out->backwardFn = [self, a]() {
            a->ensureGrad();
            for (int i = 0; i < a->rows; ++i)
                for (int j = 0; j < a->cols; ++j)
                    a->grad[size_t(i) * a->cols + j] +=
                        self->grad[size_t(j) * a->rows + i];
        };
    }
    return out;
}

/** Row-wise softmax on the active backend, with its backward. */
inline nn::TensorPtr
softmaxRows(const nn::TensorPtr& x)
{
    auto out = nn::Tensor::zeros(x->rows, x->cols);
    nn::backend().softmaxRows(x->value.data(), out->value.data(), x->rows,
                              x->cols);
    if (x->requiresGrad) {
        out->requiresGrad = true;
        out->parents = {x};
        nn::Tensor* self = out.get();
        out->backwardFn = [self, x]() {
            x->ensureGrad();
            int n = self->cols;
            for (int i = 0; i < self->rows; ++i) {
                const float* y = self->value.data() + size_t(i) * n;
                const float* dy = self->grad.data() + size_t(i) * n;
                float dot = 0.f;
                for (int j = 0; j < n; ++j)
                    dot += dy[j] * y[j];
                float* dx = x->grad.data() + size_t(i) * n;
                for (int j = 0; j < n; ++j)
                    dx[j] += (dy[j] - dot) * y[j];
            }
        };
    }
    return out;
}

/** The per-head composite nn::attention(q, k, v, mask, heads) equals. */
inline nn::TensorPtr
attention(const nn::TensorPtr& q, const nn::TensorPtr& k,
          const nn::TensorPtr& v, const nn::TensorPtr& mask, int heads)
{
    const int hd = q->cols / heads;
    const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
    nn::TensorPtr ctx;
    for (int h = 0; h < heads; ++h) {
        nn::TensorPtr qh = nn::sliceCols(q, h * hd, hd);
        nn::TensorPtr kh = nn::sliceCols(k, h * hd, hd);
        nn::TensorPtr vh = nn::sliceCols(v, h * hd, hd);
        nn::TensorPtr scores =
            nn::scale(nn::matmul(qh, transpose(kh)), inv_sqrt);
        if (mask)
            scores = nn::add(scores, mask);
        nn::TensorPtr head_out = nn::matmul(softmaxRows(scores), vh);
        ctx = ctx ? nn::concatCols(ctx, head_out) : head_out;
    }
    return ctx;
}

/** nn::TransformerEncoder::forward with the composite attention. */
inline nn::TensorPtr
encoderForward(const nn::TransformerEncoder& enc, const std::vector<int>& ids,
               const nn::TensorPtr& mask)
{
    const int len = std::min<int>(static_cast<int>(ids.size()),
                                  enc.cfg.maxSeq);
    const std::vector<int> trimmed(ids.begin(), ids.begin() + len);
    std::vector<int> pos_ids(len);
    for (int i = 0; i < len; ++i)
        pos_ids[i] = i;
    nn::TensorPtr x =
        nn::add(enc.tok->forward(trimmed), nn::embedRows(enc.pos, pos_ids));
    for (const auto& blk : enc.blocks) {
        const nn::MultiHeadSelfAttention& mha = *blk->attn;
        nn::TensorPtr a = blk->ln1->forward(x);
        nn::TensorPtr q = mha.wq->forward(a);
        nn::TensorPtr k = mha.wk->forward(a);
        nn::TensorPtr v = mha.wv->forward(a);
        nn::TensorPtr h =
            nn::add(x, mha.wo->forward(attention(q, k, v, mask, mha.heads)));
        nn::TensorPtr f = blk->ff2->forward(
            nn::gelu(blk->ff1->forward(blk->ln2->forward(h))));
        x = nn::add(h, f);
    }
    return enc.lnFinal->forward(x);
}

} // namespace oracle
} // namespace llmulator

#endif // LLMULATOR_TESTS_ATTENTION_ORACLE_H
