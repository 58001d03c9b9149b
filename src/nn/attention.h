#ifndef LLMULATOR_NN_ATTENTION_H
#define LLMULATOR_NN_ATTENTION_H

/**
 * @file
 * Multi-head scaled-dot-product attention: one implementation for
 * inference and training.
 *
 * attentionRows() computes one block of query rows of one head, as the
 * backend calls the per-op autograd graph made: scores = q k^T,
 * x 1/sqrt(hd), + mask, softmax, P v. model::InferenceSession runs it
 * over scratch blocks. attention() runs it into a saved P per head and
 * records one tape node per call; its backward is hand-written on the
 * same backend kernels, one call per head and GEMM, in the tape's
 * per-element order. So values and gradients equal, bit for bit, those
 * of the per-head composite it replaced: scale(matmul(q_h,
 * transpose(k_h))) + mask, softmaxRows, matmul with v_h, the heads
 * concatenated. tests/attention_oracle.h keeps that composite as the
 * oracle.
 *
 * Panel layout, shared by both callers (hd = d / heads):
 *  - queries [heads][rows][hd]: head h's rows start at h * rows * hd;
 *  - keys transposed [d][n]: head h owns rows h*hd .. h*hd + hd - 1;
 *  - values [heads][n][hd].
 */

#include "nn/tensor.h"

namespace llmulator {
namespace nn {

struct Backend;

/** Query rows per block: the longest rb attentionRows takes scratch for. */
constexpr int kAttentionRowBlock = 16;

/**
 * Rows of one head: probs = softmax(q kt / sqrt(hd) + mask) and
 * out = probs v.
 * @param q      [rb, hd] the block's queries
 * @param kt     [hd, n] the head's keys, transposed
 * @param v      [n, hd] the head's values
 * @param mask   [rb, n] additive mask rows of the block, or null
 * @param scores [rb, n] scratch
 * @param probs  [rb, n] receives the attention probabilities
 * @param out    [rb, hd] receives probs v
 */
void attentionRows(const Backend& be, const float* q, const float* kt,
                   const float* v, const float* mask, int rb, int n, int hd,
                   float* scores, float* probs, float* out);

/**
 * Differentiable multi-head self-attention over projected q, k, v
 * ([n, d] each): head h reads columns h*hd .. h*hd + hd - 1, and the
 * heads' outputs are concatenated into the [n, d] result. `mask`
 * ([n, n], additive, or null) carries no gradient. With any input
 * requiring gradients the call keeps its q/k/v panels and every head's
 * probabilities for the backward.
 */
TensorPtr attention(const TensorPtr& q, const TensorPtr& k,
                    const TensorPtr& v, const TensorPtr& mask, int heads);

} // namespace nn
} // namespace llmulator

#endif // LLMULATOR_NN_ATTENTION_H
