#ifndef LLMULATOR_NN_ATTENTION_H
#define LLMULATOR_NN_ATTENTION_H

/**
 * @file
 * Multi-head scaled-dot-product attention: one implementation for
 * inference and training.
 *
 * Both run attention as blocks of up to kAttentionRowBlock query rows
 * of one head, through the backend's attentionRows (nn::attentionRows
 * in ops.h; backend.h has its contract): scores = q k^T, x 1/sqrt(hd),
 * + mask, softmax, P v, in the per-op graph's order. The vector backend
 * runs each block as one fused pass with the rows as vector lanes.
 * model::InferenceSession runs it over its workspace and asks for no P.
 * attention() loops the heads inside each row block, so the block's
 * mask columns are built once for all heads; it keeps every head's P
 * and records one tape node per call. Its backward is hand-written on
 * the same backend kernels, one call per head and GEMM, in the tape's
 * per-element order. So values and gradients equal, bit for bit, those
 * of the per-head composite it replaced: scale(matmul(q_h,
 * transpose(k_h))) + mask, softmaxRows, matmul with v_h, the heads
 * concatenated. tests/attention_oracle.h keeps that composite as the
 * oracle.
 *
 * Panel layout, shared by both callers (hd = d / heads):
 *  - queries [heads][rows][hd]: head h's rows start at h * rows * hd;
 *  - keys transposed [d][n]: head h owns rows h*hd .. h*hd + hd - 1;
 *  - values [heads][n][hd];
 *  - a block's mask as columns, [n][kAttentionRowBlock].
 */

#include "nn/backend.h"
#include "nn/tensor.h"

namespace llmulator {
namespace nn {

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
