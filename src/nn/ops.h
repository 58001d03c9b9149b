#ifndef LLMULATOR_NN_OPS_H
#define LLMULATOR_NN_OPS_H

/**
 * @file
 * Differentiable tensor operations.
 *
 * Each op computes its forward result eagerly, and (when any input requires
 * gradients) installs a backward closure on the output node. The set is the
 * minimal basis needed by the transformer cost models and the GNN/MLP
 * baselines; fused primitives (layerNormRows, crossEntropyLogits,
 * sequenceLogProb) exist where the composite form would dominate single-core
 * training time.
 */

#include <vector>

#include "nn/tensor.h"

namespace llmulator {
namespace nn {

struct Backend;

/**
 * Raw C[m,n] += A[m,k] * B[k,n] on backend `be`, counted in the
 * nn.gemm_accum.<backend>.{calls,flops} registry rows (gated by
 * LLMULATOR_METRICS). matmul's forward and the autograd-free encoder
 * forward both run their GEMMs through it.
 */
void gemmAccum(const Backend& be, const float* a, const float* b, float* c,
               int m, int k, int n);

/**
 * Raw dA[m,k] += dC[m,n] * B[k,n]^T on backend `be`, counted in the
 * nn.gemm_accum_bt.<backend>.* rows. matmul's backward and attention's
 * both run their dA GEMMs through it.
 */
void gemmAccumBt(const Backend& be, const float* dc, const float* b,
                 float* out, int m, int k, int n);

/**
 * Raw dB[k,n] += A[m,k]^T * dC[m,n] on backend `be`, counted in the
 * nn.gemm_accum_at.<backend>.* rows; matmul's and attention's dB GEMMs.
 */
void gemmAccumAt(const Backend& be, const float* a, const float* dc,
                 float* out, int m, int k, int n);

/**
 * Backend::attentionRows on backend `be` (backend.h has the contract),
 * counted in the nn.attention_rows.<backend>.* rows with its two
 * products' FLOPs. The training op nn::attention and the autograd-free
 * encoder forward run their attention blocks through it.
 */
void attentionRows(const Backend& be, const float* q, const float* kt,
                   const float* v, const float* mask, int rb, int n, int hd,
                   float* scratch, float* probs, float* out);

/** C[m,n] = A[m,k] * B[k,n]. */
TensorPtr matmul(const TensorPtr& a, const TensorPtr& b);

/** Elementwise sum of same-shape tensors. */
TensorPtr add(const TensorPtr& a, const TensorPtr& b);

/** Elementwise difference of same-shape tensors. */
TensorPtr sub(const TensorPtr& a, const TensorPtr& b);

/** Elementwise product of same-shape tensors. */
TensorPtr mulElem(const TensorPtr& a, const TensorPtr& b);

/** x + row-broadcast bias: x[m,n] + b[1,n]. */
TensorPtr addRow(const TensorPtr& x, const TensorPtr& b);

/** Scalar multiple. */
TensorPtr scale(const TensorPtr& x, float s);

/** GELU activation (tanh approximation). */
TensorPtr gelu(const TensorPtr& x);

/** ReLU activation. */
TensorPtr relu(const TensorPtr& x);

/** Logistic sigmoid. */
TensorPtr sigmoid(const TensorPtr& x);

/**
 * Numerically stable softplus log(1 + e^x). Used by the DPO objective:
 * -log sigmoid(z) == softplus(-z).
 */
TensorPtr softplus(const TensorPtr& x);

/**
 * Fused per-row layer normalization with learnable gain/bias.
 * @param x     [m,n] input
 * @param gamma [1,n] gain
 * @param beta  [1,n] bias
 */
TensorPtr layerNormRows(const TensorPtr& x, const TensorPtr& gamma,
                        const TensorPtr& beta, float eps = 1e-5f);

/**
 * Row gather (embedding lookup): out[i,:] = table[ids[i],:].
 * Backward scatter-adds into the table gradient.
 */
TensorPtr embedRows(const TensorPtr& table, const std::vector<int>& ids);

/** Column-wise concatenation of equal-row tensors. */
TensorPtr concatCols(const TensorPtr& a, const TensorPtr& b);

/** Column slice [start, start+len). */
TensorPtr sliceCols(const TensorPtr& x, int start, int len);

/** Column-mean over rows: [m,n] -> [1,n]. */
TensorPtr meanRows(const TensorPtr& x);

/** Sum of all elements -> scalar [1,1]. */
TensorPtr sumAll(const TensorPtr& x);

/**
 * Mean cross-entropy of row logits against integer targets.
 * Fused softmax backward: d logits = (softmax - onehot) / m.
 * When row_weights is non-empty (size m), each row's CE term is scaled by
 * its weight and the result is normalized by the weight sum — used by the
 * digit head to emphasize high-order (magnitude-determining) digits.
 */
TensorPtr crossEntropyLogits(const TensorPtr& logits,
                             const std::vector<int>& targets,
                             const std::vector<float>& row_weights = {});

/**
 * Differentiable sum over rows of log softmax(logits_row)[target_row].
 * Used by the DPO calibration objective, where the policy log-probability of
 * a digit sequence is the sum of per-digit class log-probabilities.
 */
TensorPtr sequenceLogProb(const TensorPtr& logits,
                          const std::vector<int>& targets);

/** Mean squared error against a constant target (no grad to target). */
TensorPtr mseLoss(const TensorPtr& pred, const std::vector<float>& target);

} // namespace nn
} // namespace llmulator

#endif // LLMULATOR_NN_OPS_H
