#ifndef LLMULATOR_NN_LAYERS_H
#define LLMULATOR_NN_LAYERS_H

/**
 * @file
 * Neural network layers: Linear, Embedding, LayerNorm, multi-head
 * self-attention and a Transformer encoder.
 *
 * The encoder supports an optional additive attention mask, which is how the
 * dynamic control-flow separation of LLMulator (paper Section 5.2) is
 * injected: masked (Class-I-operator x data) interactions receive -inf
 * before the softmax so the attention weight is exactly zero.
 *
 * Every forward() runs one sequence and records the autograd tape that
 * training backpropagates through. Attention is one tape node per
 * layer, nn::attention (attention.h), whose forward is the row-blocked
 * attention of the inference path: one implementation serves both.
 * Forwards that need no gradient do not use these layers:
 * model::InferenceSession makes the same backend calls in the same
 * order without a tape, so its pooled rows equal
 * TransformerEncoder::forward's bit for bit.
 */

#include <memory>
#include <string>
#include <vector>

#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace llmulator {
namespace nn {

/** Base class exposing trainable parameters for optimizers/serialization. */
class Module
{
  public:
    virtual ~Module() = default;

    /** All trainable parameters, in a stable order. */
    virtual std::vector<TensorPtr> parameters() const = 0;

    /** Total scalar parameter count. */
    int64_t parameterCount() const;
};

/**
 * Copy trainable parameter values between two identically-configured
 * modules (the clone() implementations of every learned model;
 * gradients and optimizer state never transfer).
 */
void copyParameterValues(const Module& src, Module& dst);

/** Affine map y = x W + b. */
class Linear : public Module
{
  public:
    /**
     * @param in  input feature width
     * @param out output feature width
     * @param rng initializer stream (Xavier-uniform)
     */
    Linear(int in, int out, util::Rng& rng);

    TensorPtr forward(const TensorPtr& x) const;
    std::vector<TensorPtr> parameters() const override;

    TensorPtr weight; //!< [in, out]
    TensorPtr bias;   //!< [1, out]
};

/** Token embedding table. */
class Embedding : public Module
{
  public:
    Embedding(int vocab, int dim, util::Rng& rng);

    TensorPtr forward(const std::vector<int>& ids) const;
    std::vector<TensorPtr> parameters() const override;

    TensorPtr table; //!< [vocab, dim]
};

/** Learnable per-feature layer normalization. */
class LayerNorm : public Module
{
  public:
    explicit LayerNorm(int dim);

    TensorPtr forward(const TensorPtr& x) const;
    std::vector<TensorPtr> parameters() const override;

    TensorPtr gamma; //!< [1, dim]
    TensorPtr beta;  //!< [1, dim]
};

/**
 * Multi-head scaled-dot-product self-attention:
 * wo(attention(wq(x), wk(x), wv(x), mask)).
 *
 * forward() accepts an optional additive mask [seq, seq] (0 = attend,
 * large-negative = blocked) owned by the caller; the mask carries no
 * gradient.
 */
class MultiHeadSelfAttention : public Module
{
  public:
    MultiHeadSelfAttention(int dim, int heads, util::Rng& rng);

    TensorPtr forward(const TensorPtr& x,
                      const TensorPtr& add_mask = nullptr) const;

    std::vector<TensorPtr> parameters() const override;

    int dim;
    int heads;
    std::unique_ptr<Linear> wq, wk, wv, wo;
};

/** Pre-LN transformer block: x + MHA(LN(x)), then x + FFN(LN(x)). */
class TransformerBlock : public Module
{
  public:
    TransformerBlock(int dim, int heads, int ffn, util::Rng& rng);

    TensorPtr forward(const TensorPtr& x,
                      const TensorPtr& add_mask = nullptr) const;

    std::vector<TensorPtr> parameters() const override;

    std::unique_ptr<LayerNorm> ln1, ln2;
    std::unique_ptr<MultiHeadSelfAttention> attn;
    std::unique_ptr<Linear> ff1, ff2;
};

/** Hyper-parameters of a TransformerEncoder. */
struct EncoderConfig
{
    int vocab = 0;      //!< token vocabulary size
    int dim = 48;       //!< model width
    int heads = 4;      //!< attention heads
    int layers = 2;     //!< transformer blocks
    int ffn = 128;      //!< feed-forward hidden width
    int maxSeq = 192;   //!< maximum sequence length (position table size)
};

/**
 * Transformer encoder over token id sequences.
 *
 * Returns the full hidden-state matrix [seq, dim]; pooled() provides the
 * mean-pooled summary used by regression / digit heads.
 */
class TransformerEncoder : public Module
{
  public:
    TransformerEncoder(const EncoderConfig& cfg, util::Rng& rng);

    /**
     * Full hidden states for a token sequence, truncated to the first
     * cfg.maxSeq ids. add_mask, when given, must be [len, len] for the
     * truncated length.
     */
    TensorPtr forward(const std::vector<int>& ids,
                      const TensorPtr& add_mask = nullptr) const;

    /** Mean-pool hidden states into a [1, dim] summary vector. */
    static TensorPtr pooled(const TensorPtr& hidden);

    std::vector<TensorPtr> parameters() const override;

    EncoderConfig cfg;
    std::unique_ptr<Embedding> tok;
    TensorPtr pos; //!< [maxSeq, dim] learned positions
    std::vector<std::unique_ptr<TransformerBlock>> blocks;
    std::unique_ptr<LayerNorm> lnFinal;
};

/** Multi-layer perceptron with ReLU activations (for baselines/heads). */
class Mlp : public Module
{
  public:
    /** widths = {in, h1, ..., out}. */
    Mlp(const std::vector<int>& widths, util::Rng& rng);

    TensorPtr forward(const TensorPtr& x) const;
    std::vector<TensorPtr> parameters() const override;

    std::vector<std::unique_ptr<Linear>> layers;
};

} // namespace nn
} // namespace llmulator

#endif // LLMULATOR_NN_LAYERS_H
