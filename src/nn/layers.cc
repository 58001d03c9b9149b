#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "nn/attention.h"
#include "util/common.h"

namespace llmulator {
namespace nn {

namespace {

/** Xavier-uniform initialization for a [fan_in, fan_out] weight. */
TensorPtr
xavier(int fan_in, int fan_out, util::Rng& rng)
{
    float limit = std::sqrt(6.0f / (fan_in + fan_out));
    std::vector<float> data(size_t(fan_in) * fan_out);
    for (auto& v : data)
        v = static_cast<float>(rng.uniform(-limit, limit));
    return Tensor::fromData(fan_in, fan_out, std::move(data), true);
}

} // namespace

int64_t
Module::parameterCount() const
{
    int64_t n = 0;
    for (const auto& p : parameters())
        n += p->numel();
    return n;
}

void
copyParameterValues(const Module& src, Module& dst)
{
    auto s = src.parameters();
    auto d = dst.parameters();
    LLM_CHECK(s.size() == d.size(), "clone parameter count mismatch");
    for (size_t i = 0; i < s.size(); ++i) {
        LLM_CHECK(s[i]->value.size() == d[i]->value.size(),
                  "clone shape mismatch at " << i);
        d[i]->value = s[i]->value;
    }
}

Linear::Linear(int in, int out, util::Rng& rng)
{
    weight = xavier(in, out, rng);
    bias = Tensor::zeros(1, out, true);
}

TensorPtr
Linear::forward(const TensorPtr& x) const
{
    return addRow(matmul(x, weight), bias);
}

std::vector<TensorPtr>
Linear::parameters() const
{
    return {weight, bias};
}

Embedding::Embedding(int vocab, int dim, util::Rng& rng)
{
    std::vector<float> data(size_t(vocab) * dim);
    for (auto& v : data)
        v = static_cast<float>(rng.normal(0.0, 0.02));
    table = Tensor::fromData(vocab, dim, std::move(data), true);
}

TensorPtr
Embedding::forward(const std::vector<int>& ids) const
{
    return embedRows(table, ids);
}

std::vector<TensorPtr>
Embedding::parameters() const
{
    return {table};
}

LayerNorm::LayerNorm(int dim)
{
    gamma = Tensor::fromData(1, dim, std::vector<float>(dim, 1.f), true);
    beta = Tensor::zeros(1, dim, true);
}

TensorPtr
LayerNorm::forward(const TensorPtr& x) const
{
    return layerNormRows(x, gamma, beta);
}

std::vector<TensorPtr>
LayerNorm::parameters() const
{
    return {gamma, beta};
}

MultiHeadSelfAttention::MultiHeadSelfAttention(int dim_, int heads_,
                                               util::Rng& rng)
    : dim(dim_), heads(heads_)
{
    LLM_CHECK(dim % heads == 0, "dim " << dim << " not divisible by heads");
    wq = std::make_unique<Linear>(dim, dim, rng);
    wk = std::make_unique<Linear>(dim, dim, rng);
    wv = std::make_unique<Linear>(dim, dim, rng);
    wo = std::make_unique<Linear>(dim, dim, rng);
}

TensorPtr
MultiHeadSelfAttention::forward(const TensorPtr& x,
                                const TensorPtr& add_mask) const
{
    LLM_CHECK(x->cols == dim,
              "attention input width " << x->cols << " != " << dim);
    TensorPtr q = wq->forward(x);
    TensorPtr k = wk->forward(x);
    TensorPtr v = wv->forward(x);
    return wo->forward(attention(q, k, v, add_mask, heads));
}

std::vector<TensorPtr>
MultiHeadSelfAttention::parameters() const
{
    std::vector<TensorPtr> out;
    for (const Linear* l : {wq.get(), wk.get(), wv.get(), wo.get()})
        for (const auto& p : l->parameters())
            out.push_back(p);
    return out;
}

TransformerBlock::TransformerBlock(int dim, int heads, int ffn,
                                   util::Rng& rng)
{
    ln1 = std::make_unique<LayerNorm>(dim);
    ln2 = std::make_unique<LayerNorm>(dim);
    attn = std::make_unique<MultiHeadSelfAttention>(dim, heads, rng);
    ff1 = std::make_unique<Linear>(dim, ffn, rng);
    ff2 = std::make_unique<Linear>(ffn, dim, rng);
}

TensorPtr
TransformerBlock::forward(const TensorPtr& x, const TensorPtr& add_mask) const
{
    TensorPtr h = add(x, attn->forward(ln1->forward(x), add_mask));
    TensorPtr f = ff2->forward(gelu(ff1->forward(ln2->forward(h))));
    return add(h, f);
}

std::vector<TensorPtr>
TransformerBlock::parameters() const
{
    std::vector<TensorPtr> out;
    for (const Module* m :
         {static_cast<const Module*>(ln1.get()),
          static_cast<const Module*>(ln2.get()),
          static_cast<const Module*>(attn.get()),
          static_cast<const Module*>(ff1.get()),
          static_cast<const Module*>(ff2.get())}) {
        for (const auto& p : m->parameters())
            out.push_back(p);
    }
    return out;
}

TransformerEncoder::TransformerEncoder(const EncoderConfig& cfg_,
                                       util::Rng& rng)
    : cfg(cfg_)
{
    LLM_CHECK(cfg.vocab > 0, "encoder needs a vocabulary size");
    tok = std::make_unique<Embedding>(cfg.vocab, cfg.dim, rng);
    std::vector<float> pdata(size_t(cfg.maxSeq) * cfg.dim);
    for (auto& v : pdata)
        v = static_cast<float>(rng.normal(0.0, 0.02));
    pos = Tensor::fromData(cfg.maxSeq, cfg.dim, std::move(pdata), true);
    for (int i = 0; i < cfg.layers; ++i)
        blocks.push_back(std::make_unique<TransformerBlock>(
            cfg.dim, cfg.heads, cfg.ffn, rng));
    lnFinal = std::make_unique<LayerNorm>(cfg.dim);
}

TensorPtr
TransformerEncoder::forward(const std::vector<int>& ids,
                            const TensorPtr& add_mask) const
{
    const int len = std::min<int>(static_cast<int>(ids.size()), cfg.maxSeq);
    LLM_CHECK(len > 0, "empty token sequence");
    LLM_CHECK(!add_mask || (add_mask->rows == len && add_mask->cols == len),
              "attention mask " << add_mask->rows << "x" << add_mask->cols
                                << " != len " << len);

    const std::vector<int> trimmed(ids.begin(), ids.begin() + len);
    TensorPtr x = tok->forward(trimmed);
    std::vector<int> pos_ids(len);
    for (int i = 0; i < len; ++i)
        pos_ids[i] = i;
    x = add(x, embedRows(pos, pos_ids));

    for (const auto& blk : blocks)
        x = blk->forward(x, add_mask);
    return lnFinal->forward(x);
}

TensorPtr
TransformerEncoder::pooled(const TensorPtr& hidden)
{
    return meanRows(hidden);
}

std::vector<TensorPtr>
TransformerEncoder::parameters() const
{
    std::vector<TensorPtr> out = tok->parameters();
    out.push_back(pos);
    for (const auto& b : blocks)
        for (const auto& p : b->parameters())
            out.push_back(p);
    for (const auto& p : lnFinal->parameters())
        out.push_back(p);
    return out;
}

Mlp::Mlp(const std::vector<int>& widths, util::Rng& rng)
{
    LLM_CHECK(widths.size() >= 2, "Mlp needs at least in/out widths");
    for (size_t i = 0; i + 1 < widths.size(); ++i)
        layers.push_back(
            std::make_unique<Linear>(widths[i], widths[i + 1], rng));
}

TensorPtr
Mlp::forward(const TensorPtr& x) const
{
    TensorPtr h = x;
    for (size_t i = 0; i < layers.size(); ++i) {
        h = layers[i]->forward(h);
        if (i + 1 < layers.size())
            h = relu(h);
    }
    return h;
}

std::vector<TensorPtr>
Mlp::parameters() const
{
    std::vector<TensorPtr> out;
    for (const auto& l : layers)
        for (const auto& p : l->parameters())
            out.push_back(p);
    return out;
}

} // namespace nn
} // namespace llmulator
