#include "model/cost_model.h"

#include "model/fast_encoder.h"
#include "nn/ops.h"
#include "util/common.h"

namespace llmulator {
namespace model {

const char*
metricName(Metric m)
{
    switch (m) {
      case Metric::Power: return "Power";
      case Metric::Area: return "Area";
      case Metric::FlipFlops: return "FF";
      case Metric::Cycles: return "Cycles";
    }
    return "?";
}

long
Targets::get(Metric m) const
{
    switch (m) {
      case Metric::Power: return power;
      case Metric::Area: return area;
      case Metric::FlipFlops: return flipFlops;
      case Metric::Cycles: return cycles;
    }
    return 0;
}

CostModelConfig
configForScale(ModelScale scale)
{
    CostModelConfig cfg;
    switch (scale) {
      case ModelScale::Tiny:
        cfg.enc.dim = 24;
        cfg.enc.heads = 2;
        cfg.enc.layers = 1;
        cfg.enc.ffn = 48;
        cfg.head.digitEmbed = 8;
        cfg.head.hidden = 32;
        break;
      case ModelScale::Small:
        cfg.enc.dim = 48;
        cfg.enc.heads = 4;
        cfg.enc.layers = 2;
        cfg.enc.ffn = 128;
        break;
      case ModelScale::Base:
        cfg.enc.dim = 64;
        cfg.enc.heads = 4;
        cfg.enc.layers = 3;
        cfg.enc.ffn = 192;
        cfg.head.hidden = 96;
        break;
    }
    return cfg;
}

CostModel::CostModel(const CostModelConfig& cfg) : cfg_(cfg), tok_(cfg.tok)
{
    cfg_.enc.vocab = tok_.vocabSize();
    util::Rng rng(cfg_.seed);
    encoder_ = std::make_unique<nn::TransformerEncoder>(cfg_.enc, rng);
    for (int m = 0; m < kNumMetrics; ++m)
        heads_[m] =
            std::make_unique<DigitHead>(cfg_.enc.dim, cfg_.head, rng);
}

EncodedProgram
CostModel::encode(const dfir::DataflowGraph& g, const dfir::RuntimeData* data,
                  const std::string& reasoning) const
{
    auto segments = renderSegments(g, data, reasoning);
    return encodeSegments(tok_, segments, cfg_.enc.maxSeq);
}

nn::TensorPtr
CostModel::pooledForward(const EncodedProgram& ep) const
{
    return nn::TransformerEncoder::pooled(
        encoder_->forward(ep.tokens, buildSeparationMask(ep)));
}

NumericPrediction
CostModel::predict(const EncodedProgram& ep, Metric m, int beam_width) const
{
    nn::TensorPtr pooled = InferenceSession(*this).forwardPooledBatch({&ep});
    return heads_[static_cast<int>(m)]->decode(pooled, beam_width);
}

nn::TensorPtr
CostModel::lossForMetric(const EncodedProgram& ep, Metric m,
                         long target) const
{
    nn::TensorPtr pooled = pooledForward(ep);
    return heads_[static_cast<int>(m)]->loss(pooled, target);
}

nn::TensorPtr
CostModel::lossOnSample(const EncodedProgram& ep_static,
                        const EncodedProgram* ep_dynamic,
                        const Targets& targets) const
{
    nn::TensorPtr pooled_static = pooledForward(ep_static);
    nn::TensorPtr loss = heads_[static_cast<int>(Metric::Power)]->loss(
        pooled_static, targets.power);
    loss = nn::add(loss, heads_[static_cast<int>(Metric::Area)]->loss(
                             pooled_static, targets.area));
    loss = nn::add(loss, heads_[static_cast<int>(Metric::FlipFlops)]->loss(
                             pooled_static, targets.flipFlops));
    nn::TensorPtr pooled_cycles =
        ep_dynamic ? pooledForward(*ep_dynamic) : pooled_static;
    loss = nn::add(loss, heads_[static_cast<int>(Metric::Cycles)]->loss(
                             pooled_cycles, targets.cycles));
    return loss;
}

nn::TensorPtr
CostModel::digitLogits(const EncodedProgram& ep, Metric m,
                       const std::vector<int>& digits) const
{
    nn::TensorPtr pooled = pooledForward(ep);
    return heads_[static_cast<int>(m)]->teacherForcedLogits(pooled, digits);
}

std::vector<nn::TensorPtr>
CostModel::parameters() const
{
    std::vector<nn::TensorPtr> out = encoder_->parameters();
    for (int m = 0; m < kNumMetrics; ++m)
        for (const auto& p : heads_[m]->parameters())
            out.push_back(p);
    return out;
}

std::unique_ptr<CostModel>
CostModel::clone() const
{
    auto copy = std::make_unique<CostModel>(cfg_);
    nn::copyParameterValues(*this, *copy);
    copy->version_ = version_;
    return copy;
}

} // namespace model
} // namespace llmulator
