#ifndef LLMULATOR_MODEL_COST_MODEL_H
#define LLMULATOR_MODEL_COST_MODEL_H

/**
 * @file
 * The LLMulator cost model (paper Sections 3-4): a transformer encoder over
 * progressive-tokenized program text with one digit-wise categorical head
 * per performance metric <Power, Area, FlipFlops, Cycles>.
 *
 * Static metrics are predicted from {G, Op, Params}; the dynamic metric
 * (cycles) additionally consumes the runtime data segment, with the
 * control-flow separation mask (Section 5.2) blocking Class-I-operator x
 * data attention.
 */

#include <memory>
#include <string>

#include "dfir/ir.h"
#include "model/input.h"
#include "model/numeric_head.h"
#include "nn/layers.h"
#include "tokenizer/tokenizer.h"

namespace llmulator {
namespace model {

/** Prediction targets (paper Section 3 output vector). */
enum class Metric { Power = 0, Area = 1, FlipFlops = 2, Cycles = 3 };
constexpr int kNumMetrics = 4;

/** Short metric name for tables. */
const char* metricName(Metric m);

/** Ground-truth label vector for one (program, input) pair. */
struct Targets
{
    long power = 0;     //!< uW, rounded
    long area = 0;      //!< um^2, rounded
    long flipFlops = 0;
    long cycles = 0;

    long get(Metric m) const;
};

/** Full model configuration. */
struct CostModelConfig
{
    tokenizer::TokenizerConfig tok;
    nn::EncoderConfig enc;   //!< enc.vocab is overwritten from the tokenizer
    NumericHeadConfig head;
    uint64_t seed = 42;
};

/** Named model scales standing in for the paper's 0.5B/1B/8B sweep. */
enum class ModelScale { Tiny, Small, Base };

/** Preset configuration for a scale. */
CostModelConfig configForScale(ModelScale scale);

/** LLMulator: encoder + four numeric heads. */
class CostModel : public nn::Module
{
  public:
    explicit CostModel(const CostModelConfig& cfg);

    /** Tokenize a program (static when data == nullptr). */
    EncodedProgram encode(const dfir::DataflowGraph& g,
                          const dfir::RuntimeData* data = nullptr,
                          const std::string& reasoning = "") const;

    /**
     * Encoder forward + mean pooling under the Section 5.2 separation
     * mask: the autograd graph that training and DPO policy steps
     * backpropagate through, one sequence at a time. Every forward that
     * needs no gradient runs InferenceSession's autograd-free forward
     * instead, which equals this one bit for bit.
     */
    nn::TensorPtr pooledForward(const EncodedProgram& ep) const;

    /**
     * Beam-search numeric prediction for one metric, on the
     * autograd-free forward: equals head(m).decode(pooledForward(ep)).
     */
    NumericPrediction predict(const EncodedProgram& ep, Metric m,
                              int beam_width = 3) const;

    /** Cross-entropy training loss for one metric/label. */
    nn::TensorPtr lossForMetric(const EncodedProgram& ep, Metric m,
                                long target) const;

    /**
     * Combined SFT loss over all metrics for one sample, sharing encoder
     * forwards: static metrics come from ep_static; cycles come from
     * ep_dynamic when present (input-adaptive training) else ep_static.
     */
    nn::TensorPtr lossOnSample(const EncodedProgram& ep_static,
                               const EncodedProgram* ep_dynamic,
                               const Targets& targets) const;

    /**
     * Teacher-forced digit logits for a metric (rows = digit positions).
     * The DPO calibrator derives policy log-probabilities from these.
     */
    nn::TensorPtr digitLogits(const EncodedProgram& ep, Metric m,
                              const std::vector<int>& digits) const;

    std::vector<nn::TensorPtr> parameters() const override;

    /** Deep copy (same config, copied weights) — the DPO reference policy. */
    std::unique_ptr<CostModel> clone() const;

    const CostModelConfig& config() const { return cfg_; }
    const tokenizer::Tokenizer& tok() const { return tok_; }

    /**
     * Monotonic weight-generation stamp. The serving layer bumps this on
     * every calibration hot-swap and keys its result cache on it, so a
     * cached prediction can never be served across a weight change.
     * 0 = as-constructed weights; clone() copies the stamp.
     */
    uint64_t version() const { return version_; }
    void setVersion(uint64_t v) { version_ = v; }

    /** Encoder access for the cached fast-inference path. */
    const nn::TransformerEncoder& encoder() const { return *encoder_; }

    /** Digit-head access for the cached fast-inference path. */
    const DigitHead& head(Metric m) const
    {
        return *heads_[static_cast<int>(m)];
    }

  private:
    CostModelConfig cfg_;
    uint64_t version_ = 0;
    tokenizer::Tokenizer tok_;
    std::unique_ptr<nn::TransformerEncoder> encoder_;
    std::unique_ptr<DigitHead> heads_[kNumMetrics];
};

} // namespace model
} // namespace llmulator

#endif // LLMULATOR_MODEL_COST_MODEL_H
