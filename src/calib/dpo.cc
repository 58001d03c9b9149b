#include "calib/dpo.h"

#include <algorithm>
#include <cmath>

#include "model/fast_encoder.h"
#include "nn/ops.h"
#include "util/common.h"

namespace llmulator {
namespace calib {

namespace {

//! Equation 2's reward sensitivity.
constexpr float kBeta = 0.5f;
/**
 * Weight of the supervised anchor term on y_w (cross-entropy toward the
 * profiled digits) mixed into the DPO objective. Pure DPO only moves
 * *relative* preference and can destabilize small policies; the anchor
 * keeps updates pointed at the profiler's answer.
 */
constexpr float kSftWeight = 0.5f;
//! Replay-buffer window, in preference triplets.
constexpr size_t kBufferCapacity = 16;
//! Seed of the minibatch replay sampler.
constexpr uint64_t kReplaySeed = 1234;

} // namespace

ReplayBuffer::ReplayBuffer(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

void
ReplayBuffer::push(PreferenceTriplet t)
{
    buf_.push_back(std::move(t));
    while (buf_.size() > capacity_)
        buf_.pop_front();
}

std::vector<const PreferenceTriplet*>
ReplayBuffer::sample(util::Rng& rng, size_t n) const
{
    std::vector<const PreferenceTriplet*> out;
    if (buf_.empty())
        return out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(&buf_[rng.index(buf_.size())]);
    return out;
}

DpoCalibrator::DpoCalibrator(const model::CostModel& init,
                             const DpoConfig& cfg)
    : DpoCalibrator(init.clone(), cfg)
{
}

DpoCalibrator::DpoCalibrator(std::unique_ptr<model::CostModel> policy,
                             const DpoConfig& cfg)
    : policy_(std::move(policy)), ref_(policy_->clone()), cfg_(cfg),
      opt_(policy_->parameters(),
           nn::AdamWConfig{cfg.lr, 0.9f, 0.999f, 1e-8f, 0.f, 1.0f}),
      buffer_(kBufferCapacity), rng_(kReplaySeed)
{
}

std::unique_ptr<model::CostModel>
DpoCalibrator::takePolicy()
{
    return std::move(policy_);
}

model::NumericPrediction
DpoCalibrator::predict(const model::EncodedProgram& ep) const
{
    LLM_CHECK(policy_ != nullptr, "calibrator has no policy (taken)");
    return policy_->predict(ep, model::Metric::Cycles);
}

double
DpoCalibrator::dpoStep(const PreferenceTriplet& t)
{
    using model::Metric;
    if (t.yw == t.yl)
        return 0.0; // identical sequences carry no preference signal

    float ref_diff = t.refDiff; // precomputed at triplet creation

    // Policy log-probabilities (with gradient). One encoder forward is
    // shared between the two sequences.
    nn::TensorPtr pooled = policy_->pooledForward(t.input);
    const model::DigitHead& head = policy_->head(Metric::Cycles);
    auto logits_w = head.teacherForcedLogits(pooled, t.yw);
    auto lw = nn::sequenceLogProb(logits_w, t.yw);
    auto ll = nn::sequenceLogProb(head.teacherForcedLogits(pooled, t.yl),
                                  t.yl);

    // z = (log pi(yw) - log pi(yl)) - (log ref(yw) - log ref(yl));
    // loss = -log sigmoid(beta z) = softplus(-beta z),
    // plus the supervised anchor on the profiled digits.
    auto z = nn::add(nn::sub(lw, ll), nn::Tensor::scalar(-ref_diff));
    auto loss = nn::softplus(nn::scale(z, -kBeta));
    loss = nn::add(loss, nn::scale(nn::crossEntropyLogits(logits_w, t.yw),
                                   kSftWeight));

    opt_.zeroGrad();
    loss->backward();
    opt_.step();
    return loss->value[0];
}

double
DpoCalibrator::observe(const model::EncodedProgram& ep, long true_cycles)
{
    using model::Metric;
    LLM_CHECK(policy_ != nullptr, "calibrator has no policy (taken)");
    model::NumericPrediction pred = predict(ep);
    // Absolute percentage error with the denominator floored at one
    // cycle (see the header contract): a zero-cycle truth reports the
    // absolute error |pred| instead of a magnitude-blind constant.
    double err = std::fabs(double(pred.value) - double(true_cycles)) /
                 std::max(std::fabs(double(true_cycles)), 1.0);

    const auto& head_cfg = policy_->head(Metric::Cycles).cfg;
    PreferenceTriplet t;
    t.input = ep;
    t.yw = model::toDigits(true_cycles, head_cfg.base, head_cfg.width);
    t.yl = pred.digits;
    if (t.yw != t.yl) {
        // One reference forward shared by both sequences; the reference
        // takes no gradient, so it runs the autograd-free forward.
        nn::TensorPtr ref_pooled =
            model::InferenceSession(*ref_).forwardPooledBatch({&t.input});
        const model::DigitHead& ref_head = ref_->head(Metric::Cycles);
        auto ref_lw = nn::sequenceLogProb(
            ref_head.teacherForcedLogits(ref_pooled, t.yw), t.yw);
        auto ref_ll = nn::sequenceLogProb(
            ref_head.teacherForcedLogits(ref_pooled, t.yl), t.yl);
        t.refDiff = ref_lw->value[0] - ref_ll->value[0];
    }
    buffer_.push(std::move(t));

    auto batch = buffer_.sample(rng_, static_cast<size_t>(cfg_.minibatch));
    for (const auto* triplet : batch)
        dpoStep(*triplet);
    return err;
}

} // namespace calib
} // namespace llmulator
