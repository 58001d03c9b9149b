#ifndef LLMULATOR_CALIB_DPO_H
#define LLMULATOR_CALIB_DPO_H

/**
 * @file
 * Dynamic prediction calibration via Direct Preference Optimization
 * (paper Section 5.1).
 *
 * The calibration loop mirrors the paper's six steps (Figure 4):
 *  (1) input selection: the state is {x, data} — an encoded program with
 *      its runtime-data segment;
 *  (2) prediction: the policy decodes y_l = f_theta(x, data);
 *  (3) profiler feedback: the environment (sim::profile, our
 *      SiliconCompiler/Verilator substitute) returns ground truth y_w;
 *  (4) preference pair: ({x, data}, y_w, y_l) enters the replay buffer;
 *  (5) real-profile reward: Equation 2 with the frozen pre-calibration
 *      policy as pi_ref;
 *  (6) DPO update: gradient step on
 *      -log sigmoid(beta * ((log pi(y_w) - log pi(y_l))
 *                          - (log pi_ref(y_w) - log pi_ref(y_l)))).
 *
 * Digit sequences are the action space: log pi(y) is the sum of per-digit
 * class log-probabilities under teacher forcing, so the DPO gradient flows
 * through the same categorical logits used for SFT.
 *
 * ## Ownership
 *
 * A DpoCalibrator OWNS its live policy (a deep clone of the model it was
 * constructed from) as well as the frozen reference. It never mutates the
 * caller's model, so the source model can be retired — or hot-swapped out
 * from under a serving loop — while a calibration round is in flight.
 * takePolicy() releases the calibrated weights (the serving hot-swap
 * hand-off); each round builds a new calibrator.
 */

#include <deque>
#include <memory>
#include <vector>

#include "model/cost_model.h"
#include "nn/optim.h"
#include "util/rng.h"

namespace llmulator {
namespace calib {

/** Preference triplet ({x, data}, y_w, y_l) as digit sequences. */
struct PreferenceTriplet
{
    model::EncodedProgram input;
    std::vector<int> yw; //!< profiler (preferred) digits
    std::vector<int> yl; //!< model (dispreferred) digits
    /**
     * Frozen reference log-ratio log pi_ref(yw) - log pi_ref(yl),
     * computed once when the triplet is created: the reference policy
     * never changes, so recomputing it per replayed minibatch step would
     * waste two encoder forwards (Equation 2's denominator terms).
     */
    float refDiff = 0.f;
};

/**
 * Replay-cost-buffer (paper Section 5.1): sliding window of preference
 * triplets supporting minibatch replay. Capacity 1 degenerates to
 * immediate on-policy updates.
 */
class ReplayBuffer
{
  public:
    explicit ReplayBuffer(size_t capacity);

    void push(PreferenceTriplet t);
    size_t size() const { return buf_.size(); }
    size_t capacity() const { return capacity_; }

    /** Oldest-first access to the retained triplets. */
    const PreferenceTriplet& at(size_t i) const { return buf_[i]; }

    /** Sample up to n triplets (with replacement) for a minibatch. */
    std::vector<const PreferenceTriplet*> sample(util::Rng& rng,
                                                 size_t n) const;

  private:
    size_t capacity_;
    std::deque<PreferenceTriplet> buf_;
};

/**
 * Calibration knobs. The rest of the objective — beta, the supervised
 * anchor's weight, the replay-buffer size and seed — is fixed in
 * dpo.cc, and predictions use the decode's default beam width.
 */
struct DpoConfig
{
    float lr = 1e-3f;         //!< calibration learning rate
    int minibatch = 4;        //!< replayed triplets per observation
};

/**
 * Online DPO calibrator for the Cycles metric. Owns the live policy (a
 * clone of the model it is constructed from), the frozen reference
 * policy (a second clone), and an AdamW optimizer over the live
 * policy's parameters.
 */
class DpoCalibrator
{
  public:
    /**
     * Calibrate a deep clone of `init`. `init` itself is never touched;
     * read the calibrated weights through policy() or release them with
     * takePolicy().
     */
    explicit DpoCalibrator(const model::CostModel& init,
                           const DpoConfig& cfg = {});

    /** Take ownership of `policy` directly (skips one clone). */
    explicit DpoCalibrator(std::unique_ptr<model::CostModel> policy,
                           const DpoConfig& cfg = {});

    /**
     * One calibration iteration: predict, compare to the profiled truth,
     * store the preference triplet, replay a minibatch of DPO updates.
     *
     * @return the absolute error of the *pre-update* prediction relative
     *         to the ground truth, with the denominator floored at one
     *         cycle: |pred - truth| / max(|truth|, 1). For the
     *         true_cycles == 0 edge this degrades gracefully to the
     *         absolute error |pred| (a zero-cycle truth has no relative
     *         scale, so the error stays proportional to how far off the
     *         prediction is instead of a hardcoded sentinel); an exact
     *         prediction always reports 0. Callers trace this for
     *         convergence (Table 3 / Section 1's "converges to within
     *         11.2% after several iterations").
     */
    double observe(const model::EncodedProgram& ep, long true_cycles);

    /** Current prediction for an input. */
    model::NumericPrediction predict(const model::EncodedProgram& ep) const;

    /** The live (calibrated) policy. */
    const model::CostModel& policy() const { return *policy_; }

    /**
     * Release the calibrated policy — the serving hot-swap hand-off.
     * The calibrator holds no policy afterwards, so observe() and
     * predict() must not be called again.
     */
    std::unique_ptr<model::CostModel> takePolicy();

    const model::CostModel& reference() const { return *ref_; }
    const ReplayBuffer& buffer() const { return buffer_; }

  private:
    std::unique_ptr<model::CostModel> policy_;
    std::unique_ptr<model::CostModel> ref_;
    DpoConfig cfg_;
    nn::AdamW opt_;
    ReplayBuffer buffer_;
    util::Rng rng_;

    /** One gradient step on a triplet; returns the DPO loss value. */
    double dpoStep(const PreferenceTriplet& t);
};

} // namespace calib
} // namespace llmulator

#endif // LLMULATOR_CALIB_DPO_H
