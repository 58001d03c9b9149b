#ifndef LLMULATOR_MODEL_FAST_ENCODER_H
#define LLMULATOR_MODEL_FAST_ENCODER_H

/**
 * @file
 * Dynamic prediction acceleration (paper Section 5.3).
 *
 * InferenceSession is an autograd-free forward path over the trained
 * encoder with a progressive operator cache: when consecutive predictions
 * share the static program prefix {G, Op, Params} and differ only in the
 * runtime data segment, the session reuses the cached per-layer K/V rows
 * and block outputs of *static-reusable* rows (Class I operators and the
 * hardware-parameter segment, which the separation mask of Section 5.2
 * decouples from data) and recomputes only the dynamic rows (graph
 * function, Class II operators, data).
 *
 * As in the paper (Figure 6 and its corner-region discussion), reuse of a
 * cached row's block output ignores multi-hop influence of the changed
 * data through intermediate rows — that is precisely the approximation
 * LLMulator makes to win the Table 5 / Table 9 latency reductions; the
 * accompanying accuracy cost is measured, not assumed, by the benches.
 *
 * The forward's attention blocks are nn::attentionRows (nn/attention.h),
 * which the training op nn::attention also runs: one attention
 * implementation serves inference and training.
 */

#include <cstdint>
#include <vector>

#include "model/cost_model.h"

namespace llmulator {
namespace model {

/** Pre-encoded training views of one sample (see encodeForTraining). */
struct TrainingEncoding
{
    EncodedProgram stat;   //!< static {G, Op, Params} view
    EncodedProgram dyn;    //!< dynamic (+ runtime data) view, if hasDyn
    bool hasDyn = false;
};

/**
 * Encode one sample for training, producing the static encoding and —
 * when runtime data is present — the dynamic encoding from a single
 * segment render + tokenization pass (the two views share every segment
 * except the data tail, so tokenizing them separately does ~2x the
 * work). The result is bitwise identical to two CostModel::encode()
 * calls; the minibatch trainer pre-encodes the whole corpus through
 * this once, then reuses the encodings across every epoch and worker.
 */
TrainingEncoding encodeForTraining(const CostModel& m,
                                   const dfir::DataflowGraph& g,
                                   const dfir::RuntimeData* data,
                                   const std::string& reasoning = "");

/** Latency/accuracy statistics of a session (for the runtime tables). */
struct SessionStats
{
    long fullForwards = 0;   //!< forwards computed without cache reuse
    long cachedForwards = 0; //!< forwards that reused the static prefix
    long rowsComputed = 0;   //!< transformer rows actually evaluated
    long rowsReused = 0;     //!< transformer rows served from cache
};

/**
 * Cached, autograd-free inference over a trained CostModel.
 *
 * Every no-gradient encoder forward in the tree runs here: serving,
 * CostModel::predict (eval, the examples, calibration's predict) and the
 * DPO reference forward. It is one function over the nn::Backend
 * kernels in the autograd graph's op order, so each pooled row equals
 * CostModel::pooledForward bit for bit, on every backend. Prefix reuse
 * is a per-row mask of that same function.
 */
class InferenceSession
{
  public:
    explicit InferenceSession(const CostModel& model);

    /**
     * Predict one metric with prefix reuse: a hit on the static-prefix
     * key activates partial recomputation; a miss runs a full forward
     * and re-primes the cache. A full forward without the cache is
     * CostModel::predict or forwardPooledBatch.
     */
    NumericPrediction predict(const EncodedProgram& ep, Metric m,
                              int beam_width = 3);

    /**
     * Pooled encoder output of predict() as a [1, dim] tensor, ready
     * for DigitHead::decode. Without a cache hit the row equals
     * CostModel::pooledForward(ep) bit for bit.
     */
    nn::TensorPtr pooled(const EncodedProgram& ep);

    /**
     * Batched autograd-free pooled forward: one pass over B encodings,
     * returning pooled rows [B, dim]. Row i equals
     * CostModel::pooledForward(*eps[i]) bit for bit — sequences never
     * interact. The prefix cache is neither consulted nor re-primed
     * (batch traffic has no single "previous" program), so interleaving
     * batched and cached calls is safe. This is every full forward's
     * entry point, the serving workers' included.
     */
    nn::TensorPtr
    forwardPooledBatch(const std::vector<const EncodedProgram*>& eps);

    const SessionStats& stats() const { return stats_; }

  private:
    const CostModel& model_;
    SessionStats stats_;

    // ---- cache of the last static prefix ----
    bool cacheValid_ = false;
    uint64_t cacheKey_ = 0;
    int cacheLen_ = 0; //!< rows covered by the cache (static prefix)
    struct LayerCache
    {
        std::vector<float> k, v;  //!< projected keys/values [len, dim]
        std::vector<float> hout;  //!< block outputs [len, dim]
    };
    std::vector<LayerCache> cacheLayers_;
    std::vector<uint8_t> cacheReusable_; //!< per-row reuse eligibility

    /** Rows + reusability + static length + key for a program. */
    struct Layout
    {
        int n = 0;
        int staticLen = 0;
        uint64_t staticKey = 0;
        bool masked = false;           //!< buildSeparationMask != nullptr
        std::vector<uint8_t> reusable; //!< ClassI-op / Params rows
        std::vector<uint8_t> dataRow;  //!< rows inside the data segment
        std::vector<uint8_t> classIRow;//!< rows inside Class I operators
    };
    Layout computeLayout(const EncodedProgram& ep) const;

    /** Separation-mask predicate (mirrors buildSeparationMask). */
    static bool blocked(const Layout& lay, int i, int j);

    struct Workspace;

    /**
     * The one forward: writes ep's pooled row to `pooled` (dim floats).
     * Rows flagged in `reuse` (empty = none) take their keys, values
     * and block outputs from the cache; all others are recomputed.
     * With `prime`, every row's keys, values and block outputs are
     * stored as the new cache.
     */
    void forwardPooled(const EncodedProgram& ep, const Layout& lay,
                       const std::vector<uint8_t>& reuse, bool prime,
                       Workspace& ws, float* pooled);
};

} // namespace model
} // namespace llmulator

#endif // LLMULATOR_MODEL_FAST_ENCODER_H
