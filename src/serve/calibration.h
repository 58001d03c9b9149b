#ifndef LLMULATOR_SERVE_CALIBRATION_H
#define LLMULATOR_SERVE_CALIBRATION_H

/**
 * @file
 * Live calibration for the serving loop (paper Section 5.1 running
 * *online*, closing the ROADMAP "live dynamic calibration" item).
 *
 * A CalibrationManager owns one background thread and three stages:
 *
 *  1. Shadow stream. The server offers every answered Cycles request
 *     (graph, runtime data, predicted cycles) to offer(), which keeps a
 *     deterministic `shadowFraction` of them in a bounded pending queue
 *     (overflow drops the sample — shadow work must never backpressure
 *     the serving path). The background thread replays each kept sample
 *     through the cycle-accurate simulator (sim::profile — our
 *     profiler-in-the-loop stand-in) and records the signed relative
 *     residual r = (pred - truth) / max(|truth|, 1).
 *
 *  2. Drift detection. Residuals feed a calib::DriftDetector (two-sided
 *     CUSUM + optional rolling mean-|r| backstop; see calib/drift.h).
 *     Profiled samples also land in a bounded replay window of
 *     (graph, data, truth) triples — the calibration set.
 *
 *  3. Calibration + hand-off. When the detector fires (and the window
 *     holds at least `minRoundSamples`), the thread snapshots the live
 *     model, clones it, runs `calibSteps` DPO observe() iterations over
 *     the window (calib::DpoCalibrator — never touching the serving
 *     copy), then hands the calibrated clone to the server's swap
 *     callback. The server publishes it RCU-style under a new version;
 *     in-flight requests keep their snapshot until they finish. The
 *     detector resets so the next round re-baselines against the new
 *     weights.
 *
 * Threading: offer() is called from worker threads (cheap: one mutex,
 * one deque push). Profiling and DPO run only on the manager's own
 * thread. The manager never touches the model the server is using —
 * it only reads an immutable snapshot and hands back a fresh clone.
 *
 * Telemetry (into the server's registry): counters
 * calib.shadow_samples / calib.profiled / calib.dropped / calib.rounds,
 * gauges calib.drift_score / calib.mean_abs_residual, histogram
 * calib.residual (|r|), span calib.round per calibration round.
 */

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "calib/dpo.h"
#include "calib/drift.h"
#include "dfir/ir.h"
#include "model/cost_model.h"
#include "obs/metrics.h"

namespace llmulator {
namespace serve {

/** Live-calibration knobs (ServeConfig::calibration). */
struct CalibrationConfig
{
    bool enabled = false; //!< default off: serving stays bit-identical
    //! Fraction of answered Cycles requests shadow-profiled; sampled
    //! deterministically (every 1/fraction-th offer), not randomly, so
    //! a fixed request stream always profiles the same samples.
    double shadowFraction = 0.25;
    calib::DriftConfig drift;
    int calibSteps = 24;          //!< DPO observe() calls per round
    size_t minRoundSamples = 4;   //!< window size required to run a round
    calib::DpoConfig dpo;
};

/**
 * Point-in-time calibration view: the counters are the `calib.*`
 * registry totals, the drift figures come from the detector.
 */
struct CalibrationStats
{
    uint64_t shadowSampled = 0; //!< offers kept by the sampler
    uint64_t profiled = 0;      //!< samples actually simulated
    uint64_t dropped = 0;       //!< kept samples lost to queue overflow
    uint64_t rounds = 0;        //!< calibration rounds completed
    double driftScore = 0;      //!< current CUSUM statistic
    double meanAbsResidual = 0; //!< rolling mean |residual|
};

/** Background shadow-profile / drift-detect / calibrate pipeline. */
class CalibrationManager
{
  public:
    /** Immutable view of the currently-served model. */
    using SnapshotFn = std::function<std::shared_ptr<const model::CostModel>()>;
    /** Hand a calibrated clone to the server (the hot-swap). */
    using SwapFn = std::function<void(std::unique_ptr<model::CostModel>)>;

    CalibrationManager(const CalibrationConfig& cfg, SnapshotFn snapshot,
                       SwapFn swap, obs::Registry& telemetry);
    ~CalibrationManager();

    CalibrationManager(const CalibrationManager&) = delete;
    CalibrationManager& operator=(const CalibrationManager&) = delete;

    void start();
    /** Drain nothing, just stop: pending shadow samples are discarded. */
    void stop();

    /**
     * Offer one answered Cycles request for shadow profiling. Cheap and
     * non-blocking; called from serving workers after fulfilment.
     */
    void offer(const dfir::DataflowGraph& g, const dfir::RuntimeData& data,
               long predicted_cycles);

    /**
     * Run one calibration round synchronously on the caller's thread
     * (ignoring the drift detector), if the replay window has at least
     * one sample. Returns whether a round ran. Benches and tests use
     * this to measure swap cost without waiting for drift to trip.
     */
    bool runRoundNow();

    CalibrationStats stats() const;

  private:
    struct Sample
    {
        dfir::DataflowGraph graph;
        dfir::RuntimeData data;
        long predicted = 0;
    };
    struct Labeled
    {
        dfir::DataflowGraph graph;
        dfir::RuntimeData data;
        long truth = 0;
    };

    void loop();
    void profileOne(Sample s);
    bool calibrationRound();

    CalibrationConfig cfg_;
    SnapshotFn snapshot_;
    SwapFn swap_;

    obs::Counter& shadowSampled_;
    obs::Counter& profiled_;
    obs::Counter& dropped_;
    obs::Counter& rounds_;
    obs::Gauge& driftScore_;
    obs::Gauge& meanAbsResidual_;
    obs::Histogram& residualAbs_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Sample> pending_;
    double sampleAccum_ = 0; //!< deterministic fraction sampler state
    bool stopRequested_ = false;

    //! Profiled (graph, data, truth) window and drift detector; both
    //! guarded by mu_ because runRoundNow()/stats() read them from
    //! foreign threads (detector updates happen only on the manager
    //! thread, but the statistics are polled by stats()).
    std::deque<Labeled> replay_;
    calib::DriftDetector detector_;

    std::thread thread_;
    bool started_ = false;
};

} // namespace serve
} // namespace llmulator

#endif // LLMULATOR_SERVE_CALIBRATION_H
