#include "serve/calibration.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "sim/profiler.h"
#include "util/common.h"

namespace llmulator {
namespace serve {

namespace {

//! Profiled samples kept as the calibration window.
constexpr size_t kReplayCapacity = 32;
//! Kept shadow samples waiting for the profiler; more are dropped.
constexpr size_t kShadowQueueCapacity = 64;

/** Clamp degenerate knobs so the manager's invariants hold. */
CalibrationConfig
normalized(CalibrationConfig cfg)
{
    cfg.shadowFraction = std::min(1.0, std::max(0.0, cfg.shadowFraction));
    cfg.calibSteps = std::max(1, cfg.calibSteps);
    cfg.minRoundSamples = std::max<size_t>(1, cfg.minRoundSamples);
    return cfg;
}

} // namespace

CalibrationManager::CalibrationManager(const CalibrationConfig& cfg,
                                       SnapshotFn snapshot, SwapFn swap,
                                       obs::Registry& telemetry)
    : cfg_(normalized(cfg)), snapshot_(std::move(snapshot)),
      swap_(std::move(swap)),
      shadowSampled_(telemetry.counter("calib.shadow_samples")),
      profiled_(telemetry.counter("calib.profiled")),
      dropped_(telemetry.counter("calib.dropped")),
      rounds_(telemetry.counter("calib.rounds")),
      driftScore_(telemetry.gauge("calib.drift_score")),
      meanAbsResidual_(telemetry.gauge("calib.mean_abs_residual")),
      residualAbs_(telemetry.histogram("calib.residual")),
      detector_(cfg_.drift)
{
    LLM_CHECK(snapshot_ != nullptr, "CalibrationManager needs a snapshot fn");
    LLM_CHECK(swap_ != nullptr, "CalibrationManager needs a swap fn");
}

CalibrationManager::~CalibrationManager()
{
    stop();
}

void
CalibrationManager::start()
{
    if (started_)
        return;
    started_ = true;
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopRequested_ = false;
    }
    thread_ = std::thread([this] { loop(); });
}

void
CalibrationManager::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopRequested_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    started_ = false;
}

void
CalibrationManager::offer(const dfir::DataflowGraph& g,
                          const dfir::RuntimeData& data, long predicted_cycles)
{
    if (cfg_.shadowFraction <= 0.0)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    // Deterministic floor-crossing sampler: keep the k-th offer whenever
    // the running fraction accumulator crosses 1. A fixed request stream
    // therefore shadows a fixed, reproducible subset.
    sampleAccum_ += cfg_.shadowFraction;
    if (sampleAccum_ < 1.0)
        return;
    sampleAccum_ -= 1.0;
    shadowSampled_.add(1);
    if (pending_.size() >= kShadowQueueCapacity) {
        // Shadow profiling must never backpressure serving: drop.
        dropped_.add(1);
        return;
    }
    pending_.push_back(Sample{g, data, predicted_cycles});
    cv_.notify_one();
}

void
CalibrationManager::loop()
{
    for (;;) {
        Sample s;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk,
                     [this] { return stopRequested_ || !pending_.empty(); });
            if (stopRequested_)
                return; // pending shadow samples are best-effort
            s = std::move(pending_.front());
            pending_.pop_front();
        }
        profileOne(std::move(s));
    }
}

void
CalibrationManager::profileOne(Sample s)
{
    // Ground truth from the cycle-accurate simulator — the expensive
    // step, deliberately outside every lock.
    sim::Profile prof = sim::profile(s.graph, s.data);
    const long truth = prof.cycles;
    const double residual =
        (double(s.predicted) - double(truth)) /
        std::max(std::fabs(double(truth)), 1.0);

    profiled_.add(1);
    residualAbs_.record(std::fabs(residual));

    bool fire = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        detector_.add(residual);
        driftScore_.set(detector_.score());
        meanAbsResidual_.set(detector_.meanAbsResidual());
        replay_.push_back(Labeled{std::move(s.graph), std::move(s.data),
                                  truth});
        while (replay_.size() > kReplayCapacity)
            replay_.pop_front();
        fire = detector_.drifted() && replay_.size() >= cfg_.minRoundSamples;
    }
    if (fire)
        calibrationRound();
}

bool
CalibrationManager::calibrationRound()
{
    OBS_SPAN("calib.round");

    std::vector<Labeled> window;
    {
        std::lock_guard<std::mutex> lk(mu_);
        window.assign(replay_.begin(), replay_.end());
    }
    if (window.empty())
        return false;

    // Clone the served snapshot and calibrate the clone: the serving
    // copy is immutable and stays live for in-flight requests.
    std::shared_ptr<const model::CostModel> snap = snapshot_();
    calib::DpoCalibrator calibrator(snap->clone(), cfg_.dpo);

    // Encode each window sample once; observe() re-uses the encodings.
    std::vector<model::EncodedProgram> eps;
    eps.reserve(window.size());
    for (const Labeled& l : window)
        eps.push_back(calibrator.policy().encode(l.graph, &l.data));

    for (int step = 0; step < cfg_.calibSteps; ++step) {
        const size_t i = size_t(step) % window.size();
        calibrator.observe(eps[i], window[i].truth);
    }

    swap_(calibrator.takePolicy());
    rounds_.add(1);

    {
        // Re-baseline: residuals of the new weights are a new process,
        // and both gauges follow the reset detector.
        std::lock_guard<std::mutex> lk(mu_);
        detector_.reset();
        driftScore_.set(detector_.score());
        meanAbsResidual_.set(detector_.meanAbsResidual());
    }
    return true;
}

bool
CalibrationManager::runRoundNow()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (replay_.empty())
            return false;
    }
    return calibrationRound();
}

CalibrationStats
CalibrationManager::stats() const
{
    CalibrationStats s;
    s.shadowSampled = shadowSampled_.total();
    s.profiled = profiled_.total();
    s.dropped = dropped_.total();
    s.rounds = rounds_.total();
    std::lock_guard<std::mutex> lk(mu_);
    s.driftScore = detector_.score();
    s.meanAbsResidual = detector_.meanAbsResidual();
    return s;
}

} // namespace serve
} // namespace llmulator
