/**
 * @file
 * Input-adaptive dynamic calibration (paper Section 5): a sliding-window
 * operator whose control flow depends on the input tensor size and
 * values. The static model mispredicts as the input distribution shifts;
 * the DPO calibration loop tracks the profiler and converges.
 *
 * Part 2 runs the same loop *live*: a calibration-enabled
 * PredictionServer watches its own traffic drift, shadow-profiles a
 * sample of answers, and hot-swaps in a recalibrated model with the
 * serving loop still running.
 *
 *   ./input_adaptive_calibration
 */

#include <chrono>
#include <cstdio>
#include <thread>

#include "calib/dpo.h"
#include "dfir/builder.h"
#include "harness/harness.h"
#include "serve/server.h"
#include "sim/profiler.h"
#include "synth/generators.h"

using namespace llmulator;
using namespace llmulator::dfir;

int
main()
{
    // The paper's Challenge-2 example: loop bounds driven by the input
    // tensor size [H, W], with a value-dependent branch inside.
    Operator window;
    window.name = "sliding_window";
    window.scalarParams = {"H", "W"};
    window.tensors = {tensor("img", {p("H"), p("W")}),
                      tensor("out", {p("H"), p("W")})};
    auto inner = ifStmt(
        bgt(a("img", {v("i"), v("j")}), c(0)),
        {assign("out", {v("i"), v("j")},
                bmul(a("img", {v("i"), v("j")}),
                     a("img", {v("i"), v("j")})))},
        {assign("out", {v("i"), v("j")}, c(0))});
    window.body = {forLoop("i", c(0), p("H"),
                           {forLoop("j", c(0), p("W"), {inner})})};

    DataflowGraph graph;
    graph.name = "window_app";
    graph.ops = {window};
    graph.calls = {{"sliding_window"}};

    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    std::printf("== loading static LLMulator model ==\n");
    synth::Dataset ds =
        harness::defaultDataset(harness::defaultSynthConfig());
    auto model = harness::trainCostModel(harness::defaultOursConfig(), ds,
                                         harness::defaultTrainConfig(),
                                         "main_ours");

    // Online calibration: each step the deployment produces a new input,
    // the profiler (Verilator stand-in) reports real cycles, and DPO
    // nudges the policy (paper Figure 4).
    calib::DpoConfig dcfg;
    dcfg.lr = 2e-3f;
    calib::DpoCalibrator calibrator(*model, dcfg);

    util::Rng rng(7);
    int iters = harness::smokeMode() ? 5 : 14;
    std::printf("\n iter    H    W    truth     pred    abs%%err\n");
    for (int iter = 0; iter < iters; ++iter) {
        // Shift the input distribution over time (growing images).
        long scale = 12 + 2 * iter;
        RuntimeData data = synth::generateRuntimeData(graph, rng, scale);
        long truth = sim::profile(graph, data).cycles;
        auto ep = model->encode(graph, &data);
        auto before = calibrator.predict(ep);
        double err = calibrator.observe(ep, truth);
        std::printf("%5d %4ld %4ld %8ld %8ld   %6.1f%%\n", iter,
                    data.scalars["H"], data.scalars["W"], truth,
                    before.value, err * 100);
    }
    std::printf("\nThe error trend should fall as calibration absorbs the "
                "profile feedback\n(paper: converges to within ~11%% "
                "after several iterations).\n");

    // Part 2 — the same feedback loop, but live inside the serving
    // runtime: the server shadow-profiles answered requests, a drift
    // detector watches the residuals, and a background thread DPO-
    // calibrates a clone and hot-swaps it in (RCU: in-flight requests
    // finish on their snapshot; the result cache is version-keyed).
    std::printf("\n== live calibration in the serving loop ==\n");
    serve::ServeConfig scfg;
    scfg.workers = 2;
    scfg.cacheCapacity = 0; // every answer computed => shadow-profiled
    scfg.calibration.enabled = true;
    scfg.calibration.shadowFraction = 1.0;
    scfg.calibration.calibSteps = harness::smokeMode() ? 6 : 16;
    scfg.calibration.minRoundSamples = 2;
    scfg.calibration.drift.baselineSamples = 3;
    // A deliberately touchy trigger so the demo always shows a swap.
    scfg.calibration.drift.meanAbsThreshold = 0.05;
    scfg.calibration.dpo.lr = 2e-3f;
    serve::PredictionServer server(model->clone(), scfg);

    int liveIters = harness::smokeMode() ? 10 : 24;
    for (int iter = 0; iter < liveIters; ++iter) {
        long scale = 12 + 2 * iter; // the distribution keeps drifting
        RuntimeData data = synth::generateRuntimeData(graph, rng, scale);
        server.predict(graph, &data, model::Metric::Cycles);
    }
    // The shadow/profile/calibrate pipeline is asynchronous: give it a
    // beat to drain, then force one round if drift never tripped so the
    // demo always exercises the swap path.
    for (int i = 0; i < 100 && server.stats().shadowProfiled <
                                   uint64_t(liveIters) / 2;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (server.stats().calibSwaps == 0)
        server.forceCalibrationRound();

    auto st = server.stats();
    std::printf("served=%llu shadow_profiled=%llu swaps=%llu "
                "model_version=%llu\nmean |residual| over the window: "
                "%.3f\n",
                (unsigned long long)st.completed,
                (unsigned long long)st.shadowProfiled,
                (unsigned long long)st.calibSwaps,
                (unsigned long long)st.modelVersion, st.meanAbsResidual);
    std::printf("The swap happened with clients still being answered: "
                "every request was\nserved by exactly one model version, "
                "and stale cache entries died with\ntheir version.\n");
    server.stop();
    return 0;
}
