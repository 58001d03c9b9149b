/**
 * @file
 * Table 5 reproduction: LLMulator cycle-prediction latency on the Table-2
 * workloads, without vs with dynamic prediction acceleration
 * (Section 5.3 progressive operator caching + selective masking).
 *
 * Protocol: the session first evaluates the workload on its canonical
 * input (priming the static-prefix cache), then the timed prediction runs
 * on a *different* runtime input — the design-space-exploration pattern
 * the paper accelerates. NoAccel recomputes everything; HasAccel reuses
 * cached Class-I-operator and parameter rows.
 *
 * Expected shape (paper): HasAccel < NoAccel on average (1.23s -> 1.00s).
 */

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "eval/table.h"
#include "harness/harness.h"
#include "model/fast_encoder.h"

using namespace llmulator;
using Clock = std::chrono::steady_clock;

int
main(int argc, char** argv)
{
    bench::parseArgs(argc, argv);
    std::printf("Table 5: cycle-prediction latency (seconds), no "
                "acceleration vs dynamic prediction acceleration\n");

    synth::Dataset ds = harness::defaultDataset(harness::defaultSynthConfig());
    auto ours = harness::trainCostModel(harness::defaultOursConfig(), ds,
                                        harness::defaultTrainConfig(),
                                        "main_ours");
    auto modern = workloads::modern();

    eval::Table t({"Tab. 2-Index", "NoAccel", "HasAccel", "RowsReused"});
    double sum_no = 0, sum_acc = 0;
    for (size_t i = 0; i < modern.size(); ++i) {
        const auto& w = modern[i];
        const dfir::RuntimeData& probe =
            w.variants.empty() ? w.canonicalData : w.variants[0];
        auto ep_prime = ours->encode(w.graph, &w.canonicalData);
        auto ep_probe = ours->encode(w.graph, &probe);

        // Without acceleration: every prediction is a full forward.
        auto t0 = Clock::now();
        for (int rep = 0; rep < 3; ++rep)
            ours->predict(ep_probe, model::Metric::Cycles);
        double no_accel =
            std::chrono::duration<double>(Clock::now() - t0).count() / 3;

        // With acceleration: prime on the canonical input, then the probe
        // input reuses the static prefix.
        model::InferenceSession warm(*ours);
        warm.predict(ep_prime, model::Metric::Cycles);
        long reused_before = warm.stats().rowsReused;
        auto t1 = Clock::now();
        for (int rep = 0; rep < 3; ++rep)
            warm.predict(ep_probe, model::Metric::Cycles);
        double has_accel =
            std::chrono::duration<double>(Clock::now() - t1).count() / 3;
        long reused =
            (warm.stats().rowsReused - reused_before) / 3;

        sum_no += no_accel;
        sum_acc += has_accel;
        t.addRow({std::to_string(i + 1), eval::secs(no_accel),
                  eval::secs(has_accel), std::to_string(reused)});
    }
    t.addRow({"average", eval::secs(sum_no / modern.size()),
              eval::secs(sum_acc / modern.size()), ""});
    t.print();
    std::printf("\n[shape] acceleration speedup: %.2fx (paper: 1.23x "
                "average, 1.23s -> 1.00s)\n",
                sum_no / std::max(1e-12, sum_acc));
    bench::csv("table5", "latency_noaccel_s", sum_no / modern.size());
    bench::csv("table5", "latency_hasaccel_s", sum_acc / modern.size());
    bench::csv("table5", "accel_speedup",
               sum_no / std::max(1e-12, sum_acc));
    return 0;
}
