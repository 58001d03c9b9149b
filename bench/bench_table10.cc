/**
 * @file
 * Table 10 reproduction: cycles MAPE at different base-model scales.
 * The paper sweeps Qwen2.5-0.5B / LLaMA-3.2-1B / LLaMA-3.1-8B; this repo
 * sweeps the Tiny / Small / Base presets (README "Benches") under
 * identical training data and schedule.
 *
 * Expected shape (paper): larger models give lower average MAPE
 * (22.9% / 16.4% / 15.3% there).
 */

#include <cstdio>

#include "bench_common.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "harness/harness.h"

using namespace llmulator;
using model::Metric;
using model::ModelScale;

int
main(int argc, char** argv)
{
    bench::parseArgs(argc, argv);
    std::printf("Table 10: cycles MAPE vs base model scale on Table-2 "
                "workloads\n");

    synth::Dataset ds = harness::defaultDataset(harness::defaultSynthConfig());
    harness::TrainConfig tcfg = harness::defaultTrainConfig();

    struct Row
    {
        const char* name;
        ModelScale scale;
        const char* tag;
    };
    std::vector<Row> rows = {{"Tiny (0.5B-class)", ModelScale::Tiny,
                              "t10_tiny"},
                             {"Small (1B-class)", ModelScale::Small,
                              "t10_small"},
                             {"Base (8B-class)", ModelScale::Base,
                              "t10_base"}};

    auto modern = workloads::modern();
    eval::Table t({"Scale", "Params", "avg cycles MAPE"});
    std::vector<double> avgs;
    for (const auto& row : rows) {
        model::CostModelConfig cfg = model::configForScale(row.scale);
        cfg.enc.maxSeq = harness::defaultOursConfig().enc.maxSeq;
        auto m = harness::trainCostModel(cfg, ds, tcfg, row.tag);
        // Evaluate with the same 5-iteration DPO protocol as Table 3.
        std::vector<double> errs;
        for (const auto& w : modern)
            errs.push_back(harness::calibratedCyclesError(*m, w, 5));
        double avg = eval::mean(errs);
        avgs.push_back(avg);
        t.addRow({row.name, std::to_string(m->parameterCount()),
                  eval::pct(avg)});
    }
    t.print();
    std::printf("\n[shape] MAPE by scale: %.1f%% / %.1f%% / %.1f%% "
                "(paper: 22.9%% / 16.4%% / 15.3%%; larger is better)\n",
                avgs[0] * 100, avgs[1] * 100, avgs[2] * 100);
    bench::csv("table10", "mape_tiny", avgs[0]);
    bench::csv("table10", "mape_small", avgs[1]);
    bench::csv("table10", "mape_base", avgs[2]);
    return 0;
}
