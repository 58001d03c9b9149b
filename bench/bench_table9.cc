/**
 * @file
 * Table 9 reproduction: impact of data-dependency length on prediction
 * latency with dynamic prediction acceleration.
 *
 * DataDepLen is the byte length of the input-dependent (Class II)
 * operator text; DataLength is the total dataflow text length. The sweep
 * holds the total roughly constant while shifting bytes between the
 * input-dependent operator and an input-independent (Class I) one —
 * exactly the knob that controls how many rows the Section 5.3 cache may
 * reuse.
 *
 * Each row's times are the medians of bench::kTimedPairs alternating
 * NoOpt/Opt predictions.
 *
 * Expected shape (paper): OptTime <= NoOptTime across the sweep, with a
 * stable gap (std-dev ~0.13s there); the win shrinks as DataDepLen grows
 * (fewer reusable rows).
 */

#include <cstdio>

#include "bench_common.h"
#include "dfir/builder.h"
#include "dfir/printer.h"
#include "eval/table.h"
#include "harness/harness.h"
#include "model/fast_encoder.h"
#include "synth/generators.h"
#include "util/string_util.h"

using namespace llmulator;
using namespace llmulator::dfir;

namespace {

/**
 * Build a two-operator program where the Class II (input-dependent)
 * operator has 'dep_stmts' branchy statements and the Class I operator
 * has 'static_stmts' straight-line statements.
 */
DataflowGraph
makeSweepGraph(int dep_stmts, int static_stmts)
{
    Operator dyn;
    dyn.name = "dynop";
    dyn.scalarParams = {"N"};
    dyn.tensors = {tensor("X", {p("N")}), tensor("Y", {p("N")})};
    std::vector<StmtPtr> dyn_body;
    for (int i = 0; i < dep_stmts; ++i)
        dyn_body.push_back(ifStmt(
            bgt(a("X", {v("i")}), c(10 + i)),
            {assign("Y", {v("i")},
                    bmul(a("X", {v("i")}), c(2 + i)))},
            {assign("Y", {v("i")}, c(i))}));
    dyn.body = {forLoop("i", c(0), p("N"), dyn_body)};

    Operator stat;
    stat.name = "statop";
    stat.tensors = {tensor("U", {c(32)}), tensor("V", {c(32)})};
    std::vector<StmtPtr> stat_body;
    for (int i = 0; i < static_stmts; ++i)
        stat_body.push_back(
            assign("V", {v("i")},
                   badd(bmul(a("U", {v("i")}), c(3 + i)), c(i))));
    stat.body = {forLoop("i", c(0), c(32), stat_body)};

    DataflowGraph g;
    g.name = "sweep";
    g.ops = {dyn, stat};
    g.calls = {{"dynop"}, {"statop"}};
    return g;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::parseArgs(argc, argv);
    std::printf("Table 9: data-dependency length vs prediction latency "
                "with dynamic prediction acceleration\n");

    synth::Dataset ds = harness::defaultDataset(harness::defaultSynthConfig());
    auto ours = harness::trainCostModel(harness::defaultOursConfig(), ds,
                                        harness::defaultTrainConfig(),
                                        "main_ours");

    eval::Table t({"DataDepLen", "DataLength", "NoOptTime", "OptTime",
                   "Speedup"});
    std::vector<double> speedups;
    // Shift statements from the Class I operator to the Class II one.
    for (int dep = 0; dep <= 12; dep += 2) {
        DataflowGraph g = makeSweepGraph(1 + dep, 13 - dep);
        util::Rng rng(0x99 + dep);
        dfir::RuntimeData prime = synth::generateRuntimeData(g, rng, 24);
        dfir::RuntimeData probe = synth::generateRuntimeData(g, rng, 24);

        // Byte lengths as the paper reports them.
        size_t dep_len = 0, total_len = dfir::printStatic(g).size();
        for (const auto& op : g.ops)
            if (op.name == "dynop")
                dep_len = dfir::printOperator(op).size();

        auto ep_prime = ours->encode(g, &prime);
        auto ep_probe = ours->encode(g, &probe);

        model::InferenceSession warm(*ours);
        warm.predict(ep_prime, model::Metric::Cycles);
        bench::PairTiming timing = bench::timePairs(
            [&] { ours->predict(ep_probe, model::Metric::Cycles); },
            [&] { warm.predict(ep_probe, model::Metric::Cycles); });
        double noopt = timing.fullS;
        double opt = timing.reuseS;

        speedups.push_back(noopt / std::max(1e-12, opt));
        t.addRow({std::to_string(dep_len), std::to_string(total_len),
                  eval::secs(noopt), eval::secs(opt),
                  util::format("%.2fx", speedups.back())});
    }
    t.print();

    double mean = 0;
    for (double s : speedups)
        mean += s / speedups.size();
    std::printf("\n[shape] mean speedup %.2fx; acceleration stays "
                "effective across dependency lengths (paper: stable gap, "
                "up to 30.6%% reduction)\n", mean);
    bench::csv("table9", "mean_accel_speedup", mean);
    return 0;
}
