/**
 * @file
 * Design-space exploration with a learned cost model — the motivating use
 * case of the paper's introduction. A convolution kernel is swept over
 * hardware mappings (unroll factors, parallelization, memory delays);
 * LLMulator ranks the candidates without invoking the slow profiler for
 * each one, and the cached inference session (Section 5.3) accelerates
 * the repeated predictions.
 *
 *   ./design_space_exploration
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "dfir/builder.h"
#include "harness/harness.h"
#include "model/fast_encoder.h"
#include "sim/profiler.h"

using namespace llmulator;
using namespace llmulator::dfir;

namespace {

/** Conv kernel with configurable mapping pragmas. */
DataflowGraph
makeConv(int unroll, bool parallel, int mem_delay)
{
    Operator conv;
    conv.name = "conv";
    conv.tensors = {tensor("X", {c(40)}), tensor("W", {c(5)}),
                    tensor("Y", {c(36)})};
    auto body = assign(
        "Y", {v("i")},
        badd(a("Y", {v("i")}),
             bmul(a("X", {badd(v("i"), v("r"))}), a("W", {v("r")}))));
    conv.body = {forLoop("i", c(0), c(36),
                         {forLoop("r", c(0), c(5), {body}, 1, unroll,
                                  parallel)})};
    DataflowGraph g;
    g.name = "conv_dse";
    g.ops = {conv};
    g.calls = {{"conv"}};
    g.params.memReadDelay = mem_delay;
    g.params.memWriteDelay = mem_delay;
    return g;
}

struct Candidate
{
    int unroll;
    bool parallel;
    int memDelay;
    long predCycles;
    long predArea;
    long trueCycles;
    long trueArea;
};

} // namespace

int
main()
{
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    std::printf("== loading LLMulator model ==\n");
    synth::Dataset ds =
        harness::defaultDataset(harness::defaultSynthConfig());
    auto model = harness::trainCostModel(harness::defaultOursConfig(), ds,
                                         harness::defaultTrainConfig(),
                                         "main_ours");

    // Smoke mode sweeps a 2x2x2 corner of the space instead of 3x2x3.
    bool smoke = harness::smokeMode();
    std::vector<int> unrolls = smoke ? std::vector<int>{1, 4}
                                     : std::vector<int>{1, 2, 4};
    std::vector<int> delays = smoke ? std::vector<int>{2, 10}
                                    : std::vector<int>{2, 5, 10};
    std::vector<Candidate> cands;
    for (int unroll : unrolls)
        for (bool par : {false, true})
            for (int delay : delays)
                cands.push_back({unroll, par, delay, 0, 0, 0, 0});

    model::InferenceSession session(*model);
    for (auto& cc : cands) {
        DataflowGraph g = makeConv(cc.unroll, cc.parallel, cc.memDelay);
        auto ep = model->encode(g);
        cc.predCycles =
            session.predict(ep, model::Metric::Cycles).value;
        cc.predArea =
            session.predict(ep, model::Metric::Area).value;
        sim::Profile prof = sim::profileStatic(g);
        cc.trueCycles = prof.cycles;
        cc.trueArea = static_cast<long>(prof.areaUm2);
    }

    // Rank by predicted cycles; the useful property for DSE is that the
    // model's *ranking* agrees with the profiler's, not exact values.
    std::sort(cands.begin(), cands.end(),
              [](const Candidate& a, const Candidate& b) {
                  return a.predCycles < b.predCycles;
              });

    std::printf("\nunroll par delay | pred cyc  true cyc | pred area  "
                "true area\n");
    for (const auto& cc : cands)
        std::printf("%6d %3s %5d | %8ld %9ld | %9ld %10ld\n", cc.unroll,
                    cc.parallel ? "yes" : "no", cc.memDelay, cc.predCycles,
                    cc.trueCycles, cc.predArea, cc.trueArea);

    // Rank agreement (Spearman-style on cycles).
    std::vector<size_t> by_truth(cands.size());
    for (size_t i = 0; i < cands.size(); ++i)
        by_truth[i] = i;
    std::sort(by_truth.begin(), by_truth.end(),
              [&](size_t x, size_t y) {
                  return cands[x].trueCycles < cands[y].trueCycles;
              });
    double d2 = 0;
    for (size_t rank = 0; rank < by_truth.size(); ++rank) {
        double d = static_cast<double>(rank) -
                   static_cast<double>(by_truth[rank]);
        d2 += d * d;
    }
    size_t n = cands.size();
    double rho = 1.0 - 6.0 * d2 / (double(n) * (double(n) * n - 1));
    std::printf("\nSpearman rank correlation (pred vs true cycles): "
                "%.2f\n", rho);
    std::printf("Session cache: %ld full forwards, %ld cached, %ld rows "
                "reused\n", session.stats().fullForwards,
                session.stats().cachedForwards,
                session.stats().rowsReused);
    return 0;
}
