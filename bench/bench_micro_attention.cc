/**
 * @file
 * Microbenchmark (google-benchmark): the Section 5.3 cached inference
 * path vs the full forward, at the kernel level. Complements Tables 5/9
 * (which time end-to-end predictions) with steady-state measurements of
 * the encoder forward alone, next to the training path on the same
 * encoding: the autograd forward, and a whole train step (forward,
 * loss and backward).
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <ostream>
#include <vector>

#include "bench_common.h"
#include "harness/harness.h"
#include "model/fast_encoder.h"
#include "nn/optim.h"
#include "synth/generators.h"

using namespace llmulator;

namespace {

/** Shared fixture: one trained model + one workload, built lazily. */
struct Fixture
{
    std::unique_ptr<model::CostModel> ours;
    model::EncodedProgram prime, probe;

    static Fixture&
    get()
    {
        static Fixture f = [] {
            Fixture fx;
            synth::Dataset ds =
                harness::defaultDataset(harness::defaultSynthConfig());
            fx.ours = harness::trainCostModel(
                harness::defaultOursConfig(), ds,
                harness::defaultTrainConfig(), "main_ours");
            auto modern = workloads::modern();
            const auto& w = modern[3]; // CBAM: many Class II operators
            fx.prime = fx.ours->encode(w.graph, &w.canonicalData);
            fx.probe = fx.ours->encode(w.graph, &w.variants[0]);
            return fx;
        }();
        return f;
    }
};

void
BM_FullForward(benchmark::State& state)
{
    Fixture& f = Fixture::get();
    for (auto _ : state) {
        auto pred = f.ours->predict(f.probe, model::Metric::Cycles);
        benchmark::DoNotOptimize(pred.value);
    }
}

void
BM_CachedForward(benchmark::State& state)
{
    Fixture& f = Fixture::get();
    model::InferenceSession session(*f.ours);
    session.predict(f.prime, model::Metric::Cycles); // prime cache
    for (auto _ : state) {
        auto pred = session.predict(f.probe, model::Metric::Cycles);
        benchmark::DoNotOptimize(pred.value);
    }
}

void
BM_AutogradForward(benchmark::State& state)
{
    // The training-path forward (tape construction included), for context.
    Fixture& f = Fixture::get();
    for (auto _ : state) {
        auto pooled = f.ours->pooledForward(f.probe);
        benchmark::DoNotOptimize(pooled->value[0]);
    }
}

void
BM_TrainStep(benchmark::State& state)
{
    // One training view's tape: the autograd forward, a digit-head loss
    // and the backward into the parameters' gradients.
    Fixture& f = Fixture::get();
    const std::vector<nn::TensorPtr> params = f.ours->parameters();
    for (auto _ : state) {
        nn::clearGrads(params);
        auto loss = f.ours->lossForMetric(f.probe, model::Metric::Cycles,
                                          123456);
        loss->backward();
        benchmark::DoNotOptimize(params.front()->grad.data());
        benchmark::ClobberMemory();
    }
}

BENCHMARK(BM_FullForward)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CachedForward)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AutogradForward)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainStep)->Unit(benchmark::kMillisecond);

/** Console output plus a scrapeable `name,metric,value` CSV echo. */
class CsvEchoReporter : public benchmark::ConsoleReporter
{
public:
    // OO_Tabular without OO_Color: BENCHMARK_MAIN would have disabled
    // color for non-TTY output; default-constructing keeps it on and
    // leaks ANSI codes into redirected CI logs.
    CsvEchoReporter() : ConsoleReporter(OO_Tabular) {}

    void
    ReportRuns(const std::vector<Run>& runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        // The table goes through buffered std::cout while csv() uses
        // stdout directly; flush so the lines cannot interleave.
        GetOutputStream().flush();
        for (const auto& run : runs)
            bench::csv("micro_attention",
                       (run.benchmark_name() + "_ms").c_str(),
                       run.GetAdjustedRealTime());
    }
};

} // namespace

int
main(int argc, char** argv)
{
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    // Strip --quick (it switches the harness into smoke mode and caps
    // the measurement time) before google-benchmark sees the arguments.
    std::vector<char*> args;
    bool quick = false;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
            harness::forceSmokeMode(true);
        } else {
            args.push_back(argv[i]);
        }
    }
    static char min_time[] = "--benchmark_min_time=0.05";
    if (quick)
        args.push_back(min_time);
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    CsvEchoReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
}
