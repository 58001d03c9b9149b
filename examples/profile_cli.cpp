/**
 * @file
 * Text-driven profiling/prediction CLI: reads a C-like dataflow program
 * (the same language the printer emits and the cost model consumes) from
 * a file or stdin, profiles it with the ground-truth substrate, and —
 * with --predict — compares against the trained LLMulator model.
 *
 *   ./profile_cli program.df            # profile only
 *   ./profile_cli --predict program.df  # profile + model prediction
 *   echo "..." | ./profile_cli -        # read from stdin
 *   ./profile_cli --trace out.json ...  # export trace spans
 *                                       # (chrome://tracing JSON)
 *   ./profile_cli --schedule ...        # dependence-analysis report
 *                                       # (program key, nests, legal
 *                                       # interchanges, reductions)
 *
 * Scalar runtime inputs can be appended to the program text as
 * "name = value" lines.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "dfir/analysis.h"
#include "dfir/parser.h"
#include "dfir/schedule.h"
#include "eval/metrics.h"
#include "harness/harness.h"
#include "obs/trace.h"
#include "sim/profiler.h"

using namespace llmulator;

namespace {

const char* kDemoProgram =
    "void gemm(float A[24][24], float B[24][24], float C[24][24]) {\n"
    "  for (int i = 0; i < 24; i += 1) {\n"
    "    for (int j = 0; j < 24; j += 1) {\n"
    "      #pragma clang loop unroll_count(2)\n"
    "      for (int k = 0; k < 24; k += 1) {\n"
    "        C[i][j] = (C[i][j] + (A[i][k] * B[k][j]));\n"
    "      }\n"
    "    }\n"
    "  }\n"
    "}\n"
    "void dataflow() {\n"
    "  gemm();\n"
    "}\n"
    "-mem-read-delay=5\n"
    "-mem-write-delay=5\n";

} // namespace

int
main(int argc, char** argv)
{
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    bool predict = false;
    bool schedule = false;
    std::string path;
    std::string tracePath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--predict") == 0) {
            predict = true;
        } else if (std::strcmp(argv[i], "--schedule") == 0) {
            schedule = true;
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            tracePath = argv[++i];
        } else {
            path = argv[i];
        }
    }

    // --trace: record sim/trainer spans for this run and export them as
    // chrome://tracing JSON on every exit path (RAII; the CLI is
    // single-threaded, so collection is always quiescent).
    struct TraceExport
    {
        std::string path;
        ~TraceExport()
        {
            if (path.empty())
                return;
            if (obs::writeChromeTraceFile(path))
                std::printf("trace written to %s (load in "
                            "chrome://tracing)\n",
                            path.c_str());
        }
    } traceExport;
    if (!tracePath.empty()) {
        obs::setTraceEnabled(true);
        traceExport.path = tracePath;
    }

    std::string text;
    if (path.empty()) {
        std::printf("(no input given; profiling the built-in demo GEMM)\n");
        text = kDemoProgram;
    } else if (path == "-") {
        std::ostringstream ss;
        ss << std::cin.rdbuf();
        text = ss.str();
    } else {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
            return 1;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }

    dfir::ParseResult res = dfir::parseProgram(text);
    if (!res.ok) {
        std::fprintf(stderr, "parse error (line %d): %s\n", res.errorLine,
                     res.error.c_str());
        return 1;
    }
    // The parser runs the DFIR verifier on every successful parse;
    // surface its findings (and refuse to profile malformed IR).
    if (!res.diagnostics.diags.empty())
        std::fprintf(stderr, "%s", res.diagnostics.str().c_str());
    if (!res.diagnostics.ok())
        return 1;

    std::printf("parsed %zu operator(s), %zu call(s), %d dynamic "
                "parameter(s)\n",
                res.graph.ops.size(), res.graph.calls.size(),
                dfir::countDynamicParams(res.graph));
    for (const auto& op : res.graph.ops) {
        bool class_i = dfir::classifyOperator(op) ==
                       dfir::ControlFlowClass::ClassI;
        std::printf("  %-16s control flow: Class %s\n", op.name.c_str(),
                    class_i ? "I (static)" : "II (input-dependent)");
    }

    // --schedule: the program key (dfir::canonicalHash) and a static
    // dependence-analysis line per nest (shape, affinity, legal
    // interchange pairs, reductions).
    if (schedule) {
        std::printf("\nschedule analysis:\n%s",
                    dfir::scheduleReport(res.graph).str().c_str());
    }

    sim::Profile prof = sim::profile(res.graph, res.data);
    std::printf("\nprofiled ground truth:\n");
    std::printf("  cycles     %ld\n", prof.cycles);
    std::printf("  power      %.0f uW\n", prof.powerUw);
    std::printf("  area       %.0f um2\n", prof.areaUm2);
    std::printf("  flip-flops %ld\n", prof.flipFlops);
    std::printf("  branches   %ld taken / %ld not taken\n",
                prof.branchesTaken, prof.branchesNotTaken);

    if (!predict)
        return 0;

    std::printf("\nloading LLMulator model (trains on first use)...\n");
    synth::Dataset ds =
        harness::defaultDataset(harness::defaultSynthConfig());
    auto model = harness::trainCostModel(harness::defaultOursConfig(), ds,
                                         harness::defaultTrainConfig(),
                                         "main_ours");
    auto truths = synth::targetsFromProfile(prof);
    std::printf("\n%-7s %10s %10s %8s %6s\n", "metric", "predicted",
                "profiled", "abs%err", "conf");
    for (auto m : {model::Metric::Power, model::Metric::Area,
                   model::Metric::FlipFlops, model::Metric::Cycles}) {
        const dfir::RuntimeData* data =
            m == model::Metric::Cycles && !res.data.scalars.empty()
                ? &res.data
                : nullptr;
        auto ep = model->encode(res.graph, data);
        auto pred = model->predict(ep, m);
        std::printf("%-7s %10ld %10ld %7.1f%% %5.2f\n",
                    model::metricName(m), pred.value, truths.get(m),
                    eval::absPctError(pred.value, truths.get(m)) * 100,
                    pred.confidence());
    }
    return 0;
}
