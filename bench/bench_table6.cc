/**
 * @file
 * Table 6 reproduction: correlation analysis between prediction
 * confidence (final-digit logit probability, Section 7.1) and squared
 * error for flip-flop estimates on randomly sampled workloads.
 *
 * Expected shape (paper): negative Pearson correlation (-0.44 there) —
 * lower confidence predicts higher error, the interpretability claim of
 * output numerical modeling.
 */

#include <cstdio>

#include "bench_common.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "harness/harness.h"
#include "sim/profiler.h"
#include "synth/generators.h"
#include "util/string_util.h"

using namespace llmulator;

int
main(int argc, char** argv)
{
    bench::parseArgs(argc, argv);
    std::printf("Table 6: confidence (final logit) vs MSE for FF "
                "estimates on randomly sampled workloads\n");

    synth::Dataset ds = harness::defaultDataset(harness::defaultSynthConfig());
    auto ours = harness::trainCostModel(harness::defaultOursConfig(), ds,
                                        harness::defaultTrainConfig(),
                                        "main_ours");

    // Freshly sampled programs (seed differs from every training stream).
    // Note on units: the paper's Table 6 samples all have tiny FF counts
    // (0-44), so its raw MSE behaves like a relative error. Our substrate
    // produces FF targets across orders of magnitude, so the correlation
    // is computed against squared *relative* error (raw-MSE Pearson is
    // also reported; it is dominated by the largest-magnitude samples).
    // The sample pool spans the model's competence range: half are
    // programs the model has trained on (high confidence, low error
    // expected), half are freshly generated (low confidence, higher
    // error) — the spread the confidence indicator must track.
    util::Rng rng(0xC0FFEE);
    const int n = 24;
    std::vector<dfir::DataflowGraph> pool;
    for (int i = 0; i < n / 2; ++i)
        pool.push_back(ds.samples[rng.index(ds.size())].graph);
    for (int i = n / 2; i < n; ++i)
        pool.push_back(synth::generateDataflowProgram(rng));

    std::vector<double> conf, sqrel, sqabs;
    eval::Table t({"Sample", "Confi", "Pred", "Real", "SqRelErr"});
    for (int i = 0; i < n; ++i) {
        const auto& g = pool[i];
        long truth = synth::targetsFromProfile(
            sim::profileStatic(g)).flipFlops;
        auto ep = ours->encode(g);
        auto pred = ours->predict(ep, model::Metric::FlipFlops);
        // Confidence over *significant* digits (geometric mean from the
        // first nonzero digit): the paper's samples are 1-2 digit values
        // where the final logit IS the significant digit; at width 8 the
        // leading zeros are trivially confident and would mask the
        // signal.
        size_t first = 0;
        while (first + 1 < pred.digits.size() && pred.digits[first] == 0)
            ++first;
        double logp = 0;
        for (size_t j = first; j < pred.digits.size(); ++j)
            logp += std::log(std::max(pred.digitProbs[j], 1e-12));
        double c = std::exp(logp /
                            static_cast<double>(pred.digits.size() - first));
        double rel = eval::absPctError(pred.value, truth);
        conf.push_back(c);
        sqrel.push_back(rel * rel);
        double d = double(pred.value) - double(truth);
        sqabs.push_back(d * d);
        t.addRow({std::to_string(i + 1), util::format("%.2f", c),
                  std::to_string(pred.value), std::to_string(truth),
                  util::format("%.3f", rel * rel)});
    }
    t.print();

    double r = eval::pearson(conf, sqrel);
    double r_abs = eval::pearson(conf, sqabs);
    std::printf("\n(raw-MSE Pearson, magnitude-dominated: %.2f)\n",
                r_abs);
    std::printf("[shape] Pearson(confidence, squared relative error) = "
                "%.2f (paper: -0.44, negative). NOTE: the negative sign "
                "does NOT reproduce at this scale — the from-scratch "
                "~100k-parameter policy is miscalibrated (confidently "
                "wrong on out-of-family magnitudes), where the paper's "
                "pretrained 1B model is not. Recorded as a deviation in "
                "README \"Benches\".\n", r);
    bench::csv("table6", "pearson_conf_sqrelerr", r);
    bench::csv("table6", "pearson_conf_sqabserr", r_abs);
    return 0;
}
