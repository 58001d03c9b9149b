/**
 * @file
 * DFIR canonicalization benchmark: throughput of the full pass pipeline
 * over the workload corpus, canonical-hash latency, the serve
 * result-cache hit-rate delta between raw structural keys and canonical
 * keys on a stream of semantically equivalent program mutants (renamed
 * values, commuted operands, injected dead code), and the synthesizer
 * dataset redundancy under canonical keys (synth::datasetStats).
 *
 * Emits `name,metric,value` CSV lines; `--quick` shrinks the mutant
 * stream and timing repetitions for CI smoke runs.
 */

#include <chrono>
#include <map>
#include <vector>

#include "bench_common.h"
#include "dfir/passes.h"
#include "serve/result_cache.h"
#include "synth/dataset.h"
#include "synth/generators.h"
#include "util/rng.h"
#include "workloads/workloads.h"

using namespace llmulator;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One (graph, data) query in the mutation stream. */
struct Query
{
    dfir::DataflowGraph graph;
    dfir::RuntimeData data;
};

/** Replay the stream against a fresh cache; returns the hit rate. */
double
replayHitRate(const std::vector<Query>& stream, bool canonical)
{
    serve::ResultCache cache(4096);
    model::NumericPrediction dummy;
    dummy.value = 1.0;
    size_t hits = 0;
    for (const auto& q : stream) {
        serve::ResultKey key;
        if (canonical) {
            key = serve::makeResultKey(q.graph, &q.data,
                                       model::Metric::Power);
        } else {
            key.program = dfir::structuralHash(q.graph);
            key.input = serve::hashRuntimeData(q.data);
        }
        model::NumericPrediction out;
        if (cache.get(key, out))
            ++hits;
        else
            cache.put(key, dummy);
    }
    return stream.empty() ? 0.0 : double(hits) / double(stream.size());
}

} // namespace

int
main(int argc, char** argv)
{
    bench::parseArgs(argc, argv);
    const bool quick = harness::smokeMode();
    const int mutants_per_base = quick ? 2 : 6;
    const int timing_reps = quick ? 3 : 20;

    std::vector<workloads::Workload> corpus;
    for (auto& w : workloads::polybench())
        corpus.push_back(std::move(w));
    for (auto& w : workloads::modern())
        corpus.push_back(std::move(w));
    for (auto& w : workloads::accelerators())
        corpus.push_back(std::move(w));

    // Canonicalization throughput over the corpus.
    {
        auto t0 = Clock::now();
        size_t n = 0;
        for (int rep = 0; rep < timing_reps; ++rep)
            for (const auto& w : corpus) {
                dfir::DataflowGraph canon = dfir::canonicalize(w.graph);
                n += canon.ops.size(); // keep the work observable
            }
        double secs = secondsSince(t0);
        (void)n;
        bench::csv("bench_dfir_canon", "canonicalize_graphs_per_s",
                   double(timing_reps) * double(corpus.size()) / secs);
    }

    // Canonical-hash latency (full pipeline + structural hash).
    {
        auto t0 = Clock::now();
        uint64_t acc = 0;
        for (int rep = 0; rep < timing_reps; ++rep)
            for (const auto& w : corpus)
                acc ^= dfir::canonicalHash(w.graph);
        double secs = secondsSince(t0);
        (void)acc;
        bench::csv("bench_dfir_canon", "canonical_hash_us_mean",
                   secs * 1e6 /
                       (double(timing_reps) * double(corpus.size())));
    }

    // Serve-cache hit rates on the equivalent-mutation stream: every
    // base query followed by semantically identical rewrites. Canonical
    // keys should collapse each base and its mutants to one entry; raw
    // keys miss on every rename.
    std::vector<Query> stream;
    util::Rng rng(20260809);
    for (const auto& w : corpus) {
        stream.push_back({w.graph, w.canonicalData});
        for (int m = 0; m < mutants_per_base; ++m) {
            synth::EquivalentMutant mut =
                synth::equivalentMutant(w.graph, rng);
            // The mutant renames scalars, so rename its data to match —
            // the inverse map is what a caller of the variant would use.
            std::map<std::string, std::string> fwd;
            for (const auto& kv : mut.scalarRenames)
                fwd[kv.first] = kv.second;
            stream.push_back(
                {std::move(mut.graph),
                 dfir::remapRuntimeData(w.canonicalData, fwd)});
        }
    }

    double hit_raw = replayHitRate(stream, false);
    double hit_canon = replayHitRate(stream, true);
    bench::csv("bench_dfir_canon", "stream_queries",
               double(stream.size()));
    bench::csv("bench_dfir_canon", "hit_rate_raw", hit_raw);
    bench::csv("bench_dfir_canon", "hit_rate_canonical", hit_canon);
    bench::csv("bench_dfir_canon", "hit_rate_delta", hit_canon - hit_raw);

    // Synthesizer dataset redundancy under canonical keys.
    {
        synth::SynthConfig cfg;
        cfg.numPrograms = quick ? 12 : 48;
        cfg.inputVariants = false; // program structure is what matters
        synth::DatasetStats ds = synth::datasetStats(synth::synthesize(cfg));
        bench::csv("bench_dfir_canon", "dataset_samples",
                   double(ds.samples));
        bench::csv("bench_dfir_canon", "dataset_distinct_canonical",
                   double(ds.distinctCanonical));
    }
    return 0;
}
