#include "synth/dataset.h"

#include <cmath>
#include <set>
#include <sstream>

#include "dfir/passes.h"
#include "dfir/verify.h"
#include "synth/generators.h"
#include "util/common.h"
#include "util/rng.h"

namespace llmulator {
namespace synth {

std::string
reasoningFragment(const hls::RtlFeatures& rtl)
{
    // Mirrors paper Figure 8's extracted-feature format.
    std::ostringstream out;
    out << "Number of modules instantiated : " << rtl.modulesInstantiated
        << "\n";
    out << "Number of performance conflicts : " << rtl.performanceConflicts
        << "\n";
    out << "Estimated resources area : "
        << static_cast<long>(rtl.areaUm2) << "\n";
    out << "Estimated area of MUX21 : "
        << static_cast<long>(rtl.muxAreaUm2) << "\n";
    out << "Number of allocated multiplexers : " << rtl.allocatedMuxes;
    return out.str();
}

model::Targets
targetsFromProfile(const sim::Profile& prof)
{
    model::Targets t;
    t.power = static_cast<long>(std::llround(prof.powerUw));
    t.area = static_cast<long>(std::llround(prof.areaUm2));
    t.flipFlops = prof.flipFlops;
    t.cycles = prof.cycles;
    return t;
}

namespace {

/** Profile one graph (+ optional data) into a finished sample. */
Sample
makeSample(dfir::DataflowGraph graph, bool with_data, SourceKind source,
           bool reasoning, util::Rng& rng)
{
    // Generators must only ever emit verifier-clean IR; a malformed
    // sample would silently skew the training distribution.
    dfir::VerifyResult vr = dfir::verify(graph);
    LLM_CHECK(vr.ok(), "synthesized program '"
                           << graph.name << "' failed DFIR verification:\n"
                           << vr.str());
    Sample s;
    s.source = source;
    s.hasData = with_data;
    if (with_data)
        s.data = generateRuntimeData(graph, rng);
    sim::Profile prof = sim::profile(graph, s.data);
    s.targets = targetsFromProfile(prof);
    if (reasoning)
        s.reasoning = reasoningFragment(prof.rtl);
    s.graph = std::move(graph);
    return s;
}

} // namespace

Dataset
synthesize(const SynthConfig& cfg)
{
    util::Rng rng(cfg.seed);
    Dataset ds;
    GenConfig gen;

    int n_ast = static_cast<int>(cfg.numPrograms * cfg.astFraction);
    int n_df = static_cast<int>(cfg.numPrograms * cfg.dataflowFraction);
    int n_llm = cfg.numPrograms - n_ast - n_df;

    std::vector<dfir::DataflowGraph> graphs;
    // Stage 1: AST-based (general).
    for (int i = 0; i < n_ast; ++i)
        graphs.push_back(generateAstProgram(rng, gen));
    // Stage 2: dataflow-specific.
    std::vector<dfir::DataflowGraph> df_graphs;
    for (int i = 0; i < n_df; ++i) {
        df_graphs.push_back(generateDataflowProgram(rng, gen));
        graphs.push_back(df_graphs.back());
    }
    // Stage 3: LLM-style mutations of the dataflow pool.
    for (int i = 0; i < n_llm && !df_graphs.empty(); ++i)
        graphs.push_back(
            mutateProgram(df_graphs[rng.index(df_graphs.size())], rng, gen));

    int idx = 0;
    for (auto& g : graphs) {
        SourceKind src = idx < n_ast
                             ? SourceKind::Ast
                             : (idx < n_ast + n_df ? SourceKind::Dataflow
                                                   : SourceKind::LlmMutation);
        ++idx;
        if (cfg.hwAugmentation)
            augmentHardware(g, rng, cfg.memDelays);

        bool reasoning = cfg.reasoningFormat && rng.chance(0.5);
        // Static sample (no runtime data) for the static metrics...
        ds.samples.push_back(
            makeSample(g, false, src, reasoning, rng));
        // ...plus input variants for input-adaptive cycle training.
        if (cfg.inputVariants &&
            dfir::countDynamicParams(g) > 0) {
            int variants = static_cast<int>(rng.uniformInt(1, 2));
            for (int vi = 0; vi < variants; ++vi)
                ds.samples.push_back(
                    makeSample(g, true, src, false, rng));
        }
    }
    return ds;
}

Dataset
synthesizeNoAugmentation(const SynthConfig& cfg)
{
    // Table 7 "No-A" column: AST-based data and direct data format only.
    util::Rng rng(cfg.seed ^ 0xabcdef);
    Dataset ds;
    GenConfig gen;
    for (int i = 0; i < cfg.numPrograms; ++i) {
        auto g = generateAstProgram(rng, gen);
        ds.samples.push_back(
            makeSample(std::move(g), false, SourceKind::Ast, false, rng));
    }
    return ds;
}

DatasetStats
datasetStats(const Dataset& ds)
{
    DatasetStats stats;
    stats.samples = ds.size();
    std::set<uint64_t> canonical;
    for (const Sample& s : ds.samples)
        canonical.insert(dfir::canonicalHash(s.graph));
    stats.distinctCanonical = canonical.size();
    return stats;
}

} // namespace synth
} // namespace llmulator
