#ifndef LLMULATOR_SYNTH_DATASET_H
#define LLMULATOR_SYNTH_DATASET_H

/**
 * @file
 * Dataset synthesizer (paper Section 6): progressive basic data generation
 * + hardware mapping/parameter augmentation + progressive data formatting,
 * profiled through the sim/ substrate into labelled training samples.
 */

#include <string>
#include <vector>

#include "dfir/ir.h"
#include "hls/compile.h"
#include "model/cost_model.h"
#include "sim/profiler.h"

namespace llmulator {
namespace synth {

/** Origin of a synthesized program (for the Table 7 ablation). */
enum class SourceKind { Ast, Dataflow, LlmMutation };

/** One labelled training example. */
struct Sample
{
    dfir::DataflowGraph graph;
    dfir::RuntimeData data;   //!< populated when hasData
    bool hasData = false;
    model::Targets targets;   //!< profiled ground truth
    std::string reasoning;    //!< thinking fragment; empty = direct format
    SourceKind source = SourceKind::Ast;
};

/** Labelled training set. */
struct Dataset
{
    std::vector<Sample> samples;

    size_t size() const { return samples.size(); }
};

/** Synthesizer configuration. */
struct SynthConfig
{
    int numPrograms = 120;
    double astFraction = 0.30;      //!< paper Section 7.1 dataset mix
    double dataflowFraction = 0.50; //!< remainder is LLM-mutation data
    bool hwAugmentation = true;     //!< memory/pragma augmentation
    std::vector<int> memDelays = {10, 5, 2}; //!< paper Section 6.3 set
    bool inputVariants = true;      //!< runtime-data samples for cycles
    bool reasoningFormat = false;   //!< attach <think> fragments
    uint64_t seed = 2024;
};

/**
 * Render the reasoning ("thinking") fragment from RTL-level features
 * (paper Figure 8): module counts, conflicts, mux statistics.
 */
std::string reasoningFragment(const hls::RtlFeatures& rtl);

/** Convert a profile into the label vector. */
model::Targets targetsFromProfile(const sim::Profile& prof);

/** Run the full synthesizer. */
Dataset synthesize(const SynthConfig& cfg);

/**
 * Ablation variant (Table 7 "No-A"): AST-based generation only, direct
 * data format only, no hardware augmentation, no input variants.
 */
Dataset synthesizeNoAugmentation(const SynthConfig& cfg);

/**
 * Dataset redundancy summary: how many samples carry distinct program
 * keys (dfir::canonicalHash, the serve/model cache key). The gap to
 * `samples` measures how many semantically identical programs the
 * synthesizer emits. Diagnostic only.
 */
struct DatasetStats
{
    size_t samples = 0;
    size_t distinctCanonical = 0;
};

DatasetStats datasetStats(const Dataset& ds);

} // namespace synth
} // namespace llmulator

#endif // LLMULATOR_SYNTH_DATASET_H
