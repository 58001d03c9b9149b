#ifndef LLMULATOR_SYNTH_GENERATORS_H
#define LLMULATOR_SYNTH_GENERATORS_H

/**
 * @file
 * Progressive basic data generation (paper Section 6.1): the three program
 * generators applied in "general first, then specific" order.
 *
 *  - AST-based generation (ldrgen substitute): syntactically correct,
 *    liveness-safe random programs — loops, scalar arithmetic, small array
 *    traffic, occasional branches. General but unrepresentative of real
 *    dataflow kernels (shallow nests, many non-array ops), matching the
 *    distribution gap the paper describes in Challenge 3.
 *  - Dataflow-specific generation: a graph generator that randomly varies
 *    operator order/parameters plus a loop-tree operator generator that
 *    mutates loop order and step sizes of tensor kernels (gemm / conv /
 *    stencil / reduction / elementwise templates) and attaches hardware
 *    mapping pragmas.
 *  - LLM-based generation (prompted-mutation substitute): semantic
 *    restructuring of existing dataflow programs — kernel-size swaps, loop
 *    interchange, operator reordering and duplication, dead-branch
 *    injection — widening coverage beyond the templates.
 */

#include "dfir/ir.h"
#include "util/rng.h"

namespace llmulator {
namespace synth {

/** Generator size bounds (kept small enough for the context window). */
struct GenConfig
{
    int maxOpsPerGraph = 3;
    long minBound = 4;
    long maxBound = 48;
    int maxDepth = 3;
};

/** AST-based generator (ldrgen substitute). */
dfir::DataflowGraph generateAstProgram(util::Rng& rng,
                                       const GenConfig& cfg = {});

/** Dataflow-specific generator (graph + loop-tree operators). */
dfir::DataflowGraph generateDataflowProgram(util::Rng& rng,
                                            const GenConfig& cfg = {});

/**
 * LLM-style mutation of an existing program (semantic-preserving or
 * -perturbing restructuring). Returns a new graph.
 */
dfir::DataflowGraph mutateProgram(const dfir::DataflowGraph& base,
                                  util::Rng& rng, const GenConfig& cfg = {});

/**
 * A semantics-preserving rewrite of a base program, used to stress the
 * serve result cache: identical behaviour, different text/structure.
 */
struct EquivalentMutant
{
    dfir::DataflowGraph graph;
    //! Old scalar name -> new name; feed dfir::remapRuntimeData so the
    //! mutant's runtime data matches its renamed parameters.
    std::map<std::string, std::string> scalarRenames;
};

/**
 * Produce a semantically identical variant of 'base': loop variables,
 * scalar parameters/temps and operator names are freshly renamed,
 * commuting operands are randomly swapped, and dead scalar assigns /
 * dead branches are randomly injected. Under canonical cache keys
 * (dfir::canonicalHash) every mutant of a base collides with it; under
 * raw structural hashes each one misses.
 */
EquivalentMutant equivalentMutant(const dfir::DataflowGraph& base,
                                  util::Rng& rng);

/**
 * Attach hardware mapping/parameter augmentation (paper Section 6.3):
 * memory delays drawn from the given set, port counts, and pragma
 * rewrites (unroll / parallel) on randomly chosen loops.
 */
void augmentHardware(dfir::DataflowGraph& g, util::Rng& rng,
                     const std::vector<int>& mem_delays);

/**
 * Generate runtime data for a graph's dynamic scalar parameters by
 * sampling around base values with -50%/+50% variation (Section 6.1), and
 * synthesizing input tensors whose value distribution drives branches.
 */
dfir::RuntimeData generateRuntimeData(const dfir::DataflowGraph& g,
                                      util::Rng& rng, long base_scale = 16);

} // namespace synth
} // namespace llmulator

#endif // LLMULATOR_SYNTH_GENERATORS_H
