#ifndef LLMULATOR_DFIR_PASSES_H
#define LLMULATOR_DFIR_PASSES_H

/**
 * @file
 * Canonicalization over the dataflow IR.
 *
 * Semantically identical programs reach the serve result cache and the
 * model cache under different structural hashes whenever they differ
 * only by value names, commuting-operand order, or dead statements.
 * canonicalize() rewrites a DataflowGraph into a canonical
 * representative, and canonicalHash() — structuralHash of that
 * representative — is the cache key that makes those equivalents
 * collide on purpose.
 *
 * The pipeline is three walks, each pure, deterministic and tested.
 * Each copies only the nodes it changes; the rest stay shared with its
 * input.
 *
 *  - normalizeExprKinds: re-derive LoopVar vs Param node kinds with the
 *    parser's discipline (a name is a LoopVar use iff some for-loop of
 *    that name has opened earlier in the operator), so builder-authored
 *    and parsed trees of the same program agree node-for-node. On the
 *    way it folds constant shape expressions (loop bounds, tensor dims)
 *    to Const, but only through operators whose integer and simulator
 *    (double) semantics coincide: Div/Mod never fold, nor does an
 *    Add/Sub/Mul whose result leaves [-LONG_MAX, LONG_MAX], and
 *    assignment/branch expressions are never touched, so profiled
 *    cycles and RTL metrics cannot move. Kinds are settled before DCE,
 *    which can delete the loop whose opening made a later read of its
 *    name a LoopVar.
 *  - eliminateDeadCode: drop branches with constant-false conditions,
 *    scalar assignments whose target is never read anywhere in the
 *    graph, loops and ifs left empty by those removals, and operator
 *    definitions that are never called. The simulator executes calls
 *    and the HLS compiler lowers called operators only, so removing
 *    uncalled definitions is metric-free; removing executed dead
 *    statements normalizes away cycle noise that pure cache-key
 *    canonicalization wants gone (workload programs contain none, which
 *    the per-walk preservation tests pin).
 *  - renameCanonical: alpha-rename loop variables (i0, i1, ... per
 *    operator, in loop pre-order), scalar parameters (p0, p1, ...
 *    graph-wide, in declaration order), scalar temps (t0, t1, ...
 *    graph-wide, in assignment pre-order) and operators (op0, op1, ...
 *    in first-call order), and pin the graph name. Tensor names are
 *    deliberately NOT renamed: the simulator synthesizes deterministic
 *    pseudo-data keyed by tensor name, so renaming tensors would change
 *    simulated values. The scalar rename map is returned so runtime
 *    data can be remapped alongside the program. As it rebuilds each
 *    commutative binary node (Add, Mul, Min, Max, And, Or, Eq, Ne) it
 *    sorts the node's operands by subtree hash; names never depend on
 *    operand order (declaration / statement order only), so one walk
 *    does both.
 *
 * canonicalize() runs the three walks; canonicalHash(g) is the cache
 * key contract: equal for programs differing only by the rewrites above,
 * stable across print/parse round trips. Limits: equivalences that need
 * graph isomorphism reasoning (permuted parameter declarations, renamed
 * tensors, symmetric operand ties) are out of scope and may not unify.
 */

#include <map>
#include <string>

#include "dfir/ir.h"

namespace llmulator {
namespace dfir {

DataflowGraph normalizeExprKinds(DataflowGraph g);
DataflowGraph eliminateDeadCode(DataflowGraph g);

/**
 * Alpha-rename to canonical ids and sort commutative operands. When
 * 'scalar_renames' is non-null it receives the old-name ->
 * canonical-name map for scalar parameters and temps (loop variables
 * and operators are renamed too but have no runtime-data counterpart).
 */
DataflowGraph renameCanonical(
    const DataflowGraph& g,
    std::map<std::string, std::string>* scalar_renames = nullptr);

/** Canonical form plus the scalar rename map needed to move data. */
struct CanonResult
{
    DataflowGraph graph;
    std::map<std::string, std::string> scalarRenames;
};

/** Run the three walks. */
CanonResult canonicalizeEx(const DataflowGraph& g);

/** Convenience wrapper returning the canonical graph only. */
DataflowGraph canonicalize(const DataflowGraph& g);

/**
 * The canonical cache key: structuralHash(canonicalize(g).graph).
 * Programs differing only by value names, commuting-operand order or
 * dead statements share this hash.
 */
uint64_t canonicalHash(const DataflowGraph& g);

/**
 * Rename runtime-data scalars through a canonicalization's rename map
 * (unmapped names pass through; tensors are untouched, matching
 * renameCanonical's tensor-name policy).
 */
RuntimeData remapRuntimeData(
    const RuntimeData& data,
    const std::map<std::string, std::string>& scalar_renames);

} // namespace dfir
} // namespace llmulator

#endif // LLMULATOR_DFIR_PASSES_H
