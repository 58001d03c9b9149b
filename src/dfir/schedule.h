#ifndef LLMULATOR_DFIR_SCHEDULE_H
#define LLMULATOR_DFIR_SCHEDULE_H

/**
 * @file
 * Schedule-aware dependence analysis over the dataflow IR.
 *
 * Canonicalization (dfir/passes.h) stops at rewrites a pure semantics
 * argument covers (renames, commuted operands, dead code). Rewrites
 * that change the *schedule*, such as loop interchange, need a
 * dependence argument: an interchange is only meaning-preserving when
 * no loop-carried dependence flips direction under it. This module
 * provides that argument as a static analysis:
 *
 *  - nest extraction: the maximal perfect loop band of each top-level
 *    `for` (outer loops whose body is exactly one nested `for`), with
 *    imperfect remainders classified, never rejected;
 *  - access classification: every array subscript is linearized over
 *    the band's induction variables; anything the linearizer cannot
 *    express as sum(coeff * loopvar) + invariant without overflowing
 *    a `long` is AccessClass::NonAffine — a diagnostic note, never an
 *    assert — and analyzed conservatively;
 *  - direction vectors for every same-tensor access pair with at least
 *    one write (per-dimension coefficient/GCD tests, pruned to
 *    lexicographically positive loop-carried vectors);
 *  - interchangeLegal(nest, i, j): no kept direction vector becomes
 *    lexicographically negative when levels i and j swap, no band
 *    bound references a band variable, and — preserving the repo's
 *    bit-identity culture — no floating-point reduction accumulates
 *    over both swapped loops (reduction detection flags accumulators
 *    of the form T[idx] = T[idx] op ..., op in {+, *, min, max}).
 *
 * Consumers: synth::mutateProgram gates its interchange mutation on
 * interchangeLegal, the verifier warns on non-affine subscripts
 * (classifySubscript), and profile_cli --schedule prints
 * scheduleReport. Nothing here keys a cache; programs are identified
 * by dfir::canonicalHash alone.
 */

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "dfir/ir.h"

namespace llmulator {
namespace dfir {

/** Affinity of an access in the surrounding loop variables. */
enum class AccessClass
{
    Affine,   //!< sum(coeff * loopvar) + loop-invariant offset
    NonAffine //!< anything else; analyzed conservatively
};

/** Direction of a dependence in one loop dimension. */
enum class Dir : uint8_t
{
    Lt, //!< source iteration strictly earlier ("<")
    Eq, //!< same iteration of this loop ("=")
    Gt  //!< source iteration strictly later (">")
};

/** One pruned, loop-carried dependence direction vector. */
struct DirectionVector
{
    std::string tensor;     //!< the tensor (or scalar) carrying it
    std::vector<Dir> dirs;  //!< one entry per band level, outer first
};

/** A detected reduction accumulator (T[idx] = T[idx] op ...). */
struct Reduction
{
    std::string target;          //!< accumulator tensor / scalar name
    std::vector<int> freeLevels; //!< band levels absent from the
                                 //!< accumulator subscripts: the
                                 //!< dimensions being summed over
};

/** Analysis of one top-level loop nest. */
struct NestInfo
{
    /** The maximal perfect band, outermost first. */
    std::vector<Loop> loops;

    /**
     * True when the innermost band body is straight-line (no further
     * `for` below the band). Imperfect nests keep their perfect prefix
     * band; accesses under deeper loops are analyzed conservatively.
     */
    bool perfect = true;

    /**
     * True when the analysis had to give up on precision somewhere a
     * write is involved (non-affine write subscript, non-band names in
     * subscripts of written tensors, over-deep band). Interchange is
     * conservatively rejected while this is set.
     */
    bool conservative = false;

    size_t affineAccesses = 0;
    size_t nonAffineAccesses = 0;

    std::vector<DirectionVector> deps;
    std::vector<Reduction> reductions;

    /** Human-readable notes (non-affine subscripts, imperfect shape). */
    std::vector<std::string> notes;

    int depth() const { return static_cast<int>(loops.size()); }
};

/**
 * Analyze one `for` statement (its maximal perfect band). Names in
 * `invariant` (scalar parameters) may appear in subscripts as symbolic
 * loop-invariant offsets; any other non-band name makes the subscript
 * NonAffine. Non-For statements yield an empty NestInfo.
 */
NestInfo analyzeNest(const StmtPtr& for_stmt,
                     const std::set<std::string>& invariant = {});

/** Analyze every top-level loop nest of an operator. */
std::vector<NestInfo> analyzeOperator(const Operator& op);

/**
 * True when swapping band levels `i` and `j` of the nest is provably
 * meaning-preserving: indices in range, no band bound referencing a
 * band variable, no conservative flag, no dependence vector turning
 * lexicographically negative, and no reduction accumulating over both
 * swapped levels (FP accumulation order must not move).
 */
bool interchangeLegal(const NestInfo& nest, int i, int j);

/**
 * Classify one subscript expression against the given enclosing loop
 * variables; `invariant` names are permitted symbolic offsets. Used by
 * the verifier to diagnose non-affine subscripts as warnings.
 */
AccessClass classifySubscript(const ExprPtr& idx,
                              const std::vector<std::string>& loop_vars,
                              const std::set<std::string>& invariant);

/** Per-nest summary row of scheduleReport. */
struct NestReport
{
    std::string op;          //!< operator name
    int depth = 0;
    bool perfect = true;
    size_t affineAccesses = 0;
    size_t nonAffineAccesses = 0;
    size_t dependences = 0;
    //! All (i, j), i < j, with interchangeLegal(nest, i, j).
    std::vector<std::pair<int, int>> legalPairs;
    std::vector<std::string> reductionTargets;
    std::vector<std::string> notes;
};

/** Whole-graph schedule diagnostic (profile_cli --schedule). */
struct ScheduleReport
{
    std::vector<NestReport> nests;
    uint64_t canonicalHash = 0; //!< the program key (dfir::canonicalHash)

    /** Render the program key, then one line per nest. */
    std::string str() const;
};

ScheduleReport scheduleReport(const DataflowGraph& g);

} // namespace dfir
} // namespace llmulator

#endif // LLMULATOR_DFIR_SCHEDULE_H
