#ifndef LLMULATOR_DFIR_SCHEDULE_H
#define LLMULATOR_DFIR_SCHEDULE_H

/**
 * @file
 * Schedule-aware dependence analysis over the dataflow IR.
 *
 * PR 6's canonicalization pipeline deliberately stopped at rewrites a
 * pure semantics argument covers (renames, commuted operands, dead
 * code). Equivalences that change the *schedule* — loop-interchange
 * families like the accelerator GEMM variants — need a dependence
 * argument: an interchange is only meaning-preserving when no
 * loop-carried dependence flips direction under it. This module
 * provides that argument as a static analysis:
 *
 *  - nest extraction: the maximal perfect loop band of each top-level
 *    `for` (outer loops whose body is exactly one nested `for`), with
 *    imperfect remainders classified, never rejected;
 *  - access classification: every array subscript is linearized over
 *    the band's induction variables; anything the linearizer cannot
 *    express as sum(coeff * loopvar) + invariant is AccessClass::
 *    NonAffine — a diagnostic note, never an assert — and analyzed
 *    conservatively;
 *  - read/write footprints per tensor and direction vectors for every
 *    same-tensor access pair with at least one write (per-dimension
 *    coefficient/GCD tests, pruned to lexicographically positive
 *    loop-carried vectors);
 *  - interchangeLegal(nest, i, j): no kept direction vector becomes
 *    lexicographically negative when levels i and j swap, no band
 *    bound references a band variable, and — preserving the repo's
 *    bit-identity culture — no floating-point reduction accumulates
 *    over both swapped loops (detectReductions flags accumulators of
 *    the form T[idx] = T[idx] op ..., op in {+, *, min, max});
 *
 * and a schedule-family key built on top of it:
 *
 *  - scheduleCanonicalize(g): canonicalize, neutralize mapping knobs
 *    (unroll/parallel pragmas, hardware parameters), sort every legal
 *    interchange band into a canonical loop order (legality-gated
 *    bubble sort by a name-independent per-loop signature), rename
 *    tensors positionally (T0, T1, ... by first use) and break
 *    symmetric-operand ties with a tensor-name-blind operand order;
 *  - scheduleFamilyHash(g): structuralHash of that representative.
 *
 * The family hash is ANALYSIS-ONLY, by contract: it renames tensors,
 * which the exact pipeline must never do (the simulator synthesizes
 * pseudo-data keyed by tensor name, so a tensor rename changes ground
 * truth), and it erases mapping knobs that move cycles. It therefore
 * never keys the serve result cache or the model cache — those stay on
 * dfir::canonicalHash bit for bit. Its consumers are statistics and
 * diagnostics: family hit-rate reporting (bench_dfir_canon), dataset
 * dedup stats (synth::datasetStats) and the profile_cli --schedule
 * report.
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

/** Read/write footprint of one tensor (or written scalar) in a nest. */
struct Footprint
{
    std::string tensor;
    size_t reads = 0;          //!< read references in the nest
    size_t writes = 0;         //!< write references in the nest
    size_t nonAffineRefs = 0;  //!< references classified NonAffine
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

    std::vector<Footprint> footprints;
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

/** Convenience: legality within op's nest_index-th top-level nest. */
bool interchangeLegal(const Operator& op, int nest_index, int i, int j);

/**
 * Classify one subscript expression against the given enclosing loop
 * variables; `invariant` names are permitted symbolic offsets. Used by
 * the verifier to diagnose non-affine subscripts as warnings.
 */
AccessClass classifySubscript(const ExprPtr& idx,
                              const std::vector<std::string>& loop_vars,
                              const std::set<std::string>& invariant);

/**
 * The schedule-family representative: canonicalize, erase mapping
 * knobs (unroll/parallel, hardware params), sort legal interchange
 * bands into canonical order, rename tensors positionally and order
 * symmetric operands tensor-blind. ANALYSIS-ONLY — see the file
 * comment; never feed this to the simulator or a result-cache key.
 */
DataflowGraph scheduleCanonicalize(const DataflowGraph& g);

/**
 * structuralHash(scheduleCanonicalize(g)): one key per schedule
 * family. All legal-interchange variants of a nest (e.g. the
 * accelerator GEMM loop orders), tensor renamings and mapping-knob
 * variations of one kernel collide; programs whose interchange is
 * dependence-blocked do not.
 */
uint64_t scheduleFamilyHash(const DataflowGraph& g);

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
    uint64_t canonicalHash = 0; //!< the exact cache key (unchanged)
    uint64_t familyHash = 0;    //!< the analysis-only family key

    /** Render one line per nest plus the two hashes. */
    std::string str() const;
};

ScheduleReport scheduleReport(const DataflowGraph& g);

} // namespace dfir
} // namespace llmulator

#endif // LLMULATOR_DFIR_SCHEDULE_H
