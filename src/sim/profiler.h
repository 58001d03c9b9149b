#ifndef LLMULATOR_SIM_PROFILER_H
#define LLMULATOR_SIM_PROFILER_H

/**
 * @file
 * Input-sensitive cycle-accounting simulator — the repository's substitute
 * for the paper's Verilator runs, and the source of all ground-truth labels
 * (the "GroundTruth" baseline of Section 7.1).
 *
 * The interpreter *executes* the dataflow program on concrete runtime data,
 * so cycle counts depend on real control flow: data-dependent branches take
 * their actual arms, dynamic loop bounds resolve against the provided
 * scalars/tensors, and the executed-path costs accumulate.
 *
 * Cycle model (deterministic, documented so tests can pin it down):
 *  - Assignment: sum of functional-unit latencies on the RHS plus memory
 *    time ceil(reads/readPorts)*memReadDelay +
 *    ceil(writes/writePorts)*memWriteDelay (minimum 1 cycle). Scalar
 *    assignments pay no memory time (register file).
 *  - If: condition cost + 1 branch cycle + the taken arm only.
 *  - Innermost loops whose bodies are straight-line assignments are
 *    pipelined: cycles = fill depth + II * (trips - 1), II bounded by port
 *    pressure and loop-carried accumulation; unroll/parallel pragmas divide
 *    the steady-state term (lanes capped at 8).
 *  - Loops containing branches or nested loops are not pipelined (per-
 *    iteration sequential cost + 1 counter cycle), matching how HLS tools
 *    lose pipelining under irregular control flow. Unroll/parallel divide
 *    the total.
 *  - Loops beyond 4096 trips execute a prefix exactly and
 *    extrapolate the remainder from the observed mean (keeps pathological
 *    synthesized programs bounded).
 *  - A scalar parameter the runtime data leaves unbound reads 16.
 *
 * Static metrics (power/area/FF) come from hls::compile and are merged into
 * the returned Profile, so one call yields the full target vector
 * <Power, Area, FlipFlops, Cycles> of Section 3.
 */

#include "dfir/ir.h"
#include "hls/compile.h"

namespace llmulator {
namespace sim {

/** Full profiling result for one (program, input) pair. */
struct Profile
{
    long cycles = 0;          //!< dynamic metric (input-dependent)
    double powerUw = 0;       //!< static metric
    double areaUm2 = 0;       //!< static metric
    long flipFlops = 0;       //!< static metric
    long branchesTaken = 0;   //!< executed If statements, then-arm
    long branchesNotTaken = 0;//!< executed If statements, else-arm
    long stmtsExecuted = 0;   //!< interpreter work (diagnostics)
    hls::RtlFeatures rtl;     //!< RTL features (reasoning data format)
};

/** Profile a dataflow program on concrete runtime data. */
Profile profile(const dfir::DataflowGraph& g, const dfir::RuntimeData& data);

/** Convenience: profile with empty runtime data (defaults synthesized). */
Profile profileStatic(const dfir::DataflowGraph& g);

} // namespace sim
} // namespace llmulator

#endif // LLMULATOR_SIM_PROFILER_H
