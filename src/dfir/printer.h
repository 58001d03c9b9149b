#ifndef LLMULATOR_DFIR_PRINTER_H
#define LLMULATOR_DFIR_PRINTER_H

/**
 * @file
 * C-like rendering of dataflow programs — the textual model input.
 *
 * The rendering mirrors the paper's static/dynamic input split
 * (Section 5.2):
 *  - printStatic() renders {G, Op, Params}: graph function, operator
 *    bodies with pragmas, and the hardware parameter block
 *    ("-mem-read-delay=10" style).
 *  - printData() renders the runtime "data" segment as
 *    "[name] = [value]" scalar lines (Section 3).
 */

#include <string>

#include "dfir/ir.h"

namespace llmulator {
namespace dfir {

/** Render a scalar expression. */
std::string printExpr(const ExprPtr& e);

/** Render a statement tree with indentation. */
std::string printStmt(const StmtPtr& s, int indent = 0);

/** Render one operator as a C function with mapping pragmas. */
std::string printOperator(const Operator& op);

/** Render the graph function: "void dataflow() {" and one call a line. */
std::string printGraphFunction(const DataflowGraph& g);

/** Render the hardware parameter block ("-mem-read-delay=10" lines). */
std::string printParams(const HardwareParams& params);

/** Render {G, Op, Params} (no runtime data). */
std::string printStatic(const DataflowGraph& g);

/** Render only the runtime-data segment ("N = 64" lines). */
std::string printData(const RuntimeData& data);

} // namespace dfir
} // namespace llmulator

#endif // LLMULATOR_DFIR_PRINTER_H
