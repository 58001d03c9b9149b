#ifndef LLMULATOR_DFIR_PARSER_H
#define LLMULATOR_DFIR_PARSER_H

/**
 * @file
 * Parser for the C-like dataflow text emitted by dfir/printer.h.
 *
 * printStatic() / parseProgram() form a round-trip pair: programs can be
 * stored as plain text (the same text the cost model consumes), edited by
 * hand, and loaded back into the IR for profiling and prediction — which
 * is how the CLI example drives the library on user-supplied kernels.
 *
 * Grammar (informally, exactly the printer's output language):
 *
 *   program    := (operator | dataflow | hwparam | dataline)*
 *   operator   := "void" IDENT "(" params ")" "{" stmt* "}"
 *   params     := ("float" IDENT dims | "int" IDENT) ("," ...)*
 *   dataflow   := "void" "dataflow" "(" ")" "{" (IDENT "(" ")" ";")* "}"
 *   stmt       := pragma* "for" "(" "int" IDENT "=" expr ";" IDENT "<"
 *                 expr ";" IDENT "+=" INT ")" "{" stmt* "}"
 *               | "if" "(" expr ")" "{" stmt* "}" ["else" "{" stmt* "}"]
 *               | IDENT dims? "=" expr ";"
 *   expr       := comparison with +,-,*,/,%,min(),max(),<,<=,>,>=,==,!=
 *   hwparam    := "-mem-read-delay=" INT | "-mem-write-delay=" INT
 *               | "-read-ports=" INT | "-write-ports=" INT
 *   dataline   := IDENT "=" INT            (runtime scalar data)
 *
 * Errors are reported via ParseResult (no exceptions): message + line.
 *
 * Program text may come from a socket, so nesting is bounded: every walk
 * over the IR (verify, canonicalize, hash, print, profile, the trees'
 * own destructors) recurses on it, and must fit a thread's stack. The
 * parser stops with an error naming the limit once an expression or the
 * statement nesting grows past it. Both limits sit far above the deepest
 * program the workloads, their equivalent mutants and the synthesizer
 * produce (expression height 6, statement nesting 4).
 */

#include <string>

#include "dfir/ir.h"
#include "dfir/verify.h"

namespace llmulator {
namespace dfir {

/**
 * The most nodes on a root-to-leaf path of a parsed expression tree; it
 * also bounds how deep parentheses, subscripts and min/max calls nest
 * inside one expression.
 */
constexpr int kMaxExprHeight = 256;

/** The deepest nesting of for/if statements; top-level statements are 1. */
constexpr int kMaxStmtDepth = 64;

/** Outcome of a parse. */
struct ParseResult
{
    bool ok = false;
    std::string error;      //!< empty when ok
    int errorLine = 0;      //!< 1-based line of the first error
    DataflowGraph graph;
    RuntimeData data;       //!< scalar data lines, if any
    //! Verifier findings on the parsed graph (populated when ok).
    //! Syntactically valid text can still be semantically malformed;
    //! diagnostics do not flip `ok` — callers choose their strictness.
    VerifyResult diagnostics;
};

/** Parse a whole program (static text, optionally with data lines). */
ParseResult parseProgram(const std::string& text);

/** Parse a single scalar expression (exposed for tests). */
ExprPtr parseExpr(const std::string& text, std::string* error = nullptr);

} // namespace dfir
} // namespace llmulator

#endif // LLMULATOR_DFIR_PARSER_H
