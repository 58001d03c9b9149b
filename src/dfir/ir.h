#ifndef LLMULATOR_DFIR_IR_H
#define LLMULATOR_DFIR_IR_H

/**
 * @file
 * Dataflow intermediate representation.
 *
 * This IR plays the role of the paper's C-based dataflow programs: a
 * DataflowGraph is the quadruple {G, Op, Params, data} of Section 3 —
 * a graph program invoking operator implementations under hardware mapping
 * parameters, optionally with runtime input data.
 *
 * The same IR instance feeds every consumer in the repository:
 *  - the pretty printer renders it to C-like text (the LLM input),
 *  - the HLS compiler lowers it to RTL-level features (static metrics),
 *  - the cycle simulator executes it on concrete inputs (dynamic metrics),
 *  - the analyses derive Class I/II control-flow labels, handcrafted
 *    features (Tenset-MLP) and program graphs (GNNHLS).
 *
 * Expressions and statements are immutable trees held by shared_ptr; the
 * builder functions in builder.h make hand-written workloads readable.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace llmulator {
namespace dfir {

/** Binary operator kinds (arithmetic + comparisons + logic). */
enum class BinOp
{
    Add, Sub, Mul, Div, Mod, Min, Max,
    Lt, Le, Gt, Ge, Eq, Ne, And, Or
};

/** True for comparison / logic operators (1-bit results). */
bool isPredicate(BinOp op);

/** C-like spelling ("+", "<", "min", ...). */
const char* binOpName(BinOp op);

/**
 * The simulator's double arithmetic for one binary node: Div and Mod by
 * zero read 0, comparisons and logic read 0 or 1. Dead-code elimination
 * decides constant branches with it, so it drops exactly the branch
 * the interpreter would skip.
 */
double evalBinOp(BinOp op, double l, double r);

/**
 * *out = a op b for op in {Add, Sub, Mul}; false when the exact result
 * leaves [-LONG_MAX, LONG_MAX]. Literals come from untrusted program
 * text, so every `long` fold of them (shape folding, subscript
 * linearization) goes through here; excluding LONG_MIN, whose negation
 * overflows, lets callers negate or take |x| of any result.
 */
bool checkedOp(BinOp op, long a, long b, long* out);

/**
 * a + b, a - b and a * b clamped to [LONG_MIN, LONG_MAX]: a result past
 * either end reads as that end, and every result that fits is exact.
 * The simulator's trip counts and cycle sums and the analysis's loop
 * estimates fold untrusted literals through these.
 */
long satAdd(long a, long b);
long satSub(long a, long b);
long satMul(long a, long b);

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/** Expression node kinds. */
enum class ExprKind
{
    Const,    //!< integer literal
    LoopVar,  //!< enclosing loop induction variable
    Param,    //!< named scalar parameter (static or runtime/dynamic)
    ArrayRef, //!< tensor element access
    Binary    //!< binary operation
};

/** Immutable scalar expression tree. */
struct Expr
{
    ExprKind kind = ExprKind::Const;
    long constVal = 0;            //!< Const payload
    std::string name;             //!< LoopVar / Param / ArrayRef base name
    std::vector<ExprPtr> args;    //!< ArrayRef indices or Binary operands
    BinOp op = BinOp::Add;        //!< Binary payload
};

struct Stmt;
using StmtPtr = std::shared_ptr<const Stmt>;

/** Loop header with hardware-mapping pragmas. */
struct Loop
{
    std::string var;      //!< induction variable name
    ExprPtr lower;        //!< inclusive lower bound
    ExprPtr upper;        //!< exclusive upper bound
    int step = 1;         //!< positive stride
    int unroll = 1;       //!< #pragma clang loop unroll factor (1 = none)
    bool parallel = false;//!< #pragma omp parallel for (spatial mapping)
};

/** Statement node kinds. */
enum class StmtKind { Assign, If, For };

/** Immutable statement tree. */
struct Stmt
{
    StmtKind kind = StmtKind::Assign;

    // Assign: target[targetIdx...] = rhs. Empty targetIdx = scalar variable.
    std::string target;
    std::vector<ExprPtr> targetIdx;
    ExprPtr rhs;

    // If
    ExprPtr cond;
    std::vector<StmtPtr> thenBody;
    std::vector<StmtPtr> elseBody;

    // For
    Loop loop;
    std::vector<StmtPtr> body;
};

/** Tensor (array) declaration; dims may reference scalar params. */
struct TensorDecl
{
    std::string name;
    std::vector<ExprPtr> dims;
};

/**
 * An operator implementation: the paper's "Op" — a C function made of loop
 * nests, array operations and (possibly input-dependent) control flow.
 */
struct Operator
{
    std::string name;
    std::vector<TensorDecl> tensors;        //!< arrays touched by the body
    std::vector<std::string> scalarParams;  //!< scalar arguments
    std::vector<StmtPtr> body;
};

/**
 * Hardware mapping and memory parameters ("Params" of the quadruple).
 * Matches the paper's Bambu-style knobs (Section 6.3): memory delays plus
 * the loop-mapping pragmas carried on Loop nodes.
 */
struct HardwareParams
{
    int memReadDelay = 10;  //!< cycles per (unpipelined) memory read
    int memWriteDelay = 10; //!< cycles per memory write
    int readPorts = 2;      //!< concurrent reads per cycle
    int writePorts = 1;     //!< concurrent writes per cycle
    double clockGhz = 0.5;  //!< target clock (power roll-up only)
};

/**
 * Runtime input data ("data" of the quadruple): named scalars (rendered as
 * "[name] = [value]" in the model input) plus concrete tensor payloads the
 * simulator executes on.
 */
struct RuntimeData
{
    std::map<std::string, long> scalars;
    std::map<std::string, std::vector<double>> tensors;
};

/** An invocation of an operator inside the top-level dataflow function. */
struct OpCall
{
    std::string opName;
};

/**
 * A complete dataflow program: operators + top-level invocation sequence +
 * hardware parameters. Tensors are shared by name across operators (the
 * dataflow edges of the graph).
 */
struct DataflowGraph
{
    std::string name;
    std::vector<Operator> ops;
    std::vector<OpCall> calls;
    HardwareParams params;

    /** Find an operator by name; nullptr if absent. */
    const Operator* findOp(const std::string& op_name) const;
};

/** Structural 64-bit hash of a graph (used for model-cache keys). */
uint64_t structuralHash(const DataflowGraph& g);

/**
 * Structural hash of one expression subtree (the same combination the
 * graph hash uses; exposed for canonicalization, which orders
 * commutative operands by it).
 */
uint64_t exprHash(const ExprPtr& e);

} // namespace dfir
} // namespace llmulator

#endif // LLMULATOR_DFIR_IR_H
