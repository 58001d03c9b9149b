#include "dfir/ir.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace llmulator {
namespace dfir {

bool
isPredicate(BinOp op)
{
    switch (op) {
      case BinOp::Lt: case BinOp::Le: case BinOp::Gt: case BinOp::Ge:
      case BinOp::Eq: case BinOp::Ne: case BinOp::And: case BinOp::Or:
        return true;
      default:
        return false;
    }
}

const char*
binOpName(BinOp op)
{
    switch (op) {
      case BinOp::Add: return "+";
      case BinOp::Sub: return "-";
      case BinOp::Mul: return "*";
      case BinOp::Div: return "/";
      case BinOp::Mod: return "%";
      case BinOp::Min: return "min";
      case BinOp::Max: return "max";
      case BinOp::Lt: return "<";
      case BinOp::Le: return "<=";
      case BinOp::Gt: return ">";
      case BinOp::Ge: return ">=";
      case BinOp::Eq: return "==";
      case BinOp::Ne: return "!=";
      case BinOp::And: return "&&";
      case BinOp::Or: return "||";
    }
    return "?";
}

double
evalBinOp(BinOp op, double l, double r)
{
    switch (op) {
      case BinOp::Add: return l + r;
      case BinOp::Sub: return l - r;
      case BinOp::Mul: return l * r;
      case BinOp::Div: return r != 0.0 ? l / r : 0.0;
      case BinOp::Mod: return r != 0.0 ? std::fmod(l, r) : 0.0;
      case BinOp::Min: return std::min(l, r);
      case BinOp::Max: return std::max(l, r);
      case BinOp::Lt: return l < r;
      case BinOp::Le: return l <= r;
      case BinOp::Gt: return l > r;
      case BinOp::Ge: return l >= r;
      case BinOp::Eq: return l == r;
      case BinOp::Ne: return l != r;
      case BinOp::And: return (l != 0) && (r != 0);
      case BinOp::Or: return (l != 0) || (r != 0);
    }
    return 0.0;
}

bool
checkedOp(BinOp op, long a, long b, long* out)
{
    bool overflow = op == BinOp::Add   ? __builtin_add_overflow(a, b, out)
                    : op == BinOp::Sub ? __builtin_sub_overflow(a, b, out)
                                       : __builtin_mul_overflow(a, b, out);
    return !overflow && *out != std::numeric_limits<long>::min();
}

long
satAdd(long a, long b)
{
    long r;
    if (!__builtin_add_overflow(a, b, &r))
        return r;
    return b > 0 ? std::numeric_limits<long>::max()
                 : std::numeric_limits<long>::min();
}

long
satSub(long a, long b)
{
    long r;
    if (!__builtin_sub_overflow(a, b, &r))
        return r;
    return b < 0 ? std::numeric_limits<long>::max()
                 : std::numeric_limits<long>::min();
}

long
satMul(long a, long b)
{
    long r;
    if (!__builtin_mul_overflow(a, b, &r))
        return r;
    return (a < 0) == (b < 0) ? std::numeric_limits<long>::max()
                              : std::numeric_limits<long>::min();
}

const Operator*
DataflowGraph::findOp(const std::string& op_name) const
{
    for (const auto& op : ops)
        if (op.name == op_name)
            return &op;
    return nullptr;
}

namespace {

uint64_t
hashExpr(const ExprPtr& e)
{
    using util::hashCombine;
    using util::fnv1a;
    if (!e)
        return 0x55aa;
    uint64_t h = hashCombine(static_cast<uint64_t>(e->kind),
                             static_cast<uint64_t>(e->op));
    h = hashCombine(h, static_cast<uint64_t>(e->constVal));
    h = hashCombine(h, fnv1a(e->name));
    for (const auto& arg : e->args)
        h = hashCombine(h, hashExpr(arg));
    return h;
}

uint64_t
hashStmt(const StmtPtr& s)
{
    using util::hashCombine;
    using util::fnv1a;
    uint64_t h = static_cast<uint64_t>(s->kind);
    h = hashCombine(h, fnv1a(s->target));
    for (const auto& idx : s->targetIdx)
        h = hashCombine(h, hashExpr(idx));
    h = hashCombine(h, hashExpr(s->rhs));
    h = hashCombine(h, hashExpr(s->cond));
    for (const auto& b : s->thenBody)
        h = hashCombine(h, hashStmt(b));
    for (const auto& b : s->elseBody)
        h = hashCombine(h, hashStmt(b));
    if (s->kind == StmtKind::For) {
        h = hashCombine(h, fnv1a(s->loop.var));
        h = hashCombine(h, hashExpr(s->loop.lower));
        h = hashCombine(h, hashExpr(s->loop.upper));
        h = hashCombine(h, static_cast<uint64_t>(s->loop.step));
        h = hashCombine(h, static_cast<uint64_t>(s->loop.unroll));
        h = hashCombine(h, static_cast<uint64_t>(s->loop.parallel));
    }
    for (const auto& b : s->body)
        h = hashCombine(h, hashStmt(b));
    return h;
}

} // namespace

uint64_t
exprHash(const ExprPtr& e)
{
    return hashExpr(e);
}

uint64_t
structuralHash(const DataflowGraph& g)
{
    using util::hashCombine;
    using util::fnv1a;
    uint64_t h = fnv1a(g.name);
    for (const auto& op : g.ops) {
        h = hashCombine(h, fnv1a(op.name));
        for (const auto& t : op.tensors) {
            h = hashCombine(h, fnv1a(t.name));
            for (const auto& d : t.dims)
                h = hashCombine(h, hashExpr(d));
        }
        for (const auto& sp : op.scalarParams)
            h = hashCombine(h, fnv1a(sp));
        for (const auto& s : op.body)
            h = hashCombine(h, hashStmt(s));
    }
    for (const auto& call : g.calls)
        h = hashCombine(h, fnv1a(call.opName));
    h = hashCombine(h, static_cast<uint64_t>(g.params.memReadDelay));
    h = hashCombine(h, static_cast<uint64_t>(g.params.memWriteDelay));
    h = hashCombine(h, static_cast<uint64_t>(g.params.readPorts));
    h = hashCombine(h, static_cast<uint64_t>(g.params.writePorts));
    return h;
}

} // namespace dfir
} // namespace llmulator
