#include "dfir/passes.h"

#include <algorithm>
#include <set>

#include "dfir/builder.h"
#include "dfir/printer.h"
#include "util/string_util.h"

namespace llmulator {
namespace dfir {

namespace {

/**
 * Copy-on-write handle on an immutable node: reads see the original
 * until the first edit() copies it, so a walk hands back every subtree
 * it leaves unchanged as is, shared with its input.
 */
template <typename T>
class Cow
{
  public:
    explicit Cow(std::shared_ptr<const T> node) : node_(std::move(node)) {}

    const T& get() const { return copy_ ? *copy_ : *node_; }

    T& edit()
    {
        if (!copy_)
            copy_ = std::make_shared<T>(*node_);
        return *copy_;
    }

    std::shared_ptr<const T> result() const
    {
        if (copy_)
            return copy_;
        return node_;
    }

  private:
    std::shared_ptr<const T> node_;
    std::shared_ptr<T> copy_;
};

/** Rewrite each operand of 'e' with 'fn'. */
template <typename Fn>
void
mapArgs(Cow<Expr>& e, Fn fn)
{
    const std::vector<ExprPtr>& args = e.get().args;
    for (size_t i = 0; i < args.size(); ++i)
        if (ExprPtr arg = fn(args[i]); arg != args[i])
            e.edit().args[i] = std::move(arg);
}

/**
 * Rewrite every expression of a statement with 'fn' and every child
 * statement with 'rec', in pre-order: target indices, rhs, cond and
 * loop bounds, then the then/else/loop bodies. Both rewriting walks
 * see names in this order.
 */
template <typename ExprFn, typename StmtFn>
StmtPtr
mapStmt(Cow<Stmt> s, ExprFn fn, StmtFn rec)
{
    const Stmt& in = s.get();
    for (size_t i = 0; i < in.targetIdx.size(); ++i)
        if (ExprPtr e = fn(in.targetIdx[i]); e != in.targetIdx[i])
            s.edit().targetIdx[i] = std::move(e);
    if (ExprPtr e = fn(in.rhs); e != in.rhs)
        s.edit().rhs = std::move(e);
    if (ExprPtr e = fn(in.cond); e != in.cond)
        s.edit().cond = std::move(e);
    if (in.kind == StmtKind::For)
        for (ExprPtr Loop::*bound : {&Loop::lower, &Loop::upper})
            if (ExprPtr e = fn(in.loop.*bound); e != in.loop.*bound)
                s.edit().loop.*bound = std::move(e);
    for (auto body : {&Stmt::thenBody, &Stmt::elseBody, &Stmt::body})
        for (size_t i = 0; i < (in.*body).size(); ++i)
            if (StmtPtr b = rec((in.*body)[i]); b != (in.*body)[i])
                (s.edit().*body)[i] = std::move(b);
    return s.result();
}

// ---------------------------------------------------------------------------
// normalizeExprKinds

/**
 * Fold a shape expression (loop bound or tensor dim) through its Binary
 * nodes. Only operators whose long-integer result matches the
 * simulator's double evaluation bit for bit on integer inputs are
 * folded: Div and Mod never are (estimateExpr truncates where evalExpr
 * divides exactly), and an Add, Sub or Mul that would overflow stays
 * unfolded, so a folded bound can never change a trip count or a
 * synthesized tensor size.
 */
ExprPtr
foldShapeExpr(const ExprPtr& e)
{
    if (!e || e->kind != ExprKind::Binary)
        return e;
    Cow<Expr> out(e);
    mapArgs(out, foldShapeExpr);
    const Expr& x = out.get();
    if (x.args.size() != 2 || x.args[0]->kind != ExprKind::Const ||
        x.args[1]->kind != ExprKind::Const)
        return out.result();
    long l = x.args[0]->constVal;
    long r = x.args[1]->constVal;
    long v = 0;
    switch (x.op) {
      case BinOp::Add:
      case BinOp::Sub:
      case BinOp::Mul:
        if (!checkedOp(x.op, l, r, &v))
            return out.result();
        break;
      case BinOp::Min: v = std::min(l, r); break;
      case BinOp::Max: v = std::max(l, r); break;
      case BinOp::Lt: v = l < r; break;
      case BinOp::Le: v = l <= r; break;
      case BinOp::Gt: v = l > r; break;
      case BinOp::Ge: v = l >= r; break;
      case BinOp::Eq: v = l == r; break;
      case BinOp::Ne: v = l != r; break;
      case BinOp::And: v = (l != 0) && (r != 0); break;
      case BinOp::Or: v = (l != 0) || (r != 0); break;
      case BinOp::Div:
      case BinOp::Mod:
        return out.result();
    }
    return c(v);
}

/**
 * Mirror the parser's name discipline: while walking an operator in
 * pre-order, a name reference is a LoopVar iff a for-loop of that name
 * has already opened (the parser registers induction variables as it
 * sees their headers and never retires them within a function), and a
 * Param otherwise. Kinds of Const / ArrayRef / Binary nodes are
 * untouched. The shape positions (tensor dims, loop bounds) are folded
 * on the way; dims keep their kinds.
 */
class KindNormalizer
{
  public:
    void run(Operator& op)
    {
        for (auto& t : op.tensors)
            for (auto& d : t.dims)
                d = foldShapeExpr(d);
        seen_.clear();
        for (auto& s : op.body)
            s = normalizeStmt(s);
    }

  private:
    StmtPtr normalizeStmt(const StmtPtr& s)
    {
        Cow<Stmt> out(s);
        if (s->kind == StmtKind::For) {
            seen_.insert(s->loop.var);
            for (ExprPtr Loop::*bound : {&Loop::lower, &Loop::upper})
                if (ExprPtr e = foldShapeExpr(s->loop.*bound);
                    e != s->loop.*bound)
                    out.edit().loop.*bound = std::move(e);
        }
        return mapStmt(
            std::move(out),
            [this](const ExprPtr& e) { return normalizeExpr(e); },
            [this](const StmtPtr& b) { return normalizeStmt(b); });
    }

    ExprPtr normalizeExpr(const ExprPtr& e)
    {
        if (!e)
            return e;
        Cow<Expr> out(e);
        mapArgs(out,
                [this](const ExprPtr& arg) { return normalizeExpr(arg); });
        if (e->kind == ExprKind::LoopVar || e->kind == ExprKind::Param) {
            ExprKind kind = seen_.count(e->name) ? ExprKind::LoopVar
                                                 : ExprKind::Param;
            if (kind != e->kind)
                out.edit().kind = kind;
        }
        return out.result();
    }

    std::set<std::string> seen_;
};

// ---------------------------------------------------------------------------
// eliminateDeadCode

/**
 * Evaluate a constants-only expression with the simulator's exact double
 * arithmetic (evalBinOp), so a branch decided on it is the one the
 * interpreter would have taken. False when any name appears.
 */
bool
constValue(const ExprPtr& e, double* out)
{
    if (e && e->kind == ExprKind::Const) {
        *out = static_cast<double>(e->constVal);
        return true;
    }
    double l, r;
    if (!e || e->kind != ExprKind::Binary || e->args.size() != 2 ||
        !constValue(e->args[0], &l) || !constValue(e->args[1], &r))
        return false;
    *out = evalBinOp(e->op, l, r);
    return true;
}

void
collectReadNames(const ExprPtr& e, std::set<std::string>& out)
{
    if (!e)
        return;
    // LoopVar reads resolve through the scalar environment when no loop
    // binds the name, so both kinds pin a scalar as live.
    if (e->kind == ExprKind::LoopVar || e->kind == ExprKind::Param)
        out.insert(e->name);
    for (const auto& arg : e->args)
        collectReadNames(arg, out);
}

void
collectStmtReads(const StmtPtr& s, std::set<std::string>& out)
{
    for (const auto& idx : s->targetIdx)
        collectReadNames(idx, out);
    collectReadNames(s->rhs, out);
    collectReadNames(s->cond, out);
    if (s->kind == StmtKind::For) {
        collectReadNames(s->loop.lower, out);
        collectReadNames(s->loop.upper, out);
    }
    for (const auto& b : s->thenBody)
        collectStmtReads(b, out);
    for (const auto& b : s->elseBody)
        collectStmtReads(b, out);
    for (const auto& b : s->body)
        collectStmtReads(b, out);
}

/** One DCE rewrite of a statement list; appends survivors to 'out'. */
void
dceBody(const std::vector<StmtPtr>& body, const std::set<std::string>& live,
        std::vector<StmtPtr>* out)
{
    for (const auto& s : body) {
        switch (s->kind) {
          case StmtKind::Assign: {
            // A scalar store whose name nothing in the graph ever reads
            // cannot influence any result; tensor stores always count
            // (tensors are the dataflow edges and the outputs).
            if (s->targetIdx.empty() && !live.count(s->target))
                continue;
            out->push_back(s);
            break;
          }
          case StmtKind::If: {
            double cond = 0;
            if (constValue(s->cond, &cond)) {
                dceBody(cond != 0.0 ? s->thenBody : s->elseBody, live, out);
                continue;
            }
            std::vector<StmtPtr> then_body, else_body;
            dceBody(s->thenBody, live, &then_body);
            dceBody(s->elseBody, live, &else_body);
            if (then_body.empty() && else_body.empty())
                continue; // branch with no effects either way
            if (then_body == s->thenBody && else_body == s->elseBody) {
                out->push_back(s); // untouched: keep the original node
                break;
            }
            auto copy = std::make_shared<Stmt>(*s);
            copy->thenBody = std::move(then_body);
            copy->elseBody = std::move(else_body);
            out->push_back(copy);
            break;
          }
          case StmtKind::For: {
            std::vector<StmtPtr> body;
            dceBody(s->body, live, &body);
            if (body.empty())
                continue; // empty loop has no effects
            if (body == s->body) {
                out->push_back(s);
                break;
            }
            auto copy = std::make_shared<Stmt>(*s);
            copy->body = std::move(body);
            out->push_back(copy);
            break;
          }
        }
    }
}

// ---------------------------------------------------------------------------
// renameCanonical

bool
isCommutative(BinOp op)
{
    switch (op) {
      case BinOp::Add: case BinOp::Mul: case BinOp::Min: case BinOp::Max:
      case BinOp::And: case BinOp::Or: case BinOp::Eq: case BinOp::Ne:
        return true;
      default:
        return false;
    }
}

/**
 * Canonical operand order of a commutative node: subtree hash, with the
 * printed form as a deterministic tie-break on the (rare) colliding
 * non-identical subtrees.
 */
bool
outOfOrder(const ExprPtr& l, const ExprPtr& r)
{
    uint64_t hl = exprHash(l);
    uint64_t hr = exprHash(r);
    return hl > hr || (hl == hr && printExpr(l) > printExpr(r));
}

class Renamer
{
  public:
    explicit Renamer(const DataflowGraph& g) : g_(g)
    {
        for (const auto& op : g.ops)
            for (const auto& t : op.tensors)
                reserved_.insert(t.name);
    }

    DataflowGraph run(std::map<std::string, std::string>* scalar_renames);

  private:
    Operator renameOp(const Operator& op);
    StmtPtr renameStmt(const StmtPtr& s);
    ExprPtr renameExpr(const ExprPtr& e);
    void numberTemps(const std::vector<StmtPtr>& body);

    /**
     * Next unused "<stem><n>". Tensor names are reserved: renaming
     * leaves them alone (the simulator keys synthesized pseudo-data by
     * tensor name). Skipped indices depend only on tensor names, so two
     * graphs with equal tensors number identically.
     */
    std::string fresh(const char* stem, int* counter) const
    {
        for (;;) {
            std::string name = util::format("%s%d", stem, (*counter)++);
            if (!reserved_.count(name))
                return name;
        }
    }

    /** Canonical name for a scalar (param first, then temp pool). */
    const std::string& scalarName(const std::string& name)
    {
        auto it = scalars_.find(name);
        if (it != scalars_.end())
            return it->second;
        return scalars_.emplace(name, fresh("t", &nextTemp_)).first->second;
    }

    /**
     * Canonical name for a LoopVar reference: its innermost enclosing
     * loop's. Out of scope, the interpreter falls back to the scalar
     * environment, so the name goes through the scalar pool.
     */
    const std::string& loopVarName(const std::string& name)
    {
        for (auto it = loopScope_.rbegin(); it != loopScope_.rend(); ++it)
            if (it->first == name)
                return it->second;
        return scalarName(name);
    }

    const DataflowGraph& g_;
    std::set<std::string> reserved_;
    std::map<std::string, std::string> opNames_;
    std::map<std::string, std::string> scalars_; //!< params + temps
    std::vector<std::pair<std::string, std::string>> loopScope_;
    int nextParam_ = 0;
    int nextTemp_ = 0;
    int nextLoop_ = 0; //!< reset per operator
};

DataflowGraph
Renamer::run(std::map<std::string, std::string>* scalar_renames)
{
    // Operators: op0, op1, ... in first-call order; operators that are
    // never called (possible when DCE was skipped) extend the sequence
    // in definition order.
    int op_counter = 0;
    for (const auto& call : g_.calls)
        if (g_.findOp(call.opName) && !opNames_.count(call.opName))
            opNames_.emplace(call.opName, fresh("op", &op_counter));
    for (const auto& op : g_.ops)
        if (!opNames_.count(op.name))
            opNames_.emplace(op.name, fresh("op", &op_counter));

    // Scalar parameters: p0, p1, ... graph-wide in declaration order,
    // visiting operators in their canonical (first-call) order so the
    // numbering is independent of definition order. A name declared by
    // several operators is the same runtime scalar and keeps one id.
    std::vector<const Operator*> op_order;
    {
        std::set<std::string> queued;
        for (const auto& call : g_.calls) {
            const Operator* op = g_.findOp(call.opName);
            if (op && queued.insert(op->name).second)
                op_order.push_back(op);
        }
        for (const auto& op : g_.ops)
            if (queued.insert(op.name).second)
                op_order.push_back(&op);
    }
    for (const Operator* op : op_order)
        for (const auto& sp : op->scalarParams)
            if (!scalars_.count(sp))
                scalars_.emplace(sp, fresh("p", &nextParam_));
    for (const Operator* op : op_order)
        numberTemps(op->body);

    DataflowGraph out;
    out.name = "canonical";
    out.params = g_.params;
    // Definitions are re-ordered to the canonical operator order, so
    // call-order-only permutations of the same definitions unify. Every
    // metric consumer walks calls, not definitions, so this is free.
    for (const Operator* op : op_order)
        out.ops.push_back(renameOp(*op));
    for (const auto& call : g_.calls) {
        auto it = opNames_.find(call.opName);
        out.calls.push_back(
            {it != opNames_.end() ? it->second : call.opName});
    }
    if (scalar_renames)
        *scalar_renames = std::move(scalars_);
    return out;
}

/**
 * Scalar temps: t0, t1, ... by assignment-statement pre-order. Numbering
 * from assignments (never from reads) keeps ids invariant under operand
 * reordering, which is what lets one walk both rename and sort.
 */
void
Renamer::numberTemps(const std::vector<StmtPtr>& body)
{
    for (const auto& s : body) {
        if (s->kind == StmtKind::Assign && s->targetIdx.empty())
            scalarName(s->target);
        numberTemps(s->thenBody);
        numberTemps(s->elseBody);
        numberTemps(s->body);
    }
}

Operator
Renamer::renameOp(const Operator& op)
{
    Operator out;
    out.name = opNames_.at(op.name);
    out.tensors = op.tensors; // names intentionally stable
    for (auto& t : out.tensors)
        for (auto& d : t.dims)
            d = renameExpr(d);
    for (const auto& sp : op.scalarParams)
        out.scalarParams.push_back(scalarName(sp));
    nextLoop_ = 0;
    loopScope_.clear();
    for (const auto& s : op.body)
        out.body.push_back(renameStmt(s));
    return out;
}

StmtPtr
Renamer::renameStmt(const StmtPtr& s)
{
    Cow<Stmt> out(s);
    const bool loop = s->kind == StmtKind::For;
    if (loop) {
        out.edit().loop.var = fresh("i", &nextLoop_);
        loopScope_.emplace_back(s->loop.var, out.get().loop.var);
    } else if (s->kind == StmtKind::Assign && s->targetIdx.empty()) {
        out.edit().target = scalarName(s->target);
    }
    StmtPtr result = mapStmt(
        std::move(out), [this](const ExprPtr& e) { return renameExpr(e); },
        [this](const StmtPtr& b) { return renameStmt(b); });
    if (loop)
        loopScope_.pop_back();
    return result;
}

/**
 * Rename a subtree bottom-up, putting each commutative node's operands
 * in canonical order once they are final: names never depend on
 * operand order, so sorting here equals sorting the renamed tree.
 */
ExprPtr
Renamer::renameExpr(const ExprPtr& e)
{
    if (!e)
        return e;
    Cow<Expr> out(e);
    mapArgs(out, [this](const ExprPtr& arg) { return renameExpr(arg); });
    if (e->kind == ExprKind::LoopVar || e->kind == ExprKind::Param) {
        const std::string& name = e->kind == ExprKind::LoopVar
                                      ? loopVarName(e->name)
                                      : scalarName(e->name);
        if (name != e->name)
            out.edit().name = name;
    }
    const Expr& x = out.get();
    if (x.kind == ExprKind::Binary && x.args.size() == 2 &&
        isCommutative(x.op) && outOfOrder(x.args[0], x.args[1])) {
        Expr& sorted = out.edit();
        std::swap(sorted.args[0], sorted.args[1]);
    }
    return out.result();
}

} // namespace

DataflowGraph
normalizeExprKinds(DataflowGraph g)
{
    KindNormalizer norm;
    for (auto& op : g.ops)
        norm.run(op);
    return g;
}

DataflowGraph
eliminateDeadCode(DataflowGraph g)
{
    // Definitions that are never called produce no cycles, area or
    // power (the simulator executes calls; the HLS compiler lowers
    // called operators), so dropping them is metric-free.
    std::set<std::string> called;
    for (const auto& call : g.calls)
        called.insert(call.opName);
    g.ops.erase(std::remove_if(g.ops.begin(), g.ops.end(),
                               [&called](const Operator& op) {
                                   return !called.count(op.name);
                               }),
                g.ops.end());

    // Each round can expose more dead code (a removed reader kills its
    // producers), so iterate to a fixed point; rounds are bounded by
    // the number of statements.
    for (;;) {
        std::set<std::string> live;
        for (const auto& op : g.ops) {
            for (const auto& t : op.tensors)
                for (const auto& d : t.dims)
                    collectReadNames(d, live);
            for (const auto& s : op.body)
                collectStmtReads(s, live);
        }
        bool changed = false;
        for (auto& op : g.ops) {
            std::vector<StmtPtr> body;
            dceBody(op.body, live, &body);
            changed = changed || body != op.body;
            op.body = std::move(body);
        }
        if (!changed)
            return g;
    }
}

DataflowGraph
renameCanonical(const DataflowGraph& g,
                std::map<std::string, std::string>* scalar_renames)
{
    return Renamer(g).run(scalar_renames);
}

CanonResult
canonicalizeEx(const DataflowGraph& g)
{
    // Order matters: kinds are settled before DCE, which can delete the
    // loop whose opening made a later read of its name a LoopVar, and
    // dead code is removed before renaming so dead statements cannot
    // perturb the numbering.
    CanonResult res;
    res.graph = renameCanonical(eliminateDeadCode(normalizeExprKinds(g)),
                                &res.scalarRenames);
    return res;
}

DataflowGraph
canonicalize(const DataflowGraph& g)
{
    return canonicalizeEx(g).graph;
}

uint64_t
canonicalHash(const DataflowGraph& g)
{
    return structuralHash(canonicalizeEx(g).graph);
}

RuntimeData
remapRuntimeData(const RuntimeData& data,
                 const std::map<std::string, std::string>& scalar_renames)
{
    RuntimeData out;
    out.tensors = data.tensors;
    for (const auto& [name, value] : data.scalars) {
        auto it = scalar_renames.find(name);
        out.scalars[it != scalar_renames.end() ? it->second : name] =
            value;
    }
    return out;
}

} // namespace dfir
} // namespace llmulator
