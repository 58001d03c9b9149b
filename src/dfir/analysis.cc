#include "dfir/analysis.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/common.h"

namespace llmulator {
namespace dfir {

namespace {

/** Does the expression reference any Param or ArrayRef? */
bool
referencesRuntime(const ExprPtr& e)
{
    if (!e)
        return false;
    if (e->kind == ExprKind::Param || e->kind == ExprKind::ArrayRef)
        return true;
    for (const auto& arg : e->args)
        if (referencesRuntime(arg))
            return true;
    return false;
}

bool
stmtHasRuntimeControlFlow(const StmtPtr& s)
{
    switch (s->kind) {
      case StmtKind::Assign:
        return false;
      case StmtKind::If: {
        if (referencesRuntime(s->cond))
            return true;
        for (const auto& b : s->thenBody)
            if (stmtHasRuntimeControlFlow(b))
                return true;
        for (const auto& b : s->elseBody)
            if (stmtHasRuntimeControlFlow(b))
                return true;
        return false;
      }
      case StmtKind::For: {
        if (referencesRuntime(s->loop.lower) ||
            referencesRuntime(s->loop.upper))
            return true;
        for (const auto& b : s->body)
            if (stmtHasRuntimeControlFlow(b))
                return true;
        return false;
      }
    }
    return false;
}

void
collectControlParams(const ExprPtr& e, std::set<std::string>& out)
{
    if (!e)
        return;
    if (e->kind == ExprKind::Param)
        out.insert(e->name);
    for (const auto& arg : e->args)
        collectControlParams(arg, out);
}

void
collectStmtControlParams(const StmtPtr& s, std::set<std::string>& out)
{
    switch (s->kind) {
      case StmtKind::Assign:
        return;
      case StmtKind::If:
        collectControlParams(s->cond, out);
        for (const auto& b : s->thenBody)
            collectStmtControlParams(b, out);
        for (const auto& b : s->elseBody)
            collectStmtControlParams(b, out);
        return;
      case StmtKind::For:
        collectControlParams(s->loop.lower, out);
        collectControlParams(s->loop.upper, out);
        for (const auto& b : s->body)
            collectStmtControlParams(b, out);
        return;
    }
}

/** Per-statement operation histogram used by features and graph nodes. */
struct OpCounts
{
    int adds = 0, muls = 0, divs = 0, cmps = 0;
    int reads = 0, writes = 0;
};

void
countExpr(const ExprPtr& e, OpCounts& oc)
{
    if (!e)
        return;
    if (e->kind == ExprKind::ArrayRef) {
        ++oc.reads;
    } else if (e->kind == ExprKind::Binary) {
        switch (e->op) {
          case BinOp::Add: case BinOp::Sub:
          case BinOp::Min: case BinOp::Max:
            ++oc.adds;
            break;
          case BinOp::Mul:
            ++oc.muls;
            break;
          case BinOp::Div: case BinOp::Mod:
            ++oc.divs;
            break;
          default:
            ++oc.cmps;
            break;
        }
    }
    for (const auto& arg : e->args)
        countExpr(arg, oc);
}

} // namespace

ControlFlowClass
classifyOperator(const Operator& op)
{
    for (const auto& s : op.body)
        if (stmtHasRuntimeControlFlow(s))
            return ControlFlowClass::ClassII;
    return ControlFlowClass::ClassI;
}

int
countDynamicParams(const DataflowGraph& g)
{
    std::set<std::string> params;
    for (const auto& op : g.ops)
        for (const auto& s : op.body)
            collectStmtControlParams(s, params);
    return static_cast<int>(params.size());
}

long
estimateExpr(const ExprPtr& e, const std::map<std::string, long>& defaults,
             long fallback)
{
    if (!e)
        return fallback;
    switch (e->kind) {
      case ExprKind::Const:
        return e->constVal;
      case ExprKind::LoopVar:
        return fallback / 2; // mid-range guess for an induction variable
      case ExprKind::Param: {
        auto it = defaults.find(e->name);
        return it != defaults.end() ? it->second : fallback;
      }
      case ExprKind::ArrayRef:
        return fallback;
      case ExprKind::Binary: {
        long l = estimateExpr(e->args[0], defaults, fallback);
        long r = estimateExpr(e->args[1], defaults, fallback);
        switch (e->op) {
          // Saturating: the operands fold untrusted literals. Dividing
          // by -1 negates (LONG_MIN / -1 does not fit), and x % -1 is 0
          // (LONG_MIN % -1 is undefined).
          case BinOp::Add: return satAdd(l, r);
          case BinOp::Sub: return satSub(l, r);
          case BinOp::Mul: return satMul(l, r);
          case BinOp::Div: return r == 0 ? l : r == -1 ? satSub(0, l) : l / r;
          case BinOp::Mod: return r == 0 || r == -1 ? 0 : l % r;
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
        return fallback;
      }
    }
    return fallback;
}

namespace {

/** Recursive accumulation for handcraftedFeatures. */
struct FeatureAccum
{
    double logTripSum = 0;
    long loopCount = 0;
    int maxDepth = 0;
    long depthSum = 0;
    OpCounts ops;
    int branches = 0;
    int unrollSum = 0;
    int parallelCount = 0;
    long assigns = 0;
};

void
walkStmt(const StmtPtr& s, int depth,
         const std::map<std::string, long>& defaults, FeatureAccum& acc)
{
    switch (s->kind) {
      case StmtKind::Assign: {
        countExpr(s->rhs, acc.ops);
        for (const auto& idx : s->targetIdx)
            countExpr(idx, acc.ops);
        if (!s->targetIdx.empty())
            ++acc.ops.writes;
        ++acc.assigns;
        break;
      }
      case StmtKind::If: {
        ++acc.branches;
        countExpr(s->cond, acc.ops);
        for (const auto& b : s->thenBody)
            walkStmt(b, depth, defaults, acc);
        for (const auto& b : s->elseBody)
            walkStmt(b, depth, defaults, acc);
        break;
      }
      case StmtKind::For: {
        long lo = estimateExpr(s->loop.lower, defaults);
        long hi = estimateExpr(s->loop.upper, defaults);
        long trip =
            std::max<long>(1, satSub(hi, lo) / std::max(1, s->loop.step));
        acc.logTripSum += std::log(static_cast<double>(trip) + 1.0);
        ++acc.loopCount;
        acc.maxDepth = std::max(acc.maxDepth, depth + 1);
        acc.depthSum += depth + 1;
        acc.unrollSum += s->loop.unroll;
        acc.parallelCount += s->loop.parallel ? 1 : 0;
        for (const auto& b : s->body)
            walkStmt(b, depth + 1, defaults, acc);
        break;
      }
    }
}

} // namespace

std::vector<float>
handcraftedFeatures(const DataflowGraph& g,
                    const std::map<std::string, long>& scalar_inputs)
{
    FeatureAccum acc;
    std::set<std::string> arrays;
    for (const auto& op : g.ops) {
        for (const auto& s : op.body)
            walkStmt(s, 0, scalar_inputs, acc);
        for (const auto& t : op.tensors)
            arrays.insert(t.name);
    }
    auto lg = [](double x) { return static_cast<float>(std::log(x + 1.0)); };
    std::vector<float> f;
    f.push_back(lg(acc.logTripSum));
    f.push_back(static_cast<float>(acc.loopCount));
    f.push_back(static_cast<float>(acc.maxDepth));
    f.push_back(acc.loopCount
                    ? static_cast<float>(acc.depthSum) / acc.loopCount
                    : 0.f);
    f.push_back(lg(acc.ops.adds));
    f.push_back(lg(acc.ops.muls));
    f.push_back(lg(acc.ops.divs));
    f.push_back(lg(acc.ops.cmps));
    f.push_back(lg(acc.ops.reads));
    f.push_back(lg(acc.ops.writes));
    f.push_back(static_cast<float>(acc.branches));
    f.push_back(static_cast<float>(acc.unrollSum));
    f.push_back(static_cast<float>(acc.parallelCount));
    f.push_back(lg(acc.assigns));
    f.push_back(static_cast<float>(arrays.size()));
    f.push_back(static_cast<float>(g.ops.size()));
    f.push_back(static_cast<float>(g.calls.size()));
    f.push_back(static_cast<float>(g.params.memReadDelay));
    f.push_back(static_cast<float>(g.params.memWriteDelay));
    f.push_back(static_cast<float>(g.params.readPorts));
    f.push_back(static_cast<float>(g.params.writePorts));
    // Coarse input indicators: count + log-sum of scalar inputs (the
    // "loop range or shape" level of detail the paper ascribes to
    // Tenset-MLP; actual tensor contents are invisible here).
    f.push_back(static_cast<float>(scalar_inputs.size()));
    double ssum = 0;
    for (const auto& [k, val] : scalar_inputs)
        ssum += static_cast<double>(val);
    f.push_back(lg(ssum));
    f.push_back(static_cast<float>(countDynamicParams(g)));
    LLM_CHECK(f.size() == size_t(kHandcraftedFeatureDim),
              "feature dim drifted: " << f.size());
    return f;
}

namespace {

/** Node-building context for extractProgramGraph. */
struct GraphBuilder
{
    ProgramGraph pg;
    std::map<std::string, int> arrayNode;

    int
    addNode(NodeKind kind, std::vector<float> extra)
    {
        std::vector<float> feat(kNodeFeatureDim, 0.f);
        feat[static_cast<int>(kind)] = 1.f; // one-hot kinds occupy [0,6)
        for (size_t i = 0; i < extra.size() && 6 + i < size_t(kNodeFeatureDim);
             ++i)
            feat[6 + i] = extra[i];
        pg.kinds.push_back(kind);
        pg.features.push_back(std::move(feat));
        pg.adj.emplace_back();
        return pg.numNodes() - 1;
    }

    void
    addEdge(int u, int v)
    {
        pg.adj[u].push_back(v);
        pg.adj[v].push_back(u);
    }
};

void
addStmtNodes(GraphBuilder& gb, const StmtPtr& s, int parent,
             const std::map<std::string, long>& defaults)
{
    switch (s->kind) {
      case StmtKind::Assign: {
        OpCounts oc;
        countExpr(s->rhs, oc);
        int n = gb.addNode(
            NodeKind::Assign,
            {static_cast<float>(oc.adds), static_cast<float>(oc.muls),
             static_cast<float>(oc.divs), static_cast<float>(oc.reads),
             static_cast<float>(!s->targetIdx.empty())});
        gb.addEdge(parent, n);
        // Array-sharing edge to the target array node.
        auto it = gb.arrayNode.find(s->target);
        if (it != gb.arrayNode.end())
            gb.addEdge(n, it->second);
        break;
      }
      case StmtKind::If: {
        OpCounts oc;
        countExpr(s->cond, oc);
        int n = gb.addNode(NodeKind::If,
                           {static_cast<float>(oc.cmps),
                            static_cast<float>(oc.reads),
                            static_cast<float>(s->elseBody.size())});
        gb.addEdge(parent, n);
        for (const auto& b : s->thenBody)
            addStmtNodes(gb, b, n, defaults);
        for (const auto& b : s->elseBody)
            addStmtNodes(gb, b, n, defaults);
        break;
      }
      case StmtKind::For: {
        long lo = estimateExpr(s->loop.lower, defaults);
        long hi = estimateExpr(s->loop.upper, defaults);
        long trip =
            std::max<long>(1, satSub(hi, lo) / std::max(1, s->loop.step));
        int n = gb.addNode(
            NodeKind::Loop,
            {static_cast<float>(std::log(double(trip) + 1.0)),
             static_cast<float>(s->loop.unroll),
             static_cast<float>(s->loop.parallel ? 1 : 0)});
        gb.addEdge(parent, n);
        for (const auto& b : s->body)
            addStmtNodes(gb, b, n, defaults);
        break;
      }
    }
}

} // namespace

ProgramGraph
extractProgramGraph(const DataflowGraph& g)
{
    GraphBuilder gb;
    std::map<std::string, long> defaults; // params default to 32 via fallback
    int root = gb.addNode(NodeKind::Graph,
                          {static_cast<float>(g.ops.size()),
                           static_cast<float>(g.params.memReadDelay),
                           static_cast<float>(g.params.memWriteDelay)});

    // Array nodes first so statements can link to them.
    for (const auto& op : g.ops) {
        for (const auto& t : op.tensors) {
            if (gb.arrayNode.count(t.name))
                continue;
            long elems = 1;
            for (const auto& d : t.dims)
                elems = satMul(elems,
                               std::max<long>(1, estimateExpr(d, defaults)));
            int n = gb.addNode(
                NodeKind::Array,
                {static_cast<float>(std::log(double(elems) + 1.0)),
                 static_cast<float>(t.dims.size())});
            gb.arrayNode[t.name] = n;
            gb.addEdge(root, n);
        }
    }

    int prev_op_node = -1;
    for (const auto& call : g.calls) {
        const Operator* op = g.findOp(call.opName);
        if (!op)
            continue;
        int on = gb.addNode(NodeKind::Op,
                            {static_cast<float>(op->body.size()),
                             static_cast<float>(op->scalarParams.size())});
        gb.addEdge(root, on);
        if (prev_op_node >= 0)
            gb.addEdge(prev_op_node, on); // call-order (dataflow) edge
        prev_op_node = on;
        for (const auto& s : op->body)
            addStmtNodes(gb, s, on, defaults);
    }
    return gb.pg;
}

} // namespace dfir
} // namespace llmulator
