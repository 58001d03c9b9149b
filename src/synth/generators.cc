#include "synth/generators.h"

#include <algorithm>
#include <set>

#include "dfir/analysis.h"
#include "dfir/builder.h"
#include "dfir/schedule.h"
#include "util/string_util.h"

namespace llmulator {
namespace synth {

namespace {

using namespace dfir;

std::string
freshName(const char* stem, util::Rng& rng)
{
    return util::format("%s%d", stem, static_cast<int>(rng.uniformInt(0, 97)));
}

/** Random simple arithmetic expression over the given operand pool. */
ExprPtr
randomExpr(util::Rng& rng, const std::vector<ExprPtr>& operands, int depth)
{
    if (depth <= 0 || rng.chance(0.35))
        return rng.choice(operands);
    static const BinOp kOps[] = {BinOp::Add, BinOp::Sub, BinOp::Mul,
                                 BinOp::Add, BinOp::Mul, BinOp::Div,
                                 BinOp::Max};
    BinOp op = kOps[rng.index(7)];
    return bin(op, randomExpr(rng, operands, depth - 1),
               randomExpr(rng, operands, depth - 1));
}

} // namespace

dfir::DataflowGraph
generateAstProgram(util::Rng& rng, const GenConfig& cfg)
{
    // ldrgen-flavoured: 1-2 operators, shallow loops (often depth 1),
    // sizeable fraction of scalar (non-array) statements.
    DataflowGraph g;
    g.name = freshName("ast", rng);
    int nops = static_cast<int>(rng.uniformInt(1, 2));
    for (int oi = 0; oi < nops; ++oi) {
        Operator op;
        op.name = util::format("func%d", oi);
        long n = rng.uniformInt(cfg.minBound, cfg.maxBound);
        std::string arr = freshName("buf", rng);
        op.tensors = {tensor(arr, {c(n)})};

        std::vector<StmtPtr> body;
        int nstmts = static_cast<int>(rng.uniformInt(1, 3));
        for (int si = 0; si < nstmts; ++si) {
            std::vector<ExprPtr> operands = {c(rng.uniformInt(1, 99)),
                                             v("i"),
                                             a(arr, {v("i")})};
            StmtPtr inner;
            if (rng.chance(0.35)) {
                // Scalar temp statement (non-array op, ~AST-gen style).
                inner = assignScalar(freshName("t", rng),
                                     randomExpr(rng, operands, 2));
            } else {
                inner = assign(arr, {v("i")}, randomExpr(rng, operands, 2));
            }
            if (rng.chance(0.2)) {
                inner = ifStmt(bgt(a(arr, {v("i")}),
                                   c(rng.uniformInt(0, 50))),
                               {inner});
            }
            body.push_back(forLoop("i", c(0), c(n), {inner}));
        }
        op.body = std::move(body);
        g.calls.push_back({op.name});
        g.ops.push_back(std::move(op));
    }
    return g;
}

namespace {

/** Loop-tree operator templates for the dataflow-specific generator. */
enum class OpTemplate { Gemm, Conv1d, Stencil2d, Reduce, Elementwise, Window };

Operator
instantiateTemplate(OpTemplate t, int index, util::Rng& rng,
                    const GenConfig& cfg)
{
    Operator op;
    long n = rng.uniformInt(cfg.minBound, cfg.maxBound);
    long m = rng.uniformInt(cfg.minBound, cfg.maxBound);
    std::string x = util::format("X%d", index);
    std::string y = util::format("Y%d", index);
    std::string w = util::format("W%d", index);

    switch (t) {
      case OpTemplate::Gemm: {
        op.name = util::format("gemm%d", index);
        op.tensors = {tensor(x, {c(n), c(m)}), tensor(w, {c(m), c(n)}),
                      tensor(y, {c(n), c(n)})};
        auto body = assign(
            y, {v("i"), v("j")},
            badd(a(y, {v("i"), v("j")}),
                 bmul(a(x, {v("i"), v("k")}), a(w, {v("k"), v("j")}))));
        // Loop-tree mutation: random order of the three loops.
        std::vector<std::string> vars = {"i", "j", "k"};
        rng.shuffle(vars);
        std::vector<ExprPtr> bounds = {c(n), c(n), c(m)};
        StmtPtr nest = body;
        for (int lv = 2; lv >= 0; --lv)
            nest = forLoop(vars[lv], c(0), bounds[lv], {nest});
        op.body = {nest};
        break;
      }
      case OpTemplate::Conv1d: {
        op.name = util::format("conv%d", index);
        long k = rng.uniformInt(3, 7);
        op.tensors = {tensor(x, {c(n + k)}), tensor(w, {c(k)}),
                      tensor(y, {c(n)})};
        auto body = assign(
            y, {v("i")},
            badd(a(y, {v("i")}),
                 bmul(a(x, {badd(v("i"), v("r"))}), a(w, {v("r")}))));
        op.body = {forLoop("i", c(0), c(n),
                           {forLoop("r", c(0), c(k), {body})})};
        break;
      }
      case OpTemplate::Stencil2d: {
        op.name = util::format("stencil%d", index);
        op.tensors = {tensor(x, {c(n), c(n)}), tensor(y, {c(n), c(n)})};
        auto body = assign(
            y, {v("i"), v("j")},
            bmul(badd(badd(a(x, {v("i"), v("j")}),
                           a(x, {badd(v("i"), c(1)), v("j")})),
                      a(x, {v("i"), badd(v("j"), c(1))})),
                 c(3)));
        op.body = {forLoop("i", c(0), bsub(c(n), c(1)),
                           {forLoop("j", c(0), bsub(c(n), c(1)), {body})})};
        break;
      }
      case OpTemplate::Reduce: {
        op.name = util::format("reduce%d", index);
        op.tensors = {tensor(x, {c(n)}), tensor(y, {c(1)})};
        auto body = assign(y, {c(0)},
                           badd(a(y, {c(0)}), a(x, {v("i")})));
        op.body = {forLoop("i", c(0), c(n), {body})};
        break;
      }
      case OpTemplate::Elementwise: {
        op.name = util::format("elem%d", index);
        op.tensors = {tensor(x, {c(n)}), tensor(y, {c(n)})};
        auto body = assign(y, {v("i")},
                           bmax(bmul(a(x, {v("i")}),
                                     c(rng.uniformInt(2, 9))),
                                c(0))); // relu-flavoured
        op.body = {forLoop("i", c(0), c(n), {body})};
        break;
      }
      case OpTemplate::Window: {
        // Input-adaptive sliding window (the paper's Challenge 2 example):
        // bounds are runtime parameters H, W.
        op.name = util::format("window%d", index);
        std::string hp = util::format("H%d", index);
        std::string wp = util::format("W%d", index);
        op.scalarParams = {hp, wp};
        op.tensors = {tensor(x, {p(hp), p(wp)}), tensor(y, {p(hp), p(wp)})};
        auto inner = ifStmt(
            bgt(a(x, {v("i"), v("j")}), c(0)),
            {assign(y, {v("i"), v("j")},
                    bmul(a(x, {v("i"), v("j")}),
                         a(x, {v("i"), v("j")})))},
            {assign(y, {v("i"), v("j")}, c(0))});
        op.body = {forLoop("i", c(0), p(hp),
                           {forLoop("j", c(0), p(wp), {inner})})};
        break;
      }
    }
    return op;
}

} // namespace

dfir::DataflowGraph
generateDataflowProgram(util::Rng& rng, const GenConfig& cfg)
{
    DataflowGraph g;
    g.name = freshName("df", rng);
    int nops = static_cast<int>(rng.uniformInt(1, cfg.maxOpsPerGraph));
    static const OpTemplate kTemplates[] = {
        OpTemplate::Gemm, OpTemplate::Conv1d, OpTemplate::Stencil2d,
        OpTemplate::Reduce, OpTemplate::Elementwise, OpTemplate::Window};
    for (int i = 0; i < nops; ++i) {
        OpTemplate t = kTemplates[rng.index(6)];
        g.ops.push_back(instantiateTemplate(t, i, rng, cfg));
    }
    // Graph generator: random call order (operators may repeat).
    for (const auto& op : g.ops)
        g.calls.push_back({op.name});
    rng.shuffle(g.calls);
    if (rng.chance(0.3) && !g.ops.empty())
        g.calls.push_back({g.ops[rng.index(g.ops.size())].name});
    return g;
}

namespace {

/** Clone an expression with every Const scaled by the given factor pair. */
ExprPtr
scaleConsts(const ExprPtr& e, double factor, long min_v, long max_v)
{
    if (!e)
        return e;
    auto copy = std::make_shared<Expr>(*e);
    if (e->kind == ExprKind::Const && e->constVal > 2) {
        long nv = static_cast<long>(e->constVal * factor);
        copy->constVal = std::clamp(nv, min_v, max_v);
    }
    copy->args.clear();
    for (const auto& arg : e->args)
        copy->args.push_back(scaleConsts(arg, factor, min_v, max_v));
    return copy;
}

StmtPtr
mutateStmt(const StmtPtr& s, util::Rng& rng, const GenConfig& cfg,
           const std::set<std::string>& invariant);

std::vector<StmtPtr>
mutateBody(const std::vector<StmtPtr>& body, util::Rng& rng,
           const GenConfig& cfg, const std::set<std::string>& invariant)
{
    std::vector<StmtPtr> out;
    for (const auto& b : body)
        out.push_back(mutateStmt(b, rng, cfg, invariant));
    return out;
}

StmtPtr
mutateStmt(const StmtPtr& s, util::Rng& rng, const GenConfig& cfg,
           const std::set<std::string>& invariant)
{
    auto copy = std::make_shared<Stmt>(*s);
    switch (s->kind) {
      case StmtKind::Assign:
        if (rng.chance(0.2))
            copy->rhs = scaleConsts(s->rhs, rng.uniform(0.5, 1.5), 1, 99);
        break;
      case StmtKind::If:
        copy->thenBody = mutateBody(s->thenBody, rng, cfg, invariant);
        copy->elseBody = mutateBody(s->elseBody, rng, cfg, invariant);
        break;
      case StmtKind::For: {
        copy->body = mutateBody(s->body, rng, cfg, invariant);
        // Kernel/bound size swap (e.g. 3x3 -> 5x5 convolution windows).
        if (rng.chance(0.5))
            copy->loop.upper =
                scaleConsts(s->loop.upper, rng.uniform(0.6, 1.6),
                            cfg.minBound, cfg.maxBound * 2);
        // Step-size mutation.
        if (rng.chance(0.2))
            copy->loop.step = static_cast<int>(rng.uniformInt(1, 2));
        // Loop interchange with a directly nested single child loop —
        // only when the dependence analysis proves the swap legal
        // (dependence-carrying nests like in-place stencils must keep
        // their loop order or the program's meaning changes). The rng
        // draw stays in the same short-circuit position as before the
        // legality gate, so unrelated mutation streams are unchanged.
        if (copy->body.size() == 1 &&
            copy->body[0]->kind == StmtKind::For && rng.chance(0.35) &&
            dfir::interchangeLegal(dfir::analyzeNest(copy, invariant), 0,
                                   1)) {
            auto inner = std::make_shared<Stmt>(*copy->body[0]);
            std::swap(copy->loop, inner->loop);
            copy->body = {inner};
        }
        break;
      }
    }
    return copy;
}

} // namespace

dfir::DataflowGraph
mutateProgram(const dfir::DataflowGraph& base, util::Rng& rng,
              const GenConfig& cfg)
{
    DataflowGraph g = base;
    g.name = base.name + "_m";
    for (auto& op : g.ops) {
        std::set<std::string> invariant(op.scalarParams.begin(),
                                        op.scalarParams.end());
        op.body = mutateBody(op.body, rng, cfg, invariant);
    }
    // Operator reordering / duplication at the graph level.
    if (g.calls.size() > 1 && rng.chance(0.5))
        rng.shuffle(g.calls);
    // Dead-branch injection: semantically inert but structurally novel.
    if (!g.ops.empty() && rng.chance(0.3)) {
        Operator& op = g.ops[rng.index(g.ops.size())];
        if (!op.tensors.empty()) {
            const std::string& arr = op.tensors[0].name;
            op.body.push_back(
                ifStmt(bgt(c(0), c(1)),
                       {assign(arr, {c(0)}, c(0))}));
        }
    }
    return g;
}

namespace {

/** All identifier-like names used anywhere in a graph. */
void
collectExprNames(const ExprPtr& e, std::set<std::string>& out)
{
    if (!e)
        return;
    if (!e->name.empty())
        out.insert(e->name);
    for (const auto& arg : e->args)
        collectExprNames(arg, out);
}

void
collectStmtNames(const StmtPtr& s, std::set<std::string>& out)
{
    if (!s->target.empty())
        out.insert(s->target);
    for (const auto& idx : s->targetIdx)
        collectExprNames(idx, out);
    collectExprNames(s->rhs, out);
    collectExprNames(s->cond, out);
    if (s->kind == StmtKind::For) {
        out.insert(s->loop.var);
        collectExprNames(s->loop.lower, out);
        collectExprNames(s->loop.upper, out);
    }
    for (const auto& b : s->thenBody)
        collectStmtNames(b, out);
    for (const auto& b : s->elseBody)
        collectStmtNames(b, out);
    for (const auto& b : s->body)
        collectStmtNames(b, out);
}

/** Consistent whole-graph rename of non-tensor value names. */
ExprPtr
renameExprNames(const ExprPtr& e,
                const std::map<std::string, std::string>& map)
{
    if (!e)
        return e;
    auto copy = std::make_shared<Expr>(*e);
    // Tensor names never appear in the map, so ArrayRef bases are safe.
    auto it = map.find(e->name);
    if (it != map.end() && e->kind != ExprKind::ArrayRef)
        copy->name = it->second;
    for (auto& arg : copy->args)
        arg = renameExprNames(arg, map);
    return copy;
}

StmtPtr
renameStmtNames(const StmtPtr& s,
                const std::map<std::string, std::string>& map)
{
    auto copy = std::make_shared<Stmt>(*s);
    if (copy->kind == StmtKind::Assign && copy->targetIdx.empty()) {
        auto it = map.find(copy->target);
        if (it != map.end())
            copy->target = it->second;
    }
    for (auto& idx : copy->targetIdx)
        idx = renameExprNames(idx, map);
    if (copy->rhs)
        copy->rhs = renameExprNames(copy->rhs, map);
    if (copy->cond)
        copy->cond = renameExprNames(copy->cond, map);
    if (copy->kind == StmtKind::For) {
        auto it = map.find(copy->loop.var);
        if (it != map.end())
            copy->loop.var = it->second;
        copy->loop.lower = renameExprNames(copy->loop.lower, map);
        copy->loop.upper = renameExprNames(copy->loop.upper, map);
    }
    for (auto& b : copy->thenBody)
        b = renameStmtNames(b, map);
    for (auto& b : copy->elseBody)
        b = renameStmtNames(b, map);
    for (auto& b : copy->body)
        b = renameStmtNames(b, map);
    return copy;
}

/** Randomly swap commuting operands throughout an expression. */
ExprPtr
commuteExpr(const ExprPtr& e, util::Rng& rng)
{
    if (!e)
        return e;
    auto copy = std::make_shared<Expr>(*e);
    for (auto& arg : copy->args)
        arg = commuteExpr(arg, rng);
    if (copy->kind == ExprKind::Binary && copy->args.size() == 2) {
        switch (copy->op) {
          case BinOp::Add: case BinOp::Mul: case BinOp::Min:
          case BinOp::Max: case BinOp::And: case BinOp::Or:
          case BinOp::Eq: case BinOp::Ne:
            if (rng.chance(0.5))
                std::swap(copy->args[0], copy->args[1]);
            break;
          default:
            break;
        }
    }
    return copy;
}

StmtPtr
commuteStmt(const StmtPtr& s, util::Rng& rng)
{
    auto copy = std::make_shared<Stmt>(*s);
    for (auto& idx : copy->targetIdx)
        idx = commuteExpr(idx, rng);
    if (copy->rhs)
        copy->rhs = commuteExpr(copy->rhs, rng);
    if (copy->cond)
        copy->cond = commuteExpr(copy->cond, rng);
    if (copy->kind == StmtKind::For) {
        copy->loop.lower = commuteExpr(copy->loop.lower, rng);
        copy->loop.upper = commuteExpr(copy->loop.upper, rng);
    }
    for (auto& b : copy->thenBody)
        b = commuteStmt(b, rng);
    for (auto& b : copy->elseBody)
        b = commuteStmt(b, rng);
    for (auto& b : copy->body)
        b = commuteStmt(b, rng);
    return copy;
}

} // namespace

EquivalentMutant
equivalentMutant(const dfir::DataflowGraph& base, util::Rng& rng)
{
    EquivalentMutant out;
    DataflowGraph g = base;

    // Names already in use anywhere (tensors included): fresh names must
    // avoid them so a rename cannot capture an existing identifier.
    std::set<std::string> used;
    for (const auto& op : g.ops) {
        used.insert(op.name);
        for (const auto& t : op.tensors)
            used.insert(t.name);
        for (const auto& sp : op.scalarParams)
            used.insert(sp);
        for (const auto& s : op.body)
            collectStmtNames(s, used);
    }
    int serial = 0;
    auto fresh = [&](const char* stem) {
        for (;;) {
            std::string name = util::format("%s%d", stem, serial++);
            if (used.insert(name).second)
                return name;
        }
    };

    // Rename every value name (loop vars, scalar params, scalar temps)
    // consistently across the graph; tensors keep their names (the
    // simulator keys pseudo-data by tensor name, so renaming them would
    // change behaviour, not just spelling).
    std::set<std::string> tensor_names;
    for (const auto& op : g.ops)
        for (const auto& t : op.tensors)
            tensor_names.insert(t.name);
    std::map<std::string, std::string> value_map;
    for (const auto& op : g.ops) {
        for (const auto& sp : op.scalarParams)
            if (!value_map.count(sp))
                value_map.emplace(sp, fresh("q"));
        std::set<std::string> names;
        for (const auto& s : op.body)
            collectStmtNames(s, names);
        for (const auto& name : names)
            if (!tensor_names.count(name) && !value_map.count(name))
                value_map.emplace(name, fresh("q"));
    }
    for (auto& op : g.ops) {
        for (auto& sp : op.scalarParams)
            sp = value_map.at(sp);
        for (auto& t : op.tensors)
            for (auto& d : t.dims)
                d = renameExprNames(d, value_map);
        for (auto& s : op.body)
            s = renameStmtNames(s, value_map);
    }
    // Only scalar names matter for runtime data; loop variables never
    // appear there, and passing them along is harmless.
    out.scalarRenames = value_map;

    // Rename operators (and their call sites).
    std::map<std::string, std::string> op_map;
    for (auto& op : g.ops) {
        op_map.emplace(op.name, fresh("fn"));
        op.name = op_map.at(op.name);
    }
    for (auto& call : g.calls) {
        auto it = op_map.find(call.opName);
        if (it != op_map.end())
            call.opName = it->second;
    }

    // Swap commuting operands at random.
    for (auto& op : g.ops)
        for (auto& s : op.body)
            s = commuteStmt(s, rng);

    // Inject dead code: a never-read scalar assign and a branch whose
    // condition is constant-false.
    if (!g.ops.empty()) {
        Operator& op = g.ops[rng.index(g.ops.size())];
        op.body.push_back(
            dfir::assignScalar(fresh("dead"),
                               dfir::c(rng.uniformInt(1, 9))));
        if (!op.tensors.empty() && rng.chance(0.7)) {
            const std::string& arr = op.tensors[0].name;
            op.body.push_back(
                dfir::ifStmt(dfir::bgt(dfir::c(0), dfir::c(1)),
                             {dfir::assign(arr, {dfir::c(0)},
                                           dfir::c(0))}));
        }
    }

    g.name = base.name + "_eq";
    out.graph = std::move(g);
    return out;
}

void
augmentHardware(dfir::DataflowGraph& g, util::Rng& rng,
                const std::vector<int>& mem_delays)
{
    if (!mem_delays.empty()) {
        g.params.memReadDelay =
            mem_delays[rng.index(mem_delays.size())];
        g.params.memWriteDelay =
            mem_delays[rng.index(mem_delays.size())];
    }
    g.params.readPorts = static_cast<int>(rng.uniformInt(1, 4));
    g.params.writePorts = static_cast<int>(rng.uniformInt(1, 2));

    // Loop-mapping primitives: rewrite pragmas on random top-level loops.
    for (auto& op : g.ops) {
        std::vector<StmtPtr> new_body;
        for (const auto& s : op.body) {
            if (s->kind == StmtKind::For && rng.chance(0.4)) {
                auto copy = std::make_shared<Stmt>(*s);
                if (rng.chance(0.5))
                    copy->loop.unroll =
                        static_cast<int>(1 << rng.uniformInt(1, 3));
                else
                    copy->loop.parallel = true;
                new_body.push_back(copy);
            } else {
                new_body.push_back(s);
            }
        }
        op.body = std::move(new_body);
    }
}

dfir::RuntimeData
generateRuntimeData(const dfir::DataflowGraph& g, util::Rng& rng,
                    long base_scale)
{
    dfir::RuntimeData data;
    std::set<std::string> params;
    for (const auto& op : g.ops)
        for (const auto& sp : op.scalarParams)
            params.insert(sp);
    for (const auto& name : params) {
        // -50% .. +50% around the base scale (paper Section 6.1).
        double f = rng.uniform(0.5, 1.5);
        data.scalars[name] =
            std::max<long>(2, static_cast<long>(base_scale * f));
    }
    // Input tensors with a randomized sign balance so branch behaviour
    // varies across samples.
    for (const auto& op : g.ops) {
        for (const auto& t : op.tensors) {
            if (data.tensors.count(t.name))
                continue;
            long elems = 1;
            for (const auto& d : t.dims)
                elems *= std::max<long>(
                    1, dfir::estimateExpr(d, data.scalars, base_scale));
            elems = std::min<long>(elems, 1 << 14);
            double pos_frac = rng.uniform(0.1, 0.9);
            std::vector<double> vals(static_cast<size_t>(elems));
            for (auto& vv : vals) {
                double mag = rng.uniform(0.5, 60.0);
                vv = rng.chance(pos_frac) ? mag : -mag;
            }
            data.tensors[t.name] = std::move(vals);
        }
    }
    return data;
}

} // namespace synth
} // namespace llmulator
