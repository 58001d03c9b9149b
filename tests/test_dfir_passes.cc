/**
 * @file
 * Canonicalization tests: per-walk semantic preservation on the full
 * workload corpus (simulator cycles and all metrics bit-identical,
 * Class I/II labels unchanged), canonical-hash equivalence for renamed /
 * commuted / dead-code variants, parser round trips through
 * canonicalization, idempotence, pinned key values, and per-walk unit
 * behaviour.
 */

#include <gtest/gtest.h>

#include <limits>

#include "dfir/analysis.h"
#include "dfir/builder.h"
#include "dfir/parser.h"
#include "dfir/passes.h"
#include "dfir/printer.h"
#include "dfir/verify.h"
#include "sim/profiler.h"
#include "synth/generators.h"
#include "util/string_util.h"
#include "workloads/workloads.h"

namespace {

using namespace llmulator;
using namespace llmulator::dfir;

std::vector<workloads::Workload>
fullCorpus()
{
    std::vector<workloads::Workload> all;
    for (auto& suite : {workloads::polybench(), workloads::modern(),
                        workloads::accelerators()})
        for (auto& w : suite)
            all.push_back(w);
    return all;
}

/** Class labels in call order (stable under operator renaming). */
std::vector<ControlFlowClass>
classLabels(const DataflowGraph& g)
{
    std::vector<ControlFlowClass> labels;
    for (const auto& call : g.calls) {
        const Operator* op = g.findOp(call.opName);
        if (op)
            labels.push_back(classifyOperator(*op));
    }
    return labels;
}

void
expectSameProfile(const sim::Profile& a, const sim::Profile& b,
                  const char* what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.areaUm2, b.areaUm2) << what;
    EXPECT_EQ(a.flipFlops, b.flipFlops) << what;
    EXPECT_EQ(a.powerUw, b.powerUw) << what;
}

using GraphPass = DataflowGraph (*)(DataflowGraph);

/** One walk preserves profile + labels on every workload. */
void
checkPassPreservesCorpus(GraphPass pass, const char* name)
{
    for (const auto& w : fullCorpus()) {
        SCOPED_TRACE(std::string(name) + " on " + w.name);
        DataflowGraph rewritten = pass(w.graph);
        expectSameProfile(sim::profile(w.graph, w.canonicalData),
                          sim::profile(rewritten, w.canonicalData),
                          name);
        EXPECT_EQ(classLabels(w.graph), classLabels(rewritten));
    }
}

using ExprRewrite = ExprPtr (*)(const ExprPtr&);

StmtPtr
rewriteStmt(const StmtPtr& s, ExprRewrite shape, ExprRewrite other)
{
    auto out = std::make_shared<Stmt>(*s);
    if (s->kind == StmtKind::For) {
        out->loop.lower = shape(s->loop.lower);
        out->loop.upper = shape(s->loop.upper);
    }
    for (auto& i : out->targetIdx)
        i = other(i);
    if (out->rhs)
        out->rhs = other(out->rhs);
    if (out->cond)
        out->cond = other(out->cond);
    for (auto* body : {&out->body, &out->thenBody, &out->elseBody})
        for (auto& b : *body)
            b = rewriteStmt(b, shape, other);
    return out;
}

/**
 * Copy of 'g' with 'shape' applied to every tensor dim and loop bound
 * and 'other' to every other expression root.
 */
DataflowGraph
rewriteExprs(DataflowGraph g, ExprRewrite shape, ExprRewrite other)
{
    for (auto& op : g.ops) {
        for (auto& t : op.tensors)
            for (auto& d : t.dims)
                d = shape(d);
        for (auto& s : op.body)
            s = rewriteStmt(s, shape, other);
    }
    return g;
}

ExprPtr
keepExpr(const ExprPtr& e)
{
    return e;
}

/** A Const n spelled (n - 1) + 1, for the shape fold to undo. */
ExprPtr
unfoldConst(const ExprPtr& e)
{
    return e->kind == ExprKind::Const ? badd(bsub(e, c(1)), c(1)) : e;
}

/** Swap the operands of every commutative Binary node in 'e'. */
ExprPtr
mirrorCommutative(const ExprPtr& e)
{
    if (!e || e->args.empty())
        return e;
    auto out = std::make_shared<Expr>(*e);
    for (auto& arg : out->args)
        arg = mirrorCommutative(arg);
    if (out->kind == ExprKind::Binary) {
        switch (out->op) {
          case BinOp::Add: case BinOp::Mul: case BinOp::Min: case BinOp::Max:
          case BinOp::And: case BinOp::Or: case BinOp::Eq: case BinOp::Ne:
            std::swap(out->args[0], out->args[1]);
            break;
          default:
            break;
        }
    }
    return out;
}

TEST(Passes, NormalizeExprKindsPreservesCorpus)
{
    checkPassPreservesCorpus(&normalizeExprKinds, "normalizeExprKinds");
}

TEST(Passes, FoldConstantsPreservesCorpus)
{
    // normalizeExprKinds folds shape constants. With every constant loop
    // bound and tensor dim spelled (n - 1) + 1 it must give back the
    // workload's own normalized form, profile and labels unchanged.
    for (const auto& w : fullCorpus()) {
        SCOPED_TRACE(w.name);
        DataflowGraph unfolded =
            rewriteExprs(w.graph, &unfoldConst, &keepExpr);
        EXPECT_NE(structuralHash(unfolded), structuralHash(w.graph));
        DataflowGraph folded = normalizeExprKinds(unfolded);
        EXPECT_EQ(structuralHash(folded),
                  structuralHash(normalizeExprKinds(w.graph)));
        expectSameProfile(sim::profile(w.graph, w.canonicalData),
                          sim::profile(folded, w.canonicalData), "fold");
        EXPECT_EQ(classLabels(w.graph), classLabels(folded));
    }
}

TEST(Passes, EliminateDeadCodePreservesCorpus)
{
    checkPassPreservesCorpus(&eliminateDeadCode, "eliminateDeadCode");
}

TEST(Passes, OrderCommutativeOperandsPreservesCorpus)
{
    // renameCanonical sorts commutative operands. With every commutative
    // node's operands swapped it must give back the workload's own
    // canonical form, which profiles like the workload.
    size_t changed = 0;
    for (const auto& w : fullCorpus()) {
        SCOPED_TRACE(w.name);
        DataflowGraph mirrored =
            rewriteExprs(w.graph, &mirrorCommutative, &mirrorCommutative);
        changed += structuralHash(mirrored) != structuralHash(w.graph);
        std::map<std::string, std::string> renames;
        DataflowGraph sorted = renameCanonical(mirrored, &renames);
        EXPECT_EQ(structuralHash(sorted),
                  structuralHash(renameCanonical(w.graph)));
        RuntimeData data = remapRuntimeData(w.canonicalData, renames);
        expectSameProfile(sim::profile(w.graph, w.canonicalData),
                          sim::profile(sorted, data), "sort");
        EXPECT_EQ(classLabels(w.graph), classLabels(sorted));
    }
    EXPECT_GT(changed, 0u) << "no workload has an operand pair to swap";
}

TEST(Passes, RenameCanonicalPreservesCorpusWithRemappedData)
{
    for (const auto& w : fullCorpus()) {
        SCOPED_TRACE(w.name);
        std::map<std::string, std::string> renames;
        DataflowGraph renamed = renameCanonical(w.graph, &renames);
        RuntimeData data = remapRuntimeData(w.canonicalData, renames);
        expectSameProfile(sim::profile(w.graph, w.canonicalData),
                          sim::profile(renamed, data), "rename");
        EXPECT_EQ(classLabels(w.graph), classLabels(renamed));
    }
}

TEST(Passes, FullCanonicalizationPreservesCorpus)
{
    // The acceptance pin: cycles and all metrics bit-identical pre- vs
    // post-canonicalization across the entire workload corpus.
    for (const auto& w : fullCorpus()) {
        SCOPED_TRACE(w.name);
        CanonResult canon = canonicalizeEx(w.graph);
        RuntimeData data =
            remapRuntimeData(w.canonicalData, canon.scalarRenames);
        expectSameProfile(sim::profile(w.graph, w.canonicalData),
                          sim::profile(canon.graph, data), "canonical");
        EXPECT_EQ(classLabels(w.graph), classLabels(canon.graph));
        // The canonical form is itself well-formed.
        auto res = verify(canon.graph);
        EXPECT_TRUE(res.ok()) << res.str();
    }
}

TEST(Passes, CanonicalizeIsIdempotentAndDeterministic)
{
    for (const auto& w : fullCorpus()) {
        SCOPED_TRACE(w.name);
        uint64_t h1 = canonicalHash(w.graph);
        uint64_t h2 = canonicalHash(w.graph);
        EXPECT_EQ(h1, h2);
        DataflowGraph once = canonicalize(w.graph);
        EXPECT_EQ(structuralHash(once), h1);
        EXPECT_EQ(canonicalHash(once), h1) << "not idempotent";
    }
}

TEST(Passes, EquivalentMutantsShareCanonicalHash)
{
    // The cache-key contract: renamed values, commuted operands and
    // injected dead code all canonicalize back to the base hash, for
    // every workload and several mutation draws.
    util::Rng rng(77);
    for (const auto& w : fullCorpus()) {
        SCOPED_TRACE(w.name);
        uint64_t base = canonicalHash(w.graph);
        for (int i = 0; i < 3; ++i) {
            auto mut = synth::equivalentMutant(w.graph, rng);
            EXPECT_EQ(canonicalHash(mut.graph), base)
                << "mutant " << i << " diverged";
            EXPECT_NE(structuralHash(mut.graph),
                      structuralHash(w.graph))
                << "mutant " << i << " is not structurally distinct";
        }
    }
}

TEST(Passes, PinnedEquivalenceOfHandBuiltVariants)
{
    // Two hand-built, obviously-equivalent programs: renamed values,
    // commuted operands, an extra dead assign and a dead branch.
    Operator op;
    op.name = "saxpy";
    op.scalarParams = {"N", "alpha"};
    op.tensors = {tensor("X", {p("N")}), tensor("Y", {p("N")})};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {assign("Y", {v("i")},
                badd(bmul(p("alpha"), a("X", {v("i")})),
                     a("Y", {v("i")})))})};
    DataflowGraph g1;
    g1.name = "one";
    g1.ops = {op};
    g1.calls = {{"saxpy"}};

    Operator op2;
    op2.name = "kernel"; // renamed operator
    op2.scalarParams = {"M", "scale"}; // renamed scalars
    op2.tensors = {tensor("X", {p("M")}), tensor("Y", {p("M")})};
    op2.body = {
        forLoop("j", c(0), p("M"), // renamed loop var
                {assign("Y", {v("j")},
                        // commuted both Add and Mul operands
                        badd(a("Y", {v("j")}),
                             bmul(a("X", {v("j")}), p("scale"))))}),
        assignScalar("unused", c(42)), // dead assign
        ifStmt(bgt(c(0), c(1)), // dead branch
               {assign("Y", {c(0)}, c(0))})};
    DataflowGraph g2;
    g2.name = "two";
    g2.ops = {op2};
    g2.calls = {{"kernel"}};

    EXPECT_NE(structuralHash(g1), structuralHash(g2));
    EXPECT_EQ(canonicalHash(g1), canonicalHash(g2));

    // A genuinely different program must not collide.
    DataflowGraph g3 = g1;
    auto changed = std::make_shared<Stmt>(*g3.ops[0].body[0]);
    auto inner = std::make_shared<Stmt>(*changed->body[0]);
    inner->rhs = bsub(bmul(p("alpha"), a("X", {v("i")})),
                      a("Y", {v("i")})); // Sub, not Add
    changed->body = {inner};
    g3.ops[0].body = {changed};
    EXPECT_NE(canonicalHash(g3), canonicalHash(g1));
}

TEST(Passes, RoundTripThroughPrinterKeepsCanonicalHash)
{
    // parse(print(canonicalize(g))) re-canonicalizes to the same hash
    // for the whole corpus.
    for (const auto& w : fullCorpus()) {
        SCOPED_TRACE(w.name);
        DataflowGraph canon = canonicalize(w.graph);
        auto res = parseProgram(printStatic(canon));
        ASSERT_TRUE(res.ok) << res.error << " @ line " << res.errorLine;
        EXPECT_TRUE(res.diagnostics.ok()) << res.diagnostics.str();
        EXPECT_EQ(canonicalHash(res.graph), canonicalHash(w.graph));
    }
}

TEST(Passes, FoldConstantsUnit)
{
    // 8-1 folds in a loop bound...
    Operator op;
    op.name = "f";
    op.tensors = {tensor("X", {c(8)})};
    op.body = {forLoop("i", c(0), bsub(c(8), c(1)),
                       {assign("X", {v("i")}, badd(c(2), c(3)))})};
    DataflowGraph g;
    g.ops = {op};
    g.calls = {{"f"}};
    DataflowGraph folded = normalizeExprKinds(g);
    const Stmt& loop = *folded.ops[0].body[0];
    ASSERT_EQ(loop.loop.upper->kind, ExprKind::Const);
    EXPECT_EQ(loop.loop.upper->constVal, 7);
    // ...but an assignment right-hand side is a costed position and is
    // left alone.
    EXPECT_EQ(loop.body[0]->rhs->kind, ExprKind::Binary);

    // Div is never folded: 7/2 truncates as a long but not under the
    // simulator's double arithmetic.
    Operator op2 = op;
    op2.body = {forLoop("i", c(0), bdiv(c(7), c(2)),
                        {assign("X", {v("i")}, c(1))})};
    DataflowGraph g2;
    g2.ops = {op2};
    g2.calls = {{"f"}};
    EXPECT_EQ(normalizeExprKinds(g2).ops[0].body[0]->loop.upper->kind,
              ExprKind::Binary);
}

TEST(Passes, OverflowingShapeFoldStaysUnfolded)
{
    // LONG_MAX + 1 does not fit a long: the bound keeps its Binary node
    // (no signed overflow), and the key is still a fixed point.
    Operator op;
    op.name = "f";
    op.tensors = {tensor("X", {c(8)})};
    op.body = {forLoop("i", c(0),
                       badd(c(std::numeric_limits<long>::max()), c(1)),
                       {assign("X", {v("i")}, c(1))})};
    DataflowGraph built;
    built.ops = {op};
    built.calls = {{"f"}};
    auto parsed = parseProgram(
        "void f(float X[8]) {\n"
        "  for (int i = 0; i < (9223372036854775807 + 1); i += 1) {\n"
        "    X[i] = 1;\n"
        "  }\n"
        "}\n"
        "void dataflow() {\n"
        "  f();\n"
        "}\n");
    ASSERT_TRUE(parsed.ok) << parsed.error << " @ line " << parsed.errorLine;
    for (const DataflowGraph* g : {&built, &parsed.graph}) {
        DataflowGraph canon = canonicalize(*g);
        EXPECT_EQ(canon.ops[0].body[0]->loop.upper->kind, ExprKind::Binary);
        EXPECT_EQ(canonicalHash(canon), canonicalHash(*g));
    }
    EXPECT_EQ(canonicalHash(parsed.graph), canonicalHash(built));
}

TEST(Passes, EliminateDeadCodeUnit)
{
    Operator op;
    op.name = "f";
    op.tensors = {tensor("X", {c(4)})};
    op.body = {
        assign("X", {c(0)}, c(1)),         // live tensor store
        assignScalar("ghost", c(5)),       // dead: never read
        assignScalar("keep", c(2)),        // live: read below
        assign("X", {c(1)}, p("keep")),
        ifStmt(bgt(c(0), c(1)), {assign("X", {c(2)}, c(9))}), // dead
        ifStmt(blt(c(0), c(1)), {assign("X", {c(3)}, c(7))}), // taken
        forLoop("i", c(0), c(4), {assignScalar("ghost2", c(1))}),
    };
    Operator never;
    never.name = "uncalled";
    never.tensors = {tensor("Z", {c(2)})};
    never.body = {assign("Z", {c(0)}, c(0))};
    DataflowGraph g;
    g.ops = {op, never};
    g.calls = {{"f"}};

    DataflowGraph out = eliminateDeadCode(g);
    ASSERT_EQ(out.ops.size(), 1u) << "uncalled operator must be dropped";
    const auto& body = out.ops[0].body;
    // Survivors: the first tensor store, the live temp and its reader,
    // and the spliced body of the constant-true branch.
    ASSERT_EQ(body.size(), 4u);
    EXPECT_EQ(body[0]->target, "X");
    EXPECT_EQ(body[1]->target, "keep");
    EXPECT_EQ(body[2]->target, "X");
    EXPECT_EQ(body[3]->target, "X"); // from the taken branch
    EXPECT_EQ(body[3]->targetIdx[0]->constVal, 3);
}

TEST(Passes, RenameCanonicalAvoidsTensorNames)
{
    // Tensors keep their names; canonical value names must step around
    // them even when a tensor is already called "t0" / "i0" / "p0".
    Operator op;
    op.name = "f";
    op.scalarParams = {"N"};
    op.tensors = {tensor("t0", {p("N")}), tensor("i0", {p("N")}),
                  tensor("p0", {p("N")})};
    op.body = {
        assignScalar("tmp", c(3)),
        forLoop("z", c(0), p("N"),
                {assign("t0", {v("z")},
                        badd(a("i0", {v("z")}), p("tmp")))})};
    DataflowGraph g;
    g.ops = {op};
    g.calls = {{"f"}};

    std::map<std::string, std::string> renames;
    DataflowGraph out = renameCanonical(g, &renames);
    const Operator& rop = out.ops[0];
    EXPECT_EQ(rop.tensors[0].name, "t0");
    EXPECT_EQ(rop.tensors[1].name, "i0");
    EXPECT_EQ(rop.tensors[2].name, "p0");
    EXPECT_EQ(rop.scalarParams[0], "p1") << "p0 is reserved by a tensor";
    EXPECT_EQ(rop.body[0]->target, "t1") << "t0 is reserved by a tensor";
    EXPECT_EQ(rop.body[1]->loop.var, "i1") << "i0 reserved by a tensor";
    EXPECT_EQ(renames.at("N"), "p1");
    EXPECT_EQ(renames.at("tmp"), "t1");
    auto res = verify(out);
    EXPECT_TRUE(res.ok()) << res.str();
}

TEST(Passes, OrderCommutativeOperandsIsOrderInsensitive)
{
    // b+a and a+b sort identically; a-b and b-a (non-commutative) do
    // not collapse.
    auto lhs = parseExpr("(alpha + beta)");
    auto rhs = parseExpr("(beta + alpha)");
    Operator op;
    op.name = "f";
    op.scalarParams = {"alpha", "beta"};
    op.tensors = {tensor("X", {c(2)})};
    op.body = {assign("X", {c(0)}, lhs)};
    DataflowGraph g1;
    g1.ops = {op};
    g1.calls = {{"f"}};
    DataflowGraph g2 = g1;
    auto st = std::make_shared<Stmt>(*g2.ops[0].body[0]);
    st->rhs = rhs;
    g2.ops[0].body = {st};
    EXPECT_NE(structuralHash(g1), structuralHash(g2));
    EXPECT_EQ(structuralHash(renameCanonical(g1)),
              structuralHash(renameCanonical(g2)));

    auto sub1 = parseExpr("(alpha - beta)");
    auto sub2 = parseExpr("(beta - alpha)");
    auto s1 = std::make_shared<Stmt>(*g1.ops[0].body[0]);
    s1->rhs = sub1;
    g1.ops[0].body = {s1};
    auto s2 = std::make_shared<Stmt>(*g2.ops[0].body[0]);
    s2->rhs = sub2;
    g2.ops[0].body = {s2};
    EXPECT_NE(structuralHash(renameCanonical(g1)),
              structuralHash(renameCanonical(g2)));
}

TEST(Passes, CanonicalKeysArePinned)
{
    // Keys are persisted: result snapshots store them and model-cache
    // artifact names fold them in. One digest over the canonical hash
    // and the scalar-rename map of a fixed population pins their
    // values, so a rewrite of the pipeline that moves any key fails
    // here, not in a cold cache.
    std::vector<DataflowGraph> population;
    util::Rng rng(21);
    for (const auto& w : fullCorpus()) {
        population.push_back(w.graph);
        for (int i = 0; i < 3; ++i)
            population.push_back(
                synth::equivalentMutant(w.graph, rng).graph);
    }
    synth::GenConfig gen;
    for (int i = 0; i < 200; ++i)
        population.push_back(synth::generateDataflowProgram(rng, gen));

    uint64_t digest = 0;
    auto fold = [&digest](const DataflowGraph& g) {
        digest = util::hashCombine(digest, canonicalHash(g));
        CanonResult canon = canonicalizeEx(g);
        digest = util::hashCombine(digest, canon.scalarRenames.size());
        for (const auto& [from, to] : canon.scalarRenames) {
            digest = util::hashCombine(digest, util::fnv1a(from));
            digest = util::hashCombine(digest, util::fnv1a(to));
        }
    };
    for (const auto& g : population) {
        fold(g);
        auto res = parseProgram(printStatic(g));
        ASSERT_TRUE(res.ok) << res.error << " @ line " << res.errorLine;
        fold(res.graph);
    }
    EXPECT_EQ(population.size(), 27u * 4 + 200);
    EXPECT_EQ(digest, 0x9d7e9e272a3d8a09ull);
}

TEST(Passes, SynthesizedProgramsCanonicalizeDeterministically)
{
    util::Rng rng(4242);
    synth::GenConfig gen;
    for (int i = 0; i < 15; ++i) {
        auto g = synth::generateDataflowProgram(rng, gen);
        uint64_t h = canonicalHash(g);
        EXPECT_EQ(canonicalHash(g), h);
        EXPECT_EQ(canonicalHash(canonicalize(g)), h);
        auto mut = synth::equivalentMutant(g, rng);
        EXPECT_EQ(canonicalHash(mut.graph), h);
    }
}

} // namespace
