/**
 * @file
 * Schedule-aware dependence analysis tests: direction vectors and the
 * interchange-legality matrix on hand-built nests, reduction detection,
 * graceful non-affine/imperfect handling, subscripts whose
 * linearization overflows `long`, the program key keeping loop orders
 * and tensor renames apart (distinct canonicalHash per variant), and
 * the regression that mutateProgram never interchanges a
 * dependence-carrying nest.
 */

#include <gtest/gtest.h>

#include <set>

#include "dfir/builder.h"
#include "dfir/parser.h"
#include "dfir/passes.h"
#include "dfir/schedule.h"
#include "synth/dataset.h"
#include "synth/generators.h"
#include "workloads/workloads.h"

namespace {

using namespace llmulator;
using namespace llmulator::dfir;

/**
 * C[i][j] += A[i][k] * B[k][j] under the given loop order; `t` names
 * the tensors A, B, C.
 */
DataflowGraph
gemmGraph(const std::vector<std::string>& order,
          const std::vector<std::string>& t = {"A", "B", "C"})
{
    Operator op;
    op.name = "gemm";
    op.scalarParams = {"N"};
    op.tensors = {tensor(t[0], {p("N"), p("N")}),
                  tensor(t[1], {p("N"), p("N")}),
                  tensor(t[2], {p("N"), p("N")})};
    auto body = assign(
        t[2], {v("i"), v("j")},
        badd(a(t[2], {v("i"), v("j")}),
             bmul(a(t[0], {v("i"), v("k")}), a(t[1], {v("k"), v("j")}))));
    StmtPtr nest = forLoop(order[2], c(0), p("N"), {body});
    nest = forLoop(order[1], c(0), p("N"), {nest});
    nest = forLoop(order[0], c(0), p("N"), {nest});
    op.body = {nest};

    DataflowGraph g;
    g.name = "gemm_" + order[0] + order[1] + order[2];
    g.ops = {op};
    g.calls = {{"gemm"}};
    return g;
}

/** In-place stencil: B[i][j] = B[i-1][j+1] — carries a (<,>) vector. */
DataflowGraph
stencilGraph(bool swapped_order = false)
{
    Operator op;
    op.name = "shift";
    op.scalarParams = {"N"};
    op.tensors = {tensor("B", {p("N"), p("N")})};
    auto body =
        assign("B", {v("i"), v("j")},
               a("B", {bsub(v("i"), c(1)), badd(v("j"), c(1))}));
    StmtPtr inner = forLoop(swapped_order ? "i" : "j", c(1), p("N"), {body});
    StmtPtr nest =
        forLoop(swapped_order ? "j" : "i", c(1), p("N"), {inner});
    op.body = {nest};

    DataflowGraph g;
    g.name = "shift";
    g.ops = {op};
    g.calls = {{"shift"}};
    return g;
}

TEST(Schedule, GemmDirectionVectorAndLegality)
{
    DataflowGraph g = gemmGraph({"i", "j", "k"});
    auto nests = analyzeOperator(g.ops[0]);
    ASSERT_EQ(nests.size(), 1u);
    const NestInfo& n = nests[0];
    EXPECT_EQ(n.depth(), 3);
    EXPECT_TRUE(n.perfect);
    EXPECT_FALSE(n.conservative);
    EXPECT_EQ(n.nonAffineAccesses, 0u);

    // The only dependence is the C accumulation, carried by k: (=,=,<).
    ASSERT_EQ(n.deps.size(), 1u);
    EXPECT_EQ(n.deps[0].tensor, "C");
    ASSERT_EQ(n.deps[0].dirs.size(), 3u);
    EXPECT_EQ(n.deps[0].dirs[0], Dir::Eq);
    EXPECT_EQ(n.deps[0].dirs[1], Dir::Eq);
    EXPECT_EQ(n.deps[0].dirs[2], Dir::Lt);

    // Every interchange is legal: (=,=,<) stays lexicographically
    // positive under any transposition, and only one level (k) is
    // reduced over.
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_EQ(interchangeLegal(n, i, j), i != j)
                << i << "," << j;

    // Out-of-range and degenerate queries refuse instead of crashing.
    EXPECT_FALSE(interchangeLegal(n, 0, 3));
    EXPECT_FALSE(interchangeLegal(n, -1, 1));
    EXPECT_FALSE(interchangeLegal(n, 2, 2));
}

TEST(Schedule, GemmReductionDetection)
{
    DataflowGraph g = gemmGraph({"i", "j", "k"});
    auto nests = analyzeOperator(g.ops[0]);
    ASSERT_EQ(nests.size(), 1u);
    ASSERT_EQ(nests[0].reductions.size(), 1u);
    EXPECT_EQ(nests[0].reductions[0].target, "C");
    // C[i][j] uses i (level 0) and j (level 1); k (level 2) is free —
    // the dimension being summed over.
    EXPECT_EQ(nests[0].reductions[0].freeLevels, std::vector<int>{2});
}

TEST(Schedule, StencilCarriedDependenceBlocksInterchange)
{
    DataflowGraph g = stencilGraph();
    auto nests = analyzeOperator(g.ops[0]);
    ASSERT_EQ(nests.size(), 1u);
    const NestInfo& n = nests[0];
    ASSERT_EQ(n.depth(), 2);

    // W(i,j) vs R(i-1,j+1): distance (+1,-1) => direction (<,>).
    bool found = false;
    for (const DirectionVector& d : n.deps)
        if (d.tensor == "B" && d.dirs.size() == 2 &&
            d.dirs[0] == Dir::Lt && d.dirs[1] == Dir::Gt)
            found = true;
    EXPECT_TRUE(found);

    // Swapping would turn (<,>) into (>,<): lex-negative, illegal.
    EXPECT_FALSE(interchangeLegal(n, 0, 1));
}

TEST(Schedule, TwoFreeLevelReductionBlocksInnerSwap)
{
    // S[i] = S[i] + A[i][j][k] over (i,j,k): levels 1 and 2 are both
    // reduced over, so swapping them reorders the FP accumulation.
    Operator op;
    op.name = "rowsum";
    op.scalarParams = {"N"};
    op.tensors = {tensor("A", {p("N"), p("N"), p("N")}),
                  tensor("S", {p("N")})};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {forLoop("j", c(0), p("N"),
                 {forLoop("k", c(0), p("N"),
                          {assign("S", {v("i")},
                                  badd(a("S", {v("i")}),
                                       a("A", {v("i"), v("j"),
                                               v("k")})))})})})};
    auto nests = analyzeOperator(op);
    ASSERT_EQ(nests.size(), 1u);
    const NestInfo& n = nests[0];
    ASSERT_EQ(n.reductions.size(), 1u);
    EXPECT_EQ(n.reductions[0].freeLevels, (std::vector<int>{1, 2}));
    EXPECT_FALSE(interchangeLegal(n, 1, 2)); // both free: reject
    // Swapping i with a free level keeps each cell's sum order.
    EXPECT_TRUE(interchangeLegal(n, 0, 1));
}

TEST(Schedule, TriangularBoundBlocksInterchange)
{
    // for i: for j in [0, i): a header swap would break scoping.
    Operator op;
    op.name = "tri";
    op.scalarParams = {"N"};
    op.tensors = {tensor("X", {p("N"), p("N")})};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {forLoop("j", c(0), v("i"),
                 {assign("X", {v("i"), v("j")}, c(1))})})};
    auto nests = analyzeOperator(op);
    ASSERT_EQ(nests.size(), 1u);
    EXPECT_FALSE(interchangeLegal(nests[0], 0, 1));
}

TEST(Schedule, NonAffineSubscriptIsGracefullyConservative)
{
    // Indirect write A[B[i]] = ...: no assert, NonAffine classification,
    // conservative flag, interchange rejected.
    Operator op;
    op.name = "scatter";
    op.scalarParams = {"N"};
    op.tensors = {tensor("A", {p("N")}), tensor("B", {p("N")}),
                  tensor("V", {p("N"), p("N")})};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {forLoop("j", c(0), p("N"),
                 {assign("A", {a("B", {v("i")})},
                         a("V", {v("i"), v("j")}))})})};
    auto nests = analyzeOperator(op);
    ASSERT_EQ(nests.size(), 1u);
    const NestInfo& n = nests[0];
    EXPECT_TRUE(n.conservative);
    EXPECT_FALSE(n.notes.empty());
    EXPECT_FALSE(interchangeLegal(n, 0, 1));
    // Only the A write is NonAffine; the B read in its subscript and
    // the V read are still classified precisely.
    EXPECT_EQ(n.affineAccesses, 2u);
    EXPECT_EQ(n.nonAffineAccesses, 1u);
}

TEST(Schedule, ClassifySubscript)
{
    std::vector<std::string> loops = {"i", "j"};
    std::set<std::string> inv = {"N"};
    EXPECT_EQ(classifySubscript(badd(v("i"), c(1)), loops, inv),
              AccessClass::Affine);
    EXPECT_EQ(classifySubscript(badd(bmul(c(2), v("i")), p("N")), loops,
                                inv),
              AccessClass::Affine);
    EXPECT_EQ(classifySubscript(bmul(v("i"), v("j")), loops, inv),
              AccessClass::NonAffine);
    EXPECT_EQ(classifySubscript(p("t0"), loops, inv),
              AccessClass::NonAffine); // temp: not provably invariant
    EXPECT_EQ(classifySubscript(a("B", {v("i")}), loops, inv),
              AccessClass::NonAffine); // indirect
    EXPECT_EQ(classifySubscript(bdiv(v("i"), c(2)), loops, inv),
              AccessClass::NonAffine); // non-linear operator
}

TEST(Schedule, ImperfectNestAnalyzedNotRejected)
{
    // for i { t = A[i][0]; for j { A[i][j] = t } }: the band is the
    // outer loop only, flagged imperfect, and analysis still runs.
    Operator op;
    op.name = "rowinit";
    op.scalarParams = {"N"};
    op.tensors = {tensor("A", {p("N"), p("N")})};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {assignScalar("t", a("A", {v("i"), c(0)})),
         forLoop("j", c(0), p("N"),
                 {assign("A", {v("i"), v("j")}, p("t"))})})};
    auto nests = analyzeOperator(op);
    ASSERT_EQ(nests.size(), 1u);
    EXPECT_EQ(nests[0].depth(), 1);
    EXPECT_FALSE(nests[0].perfect);
    EXPECT_FALSE(nests[0].notes.empty());
}

TEST(Schedule, OverflowingSubscriptsAnalyzeConservatively)
{
    // Every literal is in range, but linearizing the first nest's
    // subscripts overflows long (2^62 * 4), and the second nest's two
    // offsets are LONG_MAX and -1, whose difference overflows. Both
    // must analyze and report instead of trapping in the pair test.
    const char* wrap =
        "void f(float A[64]) {\n"
        "  for (int i = 0; i < 8; i += 1) {\n"
        "    A[((i * 4611686018427387904) * 4)] = "
        "A[(((i * 4611686018427387904) * 4) + 1)];\n"
        "  }\n"
        "}\n"
        "void dataflow() {\n"
        "  f();\n"
        "}\n";
    const char* far =
        "void f(float A[64]) {\n"
        "  for (int i = 0; i < 8; i += 1) {\n"
        "    A[((0 - i) + 9223372036854775807)] = A[((0 - i) - 1)];\n"
        "  }\n"
        "}\n"
        "void dataflow() {\n"
        "  f();\n"
        "}\n";
    for (bool wraps : {true, false}) {
        const char* src = wraps ? wrap : far;
        SCOPED_TRACE(src);
        ParseResult res = parseProgram(src);
        ASSERT_TRUE(res.ok) << res.error;
        auto nests = analyzeOperator(res.graph.ops[0]);
        ASSERT_EQ(nests.size(), 1u);
        EXPECT_EQ(nests[0].depth(), 1);
        ScheduleReport rep = scheduleReport(res.graph);
        ASSERT_EQ(rep.nests.size(), 1u);
        EXPECT_NE(rep.str().find("depth=1"), std::string::npos);
        if (wraps) {
            const StmtPtr& write = res.graph.ops[0].body[0]->body[0];
            EXPECT_EQ(classifySubscript(write->targetIdx[0], {"i"}, {}),
                      AccessClass::NonAffine);
            EXPECT_TRUE(nests[0].conservative);
        } else {
            // The offsets give no information, so the write/read pair
            // keeps a loop-carried dependence in every direction.
            EXPECT_FALSE(nests[0].conservative);
            EXPECT_EQ(nests[0].deps.size(), 1u);
        }
    }
}

TEST(Schedule, CanonicalHashKeepsLoopOrdersAndTensorNamesApart)
{
    // canonicalHash is the one program key, and programs under one key
    // must profile alike. A loop-order change moves cycles, and the
    // simulator builds input data from tensor names, so neither the
    // six GEMM orders, the accelerator GEMM variants nor a
    // tensor-renamed GEMM may share a key.
    std::set<uint64_t> orders;
    for (const auto& order :
         {std::vector<std::string>{"i", "j", "k"}, {"i", "k", "j"},
          {"j", "i", "k"}, {"j", "k", "i"}, {"k", "i", "j"},
          {"k", "j", "i"}})
        orders.insert(canonicalHash(gemmGraph(order)));
    EXPECT_EQ(orders.size(), 6u);

    auto accel = workloads::accelerators();
    ASSERT_GE(accel.size(), 3u);
    std::set<uint64_t> accelKeys;
    for (const auto& w : accel)
        accelKeys.insert(canonicalHash(w.graph));
    EXPECT_EQ(accelKeys.size(), accel.size());

    EXPECT_NE(canonicalHash(gemmGraph({"i", "j", "k"}, {"U", "V", "W"})),
              canonicalHash(gemmGraph({"i", "j", "k"})));
}

TEST(Schedule, MutateProgramNeverInterchangesDependenceCarryingNest)
{
    // Regression for the blind interchange: across many mutation
    // streams the stencil's loop order must survive every mutant.
    DataflowGraph g = stencilGraph();
    synth::GenConfig cfg;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        util::Rng rng(seed);
        DataflowGraph mut = synth::mutateProgram(g, rng, cfg);
        ASSERT_EQ(mut.ops[0].body[0]->kind, StmtKind::For);
        EXPECT_EQ(mut.ops[0].body[0]->loop.var, "i") << "seed " << seed;
        ASSERT_EQ(mut.ops[0].body[0]->body[0]->kind, StmtKind::For);
        EXPECT_EQ(mut.ops[0].body[0]->body[0]->loop.var, "j")
            << "seed " << seed;
    }
}

TEST(Schedule, MutateProgramStillInterchangesLegalNests)
{
    // Positive control: the legality gate must not silence the
    // interchange mutation entirely — an independent copy kernel still
    // gets swapped in some streams.
    Operator op;
    op.name = "copy";
    op.scalarParams = {"N"};
    op.tensors = {tensor("A", {p("N"), p("N")}),
                  tensor("B", {p("N"), p("N")})};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {forLoop("j", c(0), p("N"),
                 {assign("B", {v("i"), v("j")},
                         a("A", {v("i"), v("j")}))})})};
    DataflowGraph g;
    g.name = "copy";
    g.ops = {op};
    g.calls = {{"copy"}};

    synth::GenConfig cfg;
    bool swapped = false;
    for (uint64_t seed = 0; seed < 200 && !swapped; ++seed) {
        util::Rng rng(seed);
        DataflowGraph mut = synth::mutateProgram(g, rng, cfg);
        if (mut.ops[0].body[0]->kind == StmtKind::For &&
            mut.ops[0].body[0]->loop.var == "j")
            swapped = true;
    }
    EXPECT_TRUE(swapped);
}

TEST(Schedule, ScheduleReportSummarizesNests)
{
    DataflowGraph g = gemmGraph({"i", "j", "k"});
    ScheduleReport rep = scheduleReport(g);
    ASSERT_EQ(rep.nests.size(), 1u);
    EXPECT_EQ(rep.nests[0].depth, 3);
    EXPECT_TRUE(rep.nests[0].perfect);
    EXPECT_EQ(rep.nests[0].legalPairs.size(), 3u);
    ASSERT_EQ(rep.nests[0].reductionTargets.size(), 1u);
    EXPECT_EQ(rep.nests[0].reductionTargets[0], "C");
    EXPECT_EQ(rep.canonicalHash, canonicalHash(g));
    // The rendered report carries the program key and the nest line.
    std::string s = rep.str();
    EXPECT_NE(s.find("canonicalHash="), std::string::npos);
    EXPECT_NE(s.find("depth=3"), std::string::npos);
}

TEST(Schedule, DatasetStatsCountCanonicalKeys)
{
    // Three loop orders of one GEMM: three samples, three program keys.
    synth::Dataset ds;
    for (const auto& order :
         {std::vector<std::string>{"i", "j", "k"}, {"k", "j", "i"},
          {"j", "i", "k"}}) {
        synth::Sample s;
        s.graph = gemmGraph(order);
        ds.samples.push_back(std::move(s));
    }
    synth::DatasetStats stats = synth::datasetStats(ds);
    EXPECT_EQ(stats.samples, 3u);
    EXPECT_EQ(stats.distinctCanonical, 3u);
}

} // namespace
