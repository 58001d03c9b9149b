/**
 * @file
 * Dataflow-IR tests: builder, printer, control-flow classification,
 * handcrafted features and program-graph extraction.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cmath>

#include "dfir/analysis.h"
#include "dfir/builder.h"
#include "dfir/printer.h"

namespace {

using namespace llmulator;
using namespace llmulator::dfir;

/** Simple GEMM-like operator: C[i][j] += A[i][k] * B[k][j]. */
Operator
makeGemm(long n, int unroll = 1, bool parallel = false)
{
    Operator op;
    op.name = "gemm";
    op.tensors = {tensor("A", {c(n), c(n)}), tensor("B", {c(n), c(n)}),
                  tensor("C", {c(n), c(n)})};
    auto body = assign(
        "C", {v("i"), v("j")},
        badd(a("C", {v("i"), v("j")}),
             bmul(a("A", {v("i"), v("k")}), a("B", {v("k"), v("j")}))));
    op.body = {forLoop(
        "i", c(0), c(n),
        {forLoop("j", c(0), c(n),
                 {forLoop("k", c(0), c(n), {body}, 1, unroll, parallel)})})};
    return op;
}

/** Operator with input-dependent control flow (threshold branch). */
Operator
makeThreshold()
{
    Operator op;
    op.name = "thresh";
    op.tensors = {tensor("X", {p("N")}), tensor("Y", {p("N")})};
    op.scalarParams = {"N"};
    auto branch = ifStmt(bgt(a("X", {v("i")}), c(0)),
                         {assign("Y", {v("i")},
                                 bmul(a("X", {v("i")}), c(2)))},
                         {assign("Y", {v("i")}, c(0))});
    op.body = {forLoop("i", c(0), p("N"), {branch})};
    return op;
}

DataflowGraph
makeGraph(std::vector<Operator> ops)
{
    DataflowGraph g;
    g.name = "test";
    for (const auto& op : ops)
        g.calls.push_back({op.name});
    g.ops = std::move(ops);
    return g;
}

TEST(Printer, GemmRendersCLikeText)
{
    auto g = makeGraph({makeGemm(8)});
    std::string text = printStatic(g);
    EXPECT_NE(text.find("void gemm("), std::string::npos);
    EXPECT_NE(text.find("for (int i = 0; i < 8; i += 1)"), std::string::npos);
    EXPECT_NE(text.find("C[i][j] = (C[i][j] + (A[i][k] * B[k][j]));"),
              std::string::npos);
    EXPECT_NE(text.find("void dataflow()"), std::string::npos);
    EXPECT_NE(text.find("-mem-read-delay=10"), std::string::npos);
}

TEST(Printer, PragmasRendered)
{
    auto g = makeGraph({makeGemm(8, 4, true)});
    std::string text = printStatic(g);
    EXPECT_NE(text.find("#pragma clang loop unroll_count(4)"),
              std::string::npos);
    EXPECT_NE(text.find("#pragma omp parallel for"), std::string::npos);
}

TEST(Printer, DynamicDataSegment)
{
    RuntimeData data;
    data.scalars["N"] = 128;
    data.tensors["X"] = {1.0, -2.0, 3.0};
    std::string text = printData(data);
    EXPECT_NE(text.find("N = 128"), std::string::npos);
    EXPECT_NE(text.find("X.len = 3"), std::string::npos);
    EXPECT_NE(text.find("X.max = 3"), std::string::npos);
}

TEST(Analysis, GemmIsClassI)
{
    // Constant loop bounds, no branches: control flow is input-independent.
    EXPECT_EQ(classifyOperator(makeGemm(8)), ControlFlowClass::ClassI);
}

TEST(Analysis, ThresholdIsClassII)
{
    // Branch on array data plus a param-dependent loop bound.
    EXPECT_EQ(classifyOperator(makeThreshold()), ControlFlowClass::ClassII);
}

TEST(Analysis, ParamBoundAloneIsClassII)
{
    Operator op;
    op.name = "dynloop";
    op.tensors = {tensor("X", {p("N")})};
    op.scalarParams = {"N"};
    op.body = {forLoop("i", c(0), p("N"),
                       {assign("X", {v("i")}, c(1))})};
    EXPECT_EQ(classifyOperator(op), ControlFlowClass::ClassII);
}

TEST(Analysis, DynamicParamCount)
{
    auto g = makeGraph({makeThreshold()});
    EXPECT_EQ(countDynamicParams(g), 1); // N appears in control flow
    auto g2 = makeGraph({makeGemm(8)});
    EXPECT_EQ(countDynamicParams(g2), 0);
}

TEST(Analysis, EstimateExprFoldsArithmetic)
{
    std::map<std::string, long> defaults{{"N", 64}};
    EXPECT_EQ(estimateExpr(badd(p("N"), c(2)), defaults), 66);
    EXPECT_EQ(estimateExpr(bmul(c(3), c(5)), defaults), 15);
    EXPECT_EQ(estimateExpr(p("M"), defaults, 32), 32); // fallback
}

TEST(Analysis, BoundsPastLongStayFinite)
{
    // Trips and sizes are formed from untrusted literals: a span past
    // LONG_MAX, LONG_MIN / -1 and LONG_MIN % -1 saturate or fold to 0
    // instead of overflowing (UBSan halts on the unchecked forms).
    const long big = 9000000000000000000L;
    const ExprPtr minLong = bsub(bsub(c(0), c(LONG_MAX)), c(1));
    const ExprPtr minusOne = bsub(c(0), c(1));
    EXPECT_EQ(estimateExpr(bsub(c(big), bsub(c(0), c(big))), {}), LONG_MAX);
    EXPECT_EQ(estimateExpr(bsub(bsub(c(0), c(big)), c(big)), {}), LONG_MIN);
    EXPECT_EQ(estimateExpr(bmul(c(big), bsub(c(0), c(big))), {}), LONG_MIN);
    EXPECT_EQ(estimateExpr(bdiv(minLong, minusOne), {}), LONG_MAX);
    EXPECT_EQ(estimateExpr(bin(BinOp::Mod, minLong, minusOne), {}), 0);

    Operator op;
    op.name = "wide";
    op.tensors = {tensor("X", {c(big), c(big)})};
    auto body = assign("X", {v("i"), v("j")}, c(1));
    op.body = {forLoop("i", bsub(c(0), c(big)), c(big),
                       {forLoop("j", c(0), bdiv(minLong, minusOne),
                                {body})})};
    auto g = makeGraph({op});
    for (float f : handcraftedFeatures(g, {}))
        EXPECT_TRUE(std::isfinite(f)) << f;
    const ProgramGraph pg = extractProgramGraph(g);
    for (const auto& node : pg.features)
        for (float f : node)
            EXPECT_TRUE(std::isfinite(f)) << f;
}

TEST(Analysis, HandcraftedFeatureShapeAndSensitivity)
{
    auto g8 = makeGraph({makeGemm(8)});
    auto g64 = makeGraph({makeGemm(64)});
    auto f8 = handcraftedFeatures(g8, {});
    auto f64 = handcraftedFeatures(g64, {});
    ASSERT_EQ(f8.size(), size_t(kHandcraftedFeatureDim));
    ASSERT_EQ(f64.size(), size_t(kHandcraftedFeatureDim));
    // Larger loop bounds must increase the trip-count feature.
    EXPECT_GT(f64[0], f8[0]);
    // Same loop count / depth.
    EXPECT_FLOAT_EQ(f8[1], f64[1]);
    EXPECT_FLOAT_EQ(f8[2], f64[2]);
}

TEST(Analysis, FeaturesIgnoreTensorContents)
{
    // Tenset-MLP's defining weakness (paper Table 1): same shapes, different
    // data => identical features.
    auto g = makeGraph({makeThreshold()});
    auto f1 = handcraftedFeatures(g, {{"N", 64}});
    auto f2 = handcraftedFeatures(g, {{"N", 64}});
    EXPECT_EQ(f1, f2);
}

TEST(Analysis, ProgramGraphStructure)
{
    auto g = makeGraph({makeGemm(8), makeThreshold()});
    ProgramGraph pg = extractProgramGraph(g);
    ASSERT_GT(pg.numNodes(), 5);
    EXPECT_EQ(pg.kinds[0], NodeKind::Graph);
    int loops = 0, ops = 0, arrays = 0, ifs = 0;
    for (auto k : pg.kinds) {
        loops += k == NodeKind::Loop;
        ops += k == NodeKind::Op;
        arrays += k == NodeKind::Array;
        ifs += k == NodeKind::If;
    }
    EXPECT_EQ(ops, 2);
    EXPECT_EQ(loops, 4);  // 3 gemm + 1 thresh
    EXPECT_EQ(arrays, 5); // A B C X Y
    EXPECT_EQ(ifs, 1);
    // Adjacency is symmetric.
    for (int u = 0; u < pg.numNodes(); ++u)
        for (int nb : pg.adj[u]) {
            bool back = false;
            for (int w : pg.adj[nb])
                back |= (w == u);
            EXPECT_TRUE(back);
        }
}

TEST(Ir, StructuralHashDistinguishesPrograms)
{
    auto g1 = makeGraph({makeGemm(8)});
    auto g2 = makeGraph({makeGemm(16)});
    auto g3 = makeGraph({makeGemm(8)});
    EXPECT_NE(structuralHash(g1), structuralHash(g2));
    EXPECT_EQ(structuralHash(g1), structuralHash(g3));
    // Hardware params are part of the identity.
    g3.params.memReadDelay = 2;
    EXPECT_NE(structuralHash(g1), structuralHash(g3));
}

} // namespace
