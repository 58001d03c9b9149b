/**
 * @file
 * Interpreter-semantics tests: scalar temporaries feeding loop bounds,
 * loop-variable shadowing across nests, min/max/mod evaluation, empty
 * loops, and else-less branches — the corner cases synthesized programs
 * exercise constantly. Also programs the parser accepts whose counts do
 * not fit in `long`: the simulator must stay defined on them (the
 * sanitizer CI job runs this suite with UBSan halting).
 */

#include <gtest/gtest.h>

#include <climits>
#include <string>

#include "dfir/builder.h"
#include "dfir/parser.h"
#include "sim/profiler.h"

namespace {

using namespace llmulator;
using namespace llmulator::dfir;

DataflowGraph
wrap(Operator op)
{
    DataflowGraph g;
    g.name = "sem";
    g.calls = {{op.name}};
    g.ops = {std::move(op)};
    return g;
}

TEST(SimSemantics, ScalarTempDrivesLaterLoopBound)
{
    // t = 8; for (i = 0; i < t) ... — the temp must resolve at loop entry.
    Operator op;
    op.name = "temp";
    op.tensors = {tensor("X", {c(32)})};
    op.body = {
        assignScalar("t", c(8)),
        forLoop("i", c(0), v("t"), {assign("X", {v("i")}, c(1))}),
    };
    auto small = sim::profileStatic(wrap(op)).cycles;

    Operator op2 = op;
    op2.body[0] = assignScalar("t", c(24));
    auto large = sim::profileStatic(wrap(op2)).cycles;
    EXPECT_GT(large, small);
}

TEST(SimSemantics, LoopVariableShadowingRestores)
{
    // Two sequential loops reusing "i": the second must start fresh, and
    // an inner loop reusing the outer's name must not corrupt the outer.
    Operator op;
    op.name = "shadow";
    op.tensors = {tensor("X", {c(16)})};
    op.body = {
        forLoop("i", c(0), c(4),
                {forLoop("i", c(0), c(3),
                         {assign("X", {v("i")}, c(1))})}),
        forLoop("i", c(0), c(5), {assign("X", {v("i")}, c(2))}),
    };
    auto prof = sim::profileStatic(wrap(op));
    EXPECT_GT(prof.cycles, 0);
    // Deterministic under repetition (no leaked state).
    EXPECT_EQ(prof.cycles, sim::profileStatic(wrap(op)).cycles);
}

TEST(SimSemantics, MinMaxModEvaluate)
{
    Operator op;
    op.name = "mmm";
    op.tensors = {tensor("X", {c(8)})};
    op.body = {forLoop(
        "i", c(0), c(8),
        {assign("X", {v("i")},
                bmin(bmax(v("i"), c(3)),
                     bin(BinOp::Mod, v("i"), c(5))))})};
    EXPECT_GT(sim::profileStatic(wrap(op)).cycles, 0);
}

TEST(SimSemantics, EmptyTripLoopCostsOneCycle)
{
    Operator op;
    op.name = "empty";
    op.tensors = {tensor("X", {c(4)})};
    op.body = {forLoop("i", c(5), c(5), {assign("X", {v("i")}, c(1))})};
    // Bound test only — strictly cheaper than a loop that runs.
    Operator op2 = op;
    op2.body = {forLoop("i", c(0), c(5), {assign("X", {v("i")}, c(1))})};
    EXPECT_LT(sim::profileStatic(wrap(op)).cycles,
              sim::profileStatic(wrap(op2)).cycles);
}

TEST(SimSemantics, ElselessBranchOnlyChargesTakenPath)
{
    Operator thenonly;
    thenonly.name = "b";
    thenonly.tensors = {tensor("X", {c(64)})};
    thenonly.body = {forLoop(
        "i", c(0), c(64),
        {ifStmt(bgt(a("X", {v("i")}), c(1000)), // never true
                {assign("X", {v("i")},
                        bmul(bmul(a("X", {v("i")}), a("X", {v("i")})),
                             a("X", {v("i")})))})})};
    dfir::RuntimeData data;
    data.tensors["X"] = std::vector<double>(64, 0.0);
    auto prof = sim::profile(wrap(thenonly), data);
    EXPECT_EQ(prof.branchesTaken, 0);
    EXPECT_EQ(prof.branchesNotTaken, 64);

    // All-true input must cost more (the then-arm is expensive).
    dfir::RuntimeData hot;
    hot.tensors["X"] = std::vector<double>(64, 2000.0);
    EXPECT_GT(sim::profile(wrap(thenonly), hot).cycles, prof.cycles);
}

TEST(SimSemantics, DivisionByZeroIsDefined)
{
    Operator op;
    op.name = "div0";
    op.tensors = {tensor("X", {c(4)})};
    op.body = {forLoop("i", c(0), c(4),
                       {assign("X", {v("i")},
                               bdiv(c(10), a("X", {v("i")})))})};
    dfir::RuntimeData data;
    data.tensors["X"] = {0.0, 0.0, 0.0, 0.0};
    auto prof = sim::profile(wrap(op), data); // must not crash
    EXPECT_GT(prof.cycles, 0);
}

TEST(SimSemantics, CallOrderIndependentStaticMetrics)
{
    Operator a_op, b_op;
    a_op.name = "opa";
    a_op.tensors = {tensor("X", {c(8)})};
    a_op.body = {forLoop("i", c(0), c(8),
                         {assign("X", {v("i")}, bmul(v("i"), c(2)))})};
    b_op.name = "opb";
    b_op.tensors = {tensor("Y", {c(8)})};
    b_op.body = {forLoop("i", c(0), c(8),
                         {assign("Y", {v("i")}, badd(v("i"), c(1)))})};

    DataflowGraph g1, g2;
    g1.name = g2.name = "order";
    g1.ops = g2.ops = {a_op, b_op};
    g1.calls = {{"opa"}, {"opb"}};
    g2.calls = {{"opb"}, {"opa"}};
    auto p1 = sim::profileStatic(g1);
    auto p2 = sim::profileStatic(g2);
    EXPECT_DOUBLE_EQ(p1.areaUm2, p2.areaUm2);
    EXPECT_EQ(p1.flipFlops, p2.flipFlops);
    EXPECT_EQ(p1.cycles, p2.cycles); // independent ops: order-invariant
}

/** Profile program text that must parse and verify cleanly. */
sim::Profile
profileText(const std::string& text)
{
    ParseResult res = parseProgram(text);
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.diagnostics.ok()) << res.diagnostics.str();
    return sim::profile(res.graph, res.data);
}

/** One operator `f` with tensor declaration `decl` and body `body`. */
std::string
program(const std::string& decl, const std::string& body)
{
    return "void f(float " + decl + ") {\n" + body +
           "}\nvoid dataflow() {\n  f();\n}\n";
}

// The element product of unbound tensor dims saturates at the 2^20 cap
// instead of overflowing first: [2^40][2^40] binds the same pseudo-data
// as [2^10][2^10], so a branch on it runs the same way.
TEST(SimSemantics, TensorDimsPastTheCapBindTheCappedTensor)
{
    const std::string body = "  for (int i = 0; i < 16; i += 1) {\n"
                             "    if ((A[i][i] > 0)) {\n"
                             "      A[i][i] = 1;\n"
                             "    }\n"
                             "  }\n";
    sim::Profile huge =
        profileText(program("A[1099511627776][1099511627776]", body));
    sim::Profile capped = profileText(program("A[1024][1024]", body));
    EXPECT_GT(capped.branchesTaken, 0);
    EXPECT_EQ(huge.branchesTaken, capped.branchesTaken);
    EXPECT_EQ(huge.branchesNotTaken, capped.branchesNotTaken);
    EXPECT_EQ(huge.cycles, capped.cycles);
}

// Subscripts past `long` combine modulo 2^64 and still land in the
// store; the cycle model charges the multiplies, not index values.
TEST(SimSemantics, HugeSubscriptsStayInTheStore)
{
    sim::Profile huge = profileText(program(
        "A[64][64]", "  for (int i = 0; i < 4; i += 1) {\n"
                     "    A[(i * 1000000000000000000)]"
                     "[(i * 1000000000000000000)] = 1;\n"
                     "  }\n"));
    sim::Profile small = profileText(program(
        "A[64][64]", "  for (int i = 0; i < 4; i += 1) {\n"
                     "    A[(i * 3)][(i * 3)] = 1;\n"
                     "  }\n"));
    EXPECT_EQ(huge.cycles, small.cycles);
}

// hi - lo of these bounds does not fit in `long`: the trip count
// saturates, and so does the loop's cycle count.
TEST(SimSemantics, TripCountPastLongMaxSaturates)
{
    sim::Profile prof = profileText(program(
        "A[64]", "  for (int i = (0 - 9000000000000000000); "
                 "i < 9000000000000000000; i += 1) {\n"
                 "    A[i] = 1;\n"
                 "  }\n"));
    EXPECT_EQ(prof.cycles, LONG_MAX);
}

// A 2^40 x 2^40 nest runs 2^80 inner trips: the outer loop's
// extrapolated cycle sum (~2^80) saturates instead of wrapping.
TEST(SimSemantics, NestPastLongMaxCyclesSaturates)
{
    sim::Profile prof = profileText(program(
        "A[64]", "  for (int i = 0; i < 1099511627776; i += 1) {\n"
                 "    for (int j = 0; j < 1099511627776; j += 1) {\n"
                 "      A[j] = 1;\n"
                 "    }\n"
                 "  }\n"));
    EXPECT_EQ(prof.cycles, LONG_MAX);
}

// Counts that fit keep their exact value: a 2^20-trip loop costs its
// fill depth plus one cycle per further trip (II = 1).
TEST(SimSemantics, CountsThatFitStayExact)
{
    sim::Profile one = profileText(program(
        "A[64]", "  for (int i = 0; i < 1; i += 1) {\n"
                 "    A[i] = 1;\n"
                 "  }\n"));
    sim::Profile many = profileText(program(
        "A[64]", "  for (int i = 0; i < 1048576; i += 1) {\n"
                 "    A[i] = 1;\n"
                 "  }\n"));
    EXPECT_EQ(many.cycles - one.cycles, 1048575);
}

} // namespace
