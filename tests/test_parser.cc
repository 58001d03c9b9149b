/**
 * @file
 * Parser tests: printer/parser round trips (the key invariant: a parsed
 * program profiles identically to the original), expression precedence,
 * pragma handling, hardware parameters, data lines, and error reporting
 * (out-of-range integer literals and over-deep nesting included).
 */

#include <gtest/gtest.h>

#include <limits>

#include "dfir/builder.h"
#include "dfir/parser.h"
#include "dfir/printer.h"
#include "sim/profiler.h"
#include "synth/generators.h"
#include "workloads/workloads.h"

namespace {

using namespace llmulator;
using namespace llmulator::dfir;

TEST(Parser, ExpressionPrecedence)
{
    auto e = parseExpr("1 + 2 * 3");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->op, BinOp::Add);
    EXPECT_EQ(e->args[1]->op, BinOp::Mul);

    auto cmp = parseExpr("a[i] + 1 < N * 2");
    ASSERT_NE(cmp, nullptr);
    EXPECT_EQ(cmp->op, BinOp::Lt);

    auto mm = parseExpr("min(3, max(x, 5))");
    ASSERT_NE(mm, nullptr);
    EXPECT_EQ(mm->op, BinOp::Min);
    EXPECT_EQ(mm->args[1]->op, BinOp::Max);
}

TEST(Parser, ExpressionErrorsAreReported)
{
    std::string err;
    EXPECT_EQ(parseExpr("1 + ;", &err), nullptr);
    EXPECT_FALSE(err.empty());
}

TEST(Parser, ParsesMinimalOperator)
{
    const char* src =
        "void scale(float X[32], float Y[32]) {\n"
        "  for (int i = 0; i < 32; i += 1) {\n"
        "    Y[i] = (X[i] * 3);\n"
        "  }\n"
        "}\n"
        "void dataflow() {\n"
        "  scale();\n"
        "}\n"
        "-mem-read-delay=5\n"
        "-mem-write-delay=7\n";
    auto res = parseProgram(src);
    ASSERT_TRUE(res.ok) << res.error << " @ line " << res.errorLine;
    ASSERT_EQ(res.graph.ops.size(), 1u);
    EXPECT_EQ(res.graph.ops[0].name, "scale");
    EXPECT_EQ(res.graph.ops[0].tensors.size(), 2u);
    ASSERT_EQ(res.graph.calls.size(), 1u);
    EXPECT_EQ(res.graph.params.memReadDelay, 5);
    EXPECT_EQ(res.graph.params.memWriteDelay, 7);
}

TEST(Parser, ParsesPragmasAndBranches)
{
    const char* src =
        "void k(float X[16], int N) {\n"
        "  #pragma clang loop unroll_count(4)\n"
        "  for (int i = 0; i < N; i += 2) {\n"
        "    if ((X[i] > 0)) {\n"
        "      X[i] = (X[i] * X[i]);\n"
        "    } else {\n"
        "      X[i] = 0;\n"
        "    }\n"
        "  }\n"
        "}\n";
    auto res = parseProgram(src);
    ASSERT_TRUE(res.ok) << res.error;
    const auto& body = res.graph.ops[0].body;
    ASSERT_EQ(body.size(), 1u);
    EXPECT_EQ(body[0]->kind, StmtKind::For);
    EXPECT_EQ(body[0]->loop.unroll, 4);
    EXPECT_EQ(body[0]->loop.step, 2);
    ASSERT_EQ(body[0]->body.size(), 1u);
    EXPECT_EQ(body[0]->body[0]->kind, StmtKind::If);
    EXPECT_EQ(body[0]->body[0]->elseBody.size(), 1u);
    // N is a scalar parameter, not a loop variable.
    EXPECT_EQ(res.graph.ops[0].scalarParams,
              std::vector<std::string>{"N"});
}

TEST(Parser, DataLinesBecomeRuntimeScalars)
{
    auto res = parseProgram("void f(float A[4]) { A[0] = 1; }\n"
                            "void dataflow() { f(); }\n"
                            "N = 64\nH = 12\n");
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.data.scalars.at("N"), 64);
    EXPECT_EQ(res.data.scalars.at("H"), 12);
}

TEST(Parser, RejectsMalformedInputWithLineNumbers)
{
    auto res = parseProgram("void f(float A[4]) {\n  A[0] = ;\n}\n");
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());
    EXPECT_GE(res.errorLine, 2);

    auto res2 = parseProgram("void f(double A[4]) { }\n");
    EXPECT_FALSE(res2.ok);
}

TEST(Parser, IntegerLiteralsAboveLongMaxAreParseErrors)
{
    // LONG_MAX is the largest literal; one more is a parse error on
    // the literal's line, in expressions and in data lines alike.
    const long kMax = std::numeric_limits<long>::max();
    auto e = parseExpr("9223372036854775807");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->constVal, kMax);
    std::string err;
    EXPECT_EQ(parseExpr("9223372036854775808", &err), nullptr);
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    const std::string prog = "void f(float A[4]) {\n"
                             "  A[0] = 1;\n"
                             "}\n"
                             "void dataflow() { f(); }\n";
    auto ok = parseProgram(prog + "N = 9223372036854775807\n");
    ASSERT_TRUE(ok.ok) << ok.error;
    EXPECT_EQ(ok.data.scalars.at("N"), kMax);
    auto data = parseProgram(prog + "N = 9223372036854775808\n");
    EXPECT_FALSE(data.ok);
    EXPECT_EQ(data.errorLine, 5);

    auto body = parseProgram("void f(float A[4]) {\n"
                             "  A[0] = 99999999999999999999;\n"
                             "}\n");
    EXPECT_FALSE(body.ok);
    EXPECT_EQ(body.errorLine, 2);
    EXPECT_NE(body.error.find("out of range"), std::string::npos)
        << body.error;
}

TEST(Parser, RoundTripPreservesProfileForWorkloads)
{
    // The load-bearing invariant: print -> parse -> profile gives exactly
    // the metrics of the original IR, for every evaluation workload.
    auto suites = {workloads::polybench(), workloads::accelerators()};
    for (const auto& suite : suites) {
        for (const auto& w : suite) {
            SCOPED_TRACE(w.name);
            std::string text = printStatic(w.graph);
            auto res = parseProgram(text);
            ASSERT_TRUE(res.ok)
                << res.error << " @ line " << res.errorLine << "\n"
                << text;
            auto orig = sim::profile(w.graph, w.canonicalData);
            auto reparsed = sim::profile(res.graph, w.canonicalData);
            EXPECT_EQ(orig.cycles, reparsed.cycles);
            EXPECT_DOUBLE_EQ(orig.areaUm2, reparsed.areaUm2);
            EXPECT_EQ(orig.flipFlops, reparsed.flipFlops);
        }
    }
}

TEST(Parser, RoundTripPreservesProfileForSynthesizedPrograms)
{
    util::Rng rng(31337);
    for (int i = 0; i < 15; ++i) {
        auto g = synth::generateDataflowProgram(rng);
        synth::augmentHardware(g, rng, {10, 5, 2});
        std::string text = printStatic(g);
        auto res = parseProgram(text);
        ASSERT_TRUE(res.ok)
            << res.error << " @ line " << res.errorLine << "\n" << text;
        EXPECT_EQ(sim::profileStatic(g).cycles,
                  sim::profileStatic(res.graph).cycles);
    }
}

TEST(Parser, RoundTripTextIsAFixedPoint)
{
    // print(parse(print(g))) == print(g): the printer output is stable
    // under re-parsing.
    auto w = workloads::accelerators()[0];
    std::string t1 = printStatic(w.graph);
    auto res = parseProgram(t1);
    ASSERT_TRUE(res.ok) << res.error;
    std::string t2 = printStatic(res.graph);
    EXPECT_EQ(t1, t2);
}

/** One operator whose body is `body`, a statement list. */
std::string
operatorWith(const std::string& body)
{
    return "void f(int N, float A[4]) {\n" + body + "}\n";
}

/** `A[0] = 1 + 1 + ... + 1;`: a left-leaning tree of height `terms`. */
std::string
sumProgram(int terms)
{
    std::string rhs = "1";
    for (int i = 1; i < terms; ++i)
        rhs += " + 1";
    return operatorWith("A[0] = " + rhs + ";\n");
}

/** `A[0] = ((...(1)...));` inside `depth` parentheses. */
std::string
parenProgram(int depth)
{
    return operatorWith("A[0] = " + std::string(size_t(depth), '(') + "1" +
                        std::string(size_t(depth), ')') + ";\n");
}

/** `A[0] = 1;` inside `blocks` nested if blocks. */
std::string
ifProgram(int blocks)
{
    std::string body;
    for (int i = 0; i < blocks; ++i)
        body += "if (N > 0) {\n";
    body += "A[0] = 1;\n";
    for (int i = 0; i < blocks; ++i)
        body += "}\n";
    return operatorWith(body);
}

// Program text comes from sockets, and every walk over the IR recurses
// on it: a program deeper than the limits is a parse error naming the
// limit, before any deep tree exists. These three shapes each crashed
// the parser (or a walk after it) with a stack overflow.
TEST(Parser, DeepProgramsAreParseErrorsNamingTheLimit)
{
    const std::pair<std::string, const char*> deep[] = {
        {sumProgram(300000), "kMaxExprHeight"},  // 1.2 MB
        {parenProgram(200000), "kMaxExprHeight"}, // 400 KB
        {ifProgram(100000), "kMaxStmtDepth"},     // 1.3 MB
    };
    for (const auto& [text, limit] : deep) {
        ParseResult res = parseProgram(text);
        EXPECT_FALSE(res.ok);
        EXPECT_NE(res.error.find(limit), std::string::npos) << res.error;
    }
}

// The limits are exact: a program at each one parses, and its printed
// text parses back to the same text; one level more is refused.
TEST(Parser, ProgramsAtTheLimitsParseAndRoundTrip)
{
    // The if blocks hold the assignment one statement level deeper.
    const std::pair<std::string, std::string> atAndOver[] = {
        {sumProgram(kMaxExprHeight), sumProgram(kMaxExprHeight + 1)},
        {parenProgram(kMaxExprHeight), parenProgram(kMaxExprHeight + 1)},
        {ifProgram(kMaxStmtDepth - 1), ifProgram(kMaxStmtDepth)},
    };
    for (const auto& [at, over] : atAndOver) {
        ParseResult res = parseProgram(at);
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_TRUE(res.diagnostics.ok()) << res.diagnostics.str();
        std::string printed = printStatic(res.graph);
        ParseResult again = parseProgram(printed);
        ASSERT_TRUE(again.ok) << again.error;
        EXPECT_EQ(printStatic(again.graph), printed);
        EXPECT_FALSE(parseProgram(over).ok);
    }
    // min/max calls and subscripts nest like parentheses.
    std::string nested = "1";
    for (int i = 0; i < kMaxExprHeight; ++i)
        nested = (i % 2 ? "min(N, " : "A[") + nested + (i % 2 ? ")" : "]");
    std::string err;
    EXPECT_EQ(parseExpr(nested, &err), nullptr);
    EXPECT_NE(err.find("kMaxExprHeight"), std::string::npos) << err;
}

} // namespace
