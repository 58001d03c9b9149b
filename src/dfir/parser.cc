#include "dfir/parser.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <set>

#include "dfir/builder.h"
#include "util/string_util.h"

namespace llmulator {
namespace dfir {

namespace {

/** Lexer token. */
struct Tok
{
    enum Kind { Ident, Number, Punct, HwParam, End } kind = End;
    std::string text;
    long value = 0;
    bool outOfRange = false; //!< Number literal above LONG_MAX
    int line = 1;
};

/** Hand-rolled lexer over the printer's output language. */
class Lexer
{
  public:
    explicit Lexer(const std::string& src) : src_(src) { advance(); }

    const Tok& peek() const { return cur_; }

    Tok
    next()
    {
        Tok t = cur_;
        advance();
        return t;
    }

  private:
    const std::string& src_;
    size_t pos_ = 0;
    int line_ = 1;
    Tok cur_;

    void
    advance()
    {
        skipSpace();
        cur_ = Tok{};
        cur_.line = line_;
        if (pos_ >= src_.size()) {
            cur_.kind = Tok::End;
            return;
        }
        char ch = src_[pos_];
        // Hardware parameter atoms start with "-mem" / "-read" / "-write"
        // at the beginning of a line; distinguish from minus operator by
        // lookahead for a letter.
        if (ch == '-' && pos_ + 1 < src_.size() &&
            std::isalpha(static_cast<unsigned char>(src_[pos_ + 1]))) {
            size_t j = pos_;
            while (j < src_.size() &&
                   (std::isalnum(static_cast<unsigned char>(src_[j])) ||
                    src_[j] == '-'))
                ++j;
            cur_.kind = Tok::HwParam;
            cur_.text = src_.substr(pos_, j - pos_);
            pos_ = j;
            return;
        }
        if (std::isdigit(static_cast<unsigned char>(ch))) {
            size_t j = pos_;
            long v = 0;
            bool outOfRange = false;
            while (j < src_.size() &&
                   std::isdigit(static_cast<unsigned char>(src_[j]))) {
                long digit = src_[j] - '0';
                outOfRange = outOfRange ||
                             v > (std::numeric_limits<long>::max() - digit) /
                                     10;
                if (!outOfRange)
                    v = v * 10 + digit;
                ++j;
            }
            cur_.kind = Tok::Number;
            cur_.value = v;
            cur_.outOfRange = outOfRange;
            cur_.text = src_.substr(pos_, j - pos_);
            pos_ = j;
            return;
        }
        if (std::isalpha(static_cast<unsigned char>(ch)) || ch == '_' ||
            ch == '#') {
            size_t j = pos_ + (ch == '#' ? 1 : 0);
            while (j < src_.size() &&
                   (std::isalnum(static_cast<unsigned char>(src_[j])) ||
                    src_[j] == '_'))
                ++j;
            cur_.kind = Tok::Ident;
            cur_.text = src_.substr(pos_, j - pos_);
            pos_ = j;
            return;
        }
        // Multi-char operators.
        for (const char* op : {"<=", ">=", "==", "!=", "&&", "||", "+="}) {
            if (src_.compare(pos_, 2, op) == 0) {
                cur_.kind = Tok::Punct;
                cur_.text = op;
                pos_ += 2;
                return;
            }
        }
        cur_.kind = Tok::Punct;
        cur_.text = std::string(1, ch);
        ++pos_;
    }

    void
    skipSpace()
    {
        while (pos_ < src_.size()) {
            char ch = src_[pos_];
            if (ch == '\n') {
                ++line_;
                ++pos_;
            } else if (std::isspace(static_cast<unsigned char>(ch))) {
                ++pos_;
            } else if (ch == '/' && pos_ + 1 < src_.size() &&
                       src_[pos_ + 1] == '/') {
                while (pos_ < src_.size() && src_[pos_] != '\n')
                    ++pos_;
            } else {
                break;
            }
        }
    }
};

/** Recursive-descent parser. */
class Parser
{
  public:
    explicit Parser(const std::string& src) : lex_(src) {}

    ParseResult
    run()
    {
        ParseResult res;
        while (lex_.peek().kind != Tok::End && ok_) {
            const Tok& t = lex_.peek();
            if (t.kind == Tok::HwParam) {
                parseHwParam(res);
            } else if (t.kind == Tok::Ident && t.text == "void") {
                parseFunction(res);
            } else if (t.kind == Tok::Ident) {
                parseDataLine(res);
            } else {
                fail("unexpected token '" + t.text + "'");
            }
        }
        res.ok = ok_;
        res.error = error_;
        res.errorLine = errorLine_;
        return res;
    }

    /** Expression entry point for parseExpr(). */
    ExprPtr
    expressionOnly(std::string* error)
    {
        ExprPtr e = parseExpression();
        if (!ok_ && error)
            *error = error_;
        return ok_ ? e : nullptr;
    }

  private:
    Lexer lex_;
    bool ok_ = true;
    std::string error_;
    int errorLine_ = 0;
    std::set<std::string> loopVars_;
    std::set<std::string> scalarParams_;

    void
    fail(const std::string& msg)
    {
        if (!ok_)
            return;
        ok_ = false;
        error_ = msg;
        errorLine_ = lex_.peek().line;
    }

    bool
    expect(const std::string& text)
    {
        if (!ok_)
            return false;
        if (lex_.peek().text != text) {
            fail("expected '" + text + "', got '" + lex_.peek().text + "'");
            return false;
        }
        lex_.next();
        return true;
    }

    std::string
    expectIdent()
    {
        if (!ok_)
            return "";
        if (lex_.peek().kind != Tok::Ident) {
            fail("expected identifier, got '" + lex_.peek().text + "'");
            return "";
        }
        return lex_.next().text;
    }

    long
    expectNumber()
    {
        if (!ok_)
            return 0;
        if (lex_.peek().kind != Tok::Number) {
            fail("expected number, got '" + lex_.peek().text + "'");
            return 0;
        }
        return takeNumber();
    }

    /** Consume a Number token; a literal above LONG_MAX fails the parse. */
    long
    takeNumber()
    {
        if (lex_.peek().outOfRange)
            fail("integer literal '" + lex_.peek().text + "' out of range");
        return lex_.next().value;
    }

    // ---- hardware parameters & data lines ----

    void
    parseHwParam(ParseResult& res)
    {
        std::string name = lex_.next().text;
        expect("=");
        long v = expectNumber();
        if (!ok_)
            return;
        if (name == "-mem-read-delay")
            res.graph.params.memReadDelay = static_cast<int>(v);
        else if (name == "-mem-write-delay")
            res.graph.params.memWriteDelay = static_cast<int>(v);
        else if (name == "-read-ports")
            res.graph.params.readPorts = static_cast<int>(v);
        else if (name == "-write-ports")
            res.graph.params.writePorts = static_cast<int>(v);
        else
            fail("unknown hardware parameter '" + name + "'");
    }

    void
    parseDataLine(ParseResult& res)
    {
        std::string name = expectIdent();
        expect("=");
        long v = expectNumber();
        if (ok_)
            res.data.scalars[name] = v;
    }

    // ---- functions ----

    void
    parseFunction(ParseResult& res)
    {
        expect("void");
        std::string name = expectIdent();
        expect("(");
        if (name == "dataflow") {
            expect(")");
            expect("{");
            while (ok_ && lex_.peek().text != "}") {
                std::string callee = expectIdent();
                expect("(");
                expect(")");
                expect(";");
                if (ok_)
                    res.graph.calls.push_back({callee});
            }
            expect("}");
            return;
        }

        Operator op;
        op.name = name;
        loopVars_.clear();
        scalarParams_.clear();
        while (ok_ && lex_.peek().text != ")") {
            if (lex_.peek().text == ",")
                lex_.next();
            std::string ty = expectIdent(); // "float" or "int"
            std::string arg = expectIdent();
            if (ty == "float") {
                TensorDecl t;
                t.name = arg;
                while (ok_ && lex_.peek().text == "[") {
                    lex_.next();
                    t.dims.push_back(parseExpression());
                    expect("]");
                }
                op.tensors.push_back(std::move(t));
            } else if (ty == "int") {
                op.scalarParams.push_back(arg);
                scalarParams_.insert(arg);
            } else {
                fail("unknown parameter type '" + ty + "'");
            }
        }
        expect(")");
        expect("{");
        while (ok_ && lex_.peek().text != "}")
            op.body.push_back(parseStmt(1));
        expect("}");
        if (ok_)
            res.graph.ops.push_back(std::move(op));
    }

    // ---- statements ----

    /** One statement, `depth` levels deep (top-level statements are 1). */
    StmtPtr
    parseStmt(int depth)
    {
        if (depth > kMaxStmtDepth) {
            fail(util::format(
                "statements nest deeper than kMaxStmtDepth (%d)",
                kMaxStmtDepth));
            return assignScalar("err", c(0));
        }
        // Pragmas attach to the next for-loop.
        int unroll = 1;
        bool parallel = false;
        while (ok_ && lex_.peek().text == "#pragma") {
            lex_.next();
            std::string kind = expectIdent();
            if (kind == "clang") {
                expect("loop");
                expect("unroll_count");
                expect("(");
                unroll = static_cast<int>(expectNumber());
                expect(")");
            } else if (kind == "omp") {
                expect("parallel");
                expect("for");
                parallel = true;
            } else {
                fail("unknown pragma '" + kind + "'");
            }
        }

        if (lex_.peek().text == "for")
            return parseFor(unroll, parallel, depth);
        if (unroll != 1 || parallel)
            fail("pragma must precede a for loop");
        if (lex_.peek().text == "if")
            return parseIf(depth);
        return parseAssign();
    }

    StmtPtr
    parseFor(int unroll, bool parallel, int depth)
    {
        expect("for");
        expect("(");
        expect("int");
        std::string var = expectIdent();
        loopVars_.insert(var);
        expect("=");
        ExprPtr lower = parseExpression();
        expect(";");
        expectIdent(); // loop var repeated
        expect("<");
        ExprPtr upper = parseExpression();
        expect(";");
        expectIdent(); // loop var repeated
        expect("+=");
        long step = expectNumber();
        expect(")");
        expect("{");
        std::vector<StmtPtr> body;
        while (ok_ && lex_.peek().text != "}")
            body.push_back(parseStmt(depth + 1));
        expect("}");
        if (!ok_)
            return assignScalar("err", c(0));
        return forLoop(var, lower, upper, std::move(body),
                       static_cast<int>(step), unroll, parallel);
    }

    StmtPtr
    parseIf(int depth)
    {
        expect("if");
        expect("(");
        ExprPtr cond = parseExpression();
        expect(")");
        expect("{");
        std::vector<StmtPtr> then_body, else_body;
        while (ok_ && lex_.peek().text != "}")
            then_body.push_back(parseStmt(depth + 1));
        expect("}");
        if (lex_.peek().text == "else") {
            lex_.next();
            expect("{");
            while (ok_ && lex_.peek().text != "}")
                else_body.push_back(parseStmt(depth + 1));
            expect("}");
        }
        if (!ok_)
            return assignScalar("err", c(0));
        return ifStmt(cond, std::move(then_body), std::move(else_body));
    }

    StmtPtr
    parseAssign()
    {
        std::string target = expectIdent();
        std::vector<ExprPtr> idx;
        while (ok_ && lex_.peek().text == "[") {
            lex_.next();
            idx.push_back(parseExpression());
            expect("]");
        }
        expect("=");
        ExprPtr rhs = parseExpression();
        expect(";");
        if (!ok_)
            return assignScalar("err", c(0));
        return assign(target, std::move(idx), rhs);
    }

    // ---- expressions (precedence climbing) ----

    ExprPtr
    parseExpression()
    {
        int height = 0;
        return parseBinary(0, 0, height);
    }

    /**
     * The height of a node over children of height `childHeight`; fails
     * the parse past kMaxExprHeight, which stops the left-leaning chains
     * parseBinary builds in a loop as well as recursion.
     */
    int
    nodeHeight(int childHeight)
    {
        if (childHeight >= kMaxExprHeight)
            failExprTooDeep();
        return childHeight + 1;
    }

    /**
     * A sub-expression one nesting level in: inside parentheses, a
     * subscript or a min/max call. Fails the parse past kMaxExprHeight
     * levels, which bounds the parser's own recursion.
     */
    ExprPtr
    parseNested(int nesting, int& height)
    {
        height = 1;
        if (nesting >= kMaxExprHeight) {
            failExprTooDeep();
            return c(0);
        }
        return parseBinary(0, nesting + 1, height);
    }

    void
    failExprTooDeep()
    {
        fail(util::format("expression deeper than kMaxExprHeight (%d)",
                          kMaxExprHeight));
    }

    /** Precedence table: || < && < comparisons < +- < * / %. */
    static int
    precedenceOf(const std::string& op)
    {
        if (op == "||")
            return 1;
        if (op == "&&")
            return 2;
        if (op == "<" || op == "<=" || op == ">" || op == ">=" ||
            op == "==" || op == "!=")
            return 3;
        if (op == "+" || op == "-")
            return 4;
        if (op == "*" || op == "/" || op == "%")
            return 5;
        return 0;
    }

    static BinOp
    binOpOf(const std::string& op)
    {
        if (op == "+") return BinOp::Add;
        if (op == "-") return BinOp::Sub;
        if (op == "*") return BinOp::Mul;
        if (op == "/") return BinOp::Div;
        if (op == "%") return BinOp::Mod;
        if (op == "<") return BinOp::Lt;
        if (op == "<=") return BinOp::Le;
        if (op == ">") return BinOp::Gt;
        if (op == ">=") return BinOp::Ge;
        if (op == "==") return BinOp::Eq;
        if (op == "!=") return BinOp::Ne;
        if (op == "&&") return BinOp::And;
        return BinOp::Or;
    }

    /**
     * A binary expression `nesting` levels deep (see parseNested);
     * `height` gets its tree height.
     */
    ExprPtr
    parseBinary(int min_prec, int nesting, int& height)
    {
        ExprPtr lhs = parsePrimary(nesting, height);
        while (ok_) {
            // Copy: lex_.next() below invalidates references into peek().
            std::string op = lex_.peek().text;
            int prec = precedenceOf(op);
            if (prec == 0 || prec < min_prec)
                break;
            lex_.next();
            int rhsHeight = 0;
            ExprPtr rhs = parseBinary(prec + 1, nesting, rhsHeight);
            height = nodeHeight(std::max(height, rhsHeight));
            lhs = bin(binOpOf(op), lhs, rhs);
        }
        return lhs;
    }

    ExprPtr
    parsePrimary(int nesting, int& height)
    {
        height = 1;
        if (!ok_)
            return c(0);
        const Tok& t = lex_.peek();
        if (t.kind == Tok::Number)
            return c(takeNumber());
        if (t.text == "(") {
            lex_.next();
            ExprPtr e = parseNested(nesting, height);
            expect(")");
            return e;
        }
        if (t.text == "min" || t.text == "max") {
            std::string fn = lex_.next().text;
            expect("(");
            int lhsHeight = 0, rhsHeight = 0;
            ExprPtr lhs = parseNested(nesting, lhsHeight);
            expect(",");
            ExprPtr rhs = parseNested(nesting, rhsHeight);
            expect(")");
            height = nodeHeight(std::max(lhsHeight, rhsHeight));
            return bin(fn == "min" ? BinOp::Min : BinOp::Max, lhs, rhs);
        }
        if (t.kind == Tok::Ident) {
            std::string name = lex_.next().text;
            if (lex_.peek().text == "[") {
                std::vector<ExprPtr> idx;
                int idxHeight = 0;
                while (ok_ && lex_.peek().text == "[") {
                    lex_.next();
                    int h = 0;
                    idx.push_back(parseNested(nesting, h));
                    idxHeight = std::max(idxHeight, h);
                    expect("]");
                }
                height = nodeHeight(idxHeight);
                return a(name, std::move(idx));
            }
            // Loop variables bind tighter than parameters; anything not
            // seen as a loop var in scope is treated as a parameter.
            if (loopVars_.count(name))
                return v(name);
            return p(name);
        }
        fail("unexpected token '" + t.text + "' in expression");
        return c(0);
    }
};

} // namespace

ParseResult
parseProgram(const std::string& text)
{
    Parser parser(text);
    ParseResult res = parser.run();
    if (res.ok && res.graph.calls.empty()) {
        // Programs without an explicit dataflow() call every operator
        // once, in definition order.
        for (const auto& op : res.graph.ops)
            res.graph.calls.push_back({op.name});
    }
    if (res.ok && res.graph.name.empty())
        res.graph.name = "parsed";
    if (res.ok) {
        // Static-analysis pass over the parsed IR: syntax can be valid
        // while the program is semantically broken (calls to undefined
        // operators, undeclared names, shadowed loop variables). Kept
        // out of `ok` so intentionally odd inputs still load; callers
        // decide how strict to be.
        res.diagnostics = verify(res.graph);
    }
    return res;
}

ExprPtr
parseExpr(const std::string& text, std::string* error)
{
    Parser parser(text);
    return parser.expressionOnly(error);
}

} // namespace dfir
} // namespace llmulator
