#include "dfir/printer.h"

#include <sstream>

#include "util/common.h"
#include "util/string_util.h"

namespace llmulator {
namespace dfir {

namespace {

std::string
indentStr(int indent)
{
    return std::string(size_t(indent) * 2, ' ');
}

} // namespace

std::string
printExpr(const ExprPtr& e)
{
    LLM_CHECK(e != nullptr, "printExpr on null expression");
    switch (e->kind) {
      case ExprKind::Const:
        return std::to_string(e->constVal);
      case ExprKind::LoopVar:
      case ExprKind::Param:
        return e->name;
      case ExprKind::ArrayRef: {
        std::string out = e->name;
        for (const auto& idx : e->args)
            out += "[" + printExpr(idx) + "]";
        return out;
      }
      case ExprKind::Binary: {
        const char* op = binOpName(e->op);
        if (e->op == BinOp::Min || e->op == BinOp::Max) {
            return std::string(op) + "(" + printExpr(e->args[0]) + ", " +
                   printExpr(e->args[1]) + ")";
        }
        return "(" + printExpr(e->args[0]) + " " + op + " " +
               printExpr(e->args[1]) + ")";
      }
    }
    return "?";
}

std::string
printStmt(const StmtPtr& s, int indent)
{
    std::ostringstream out;
    std::string pad = indentStr(indent);
    switch (s->kind) {
      case StmtKind::Assign: {
        out << pad << s->target;
        for (const auto& idx : s->targetIdx)
            out << "[" << printExpr(idx) << "]";
        out << " = " << printExpr(s->rhs) << ";\n";
        break;
      }
      case StmtKind::If: {
        out << pad << "if (" << printExpr(s->cond) << ") {\n";
        for (const auto& b : s->thenBody)
            out << printStmt(b, indent + 1);
        if (!s->elseBody.empty()) {
            out << pad << "} else {\n";
            for (const auto& b : s->elseBody)
                out << printStmt(b, indent + 1);
        }
        out << pad << "}\n";
        break;
      }
      case StmtKind::For: {
        if (s->loop.unroll > 1)
            out << pad << "#pragma clang loop unroll_count(" << s->loop.unroll
                << ")\n";
        if (s->loop.parallel)
            out << pad << "#pragma omp parallel for\n";
        out << pad << "for (int " << s->loop.var << " = "
            << printExpr(s->loop.lower) << "; " << s->loop.var << " < "
            << printExpr(s->loop.upper) << "; " << s->loop.var << " += "
            << s->loop.step << ") {\n";
        for (const auto& b : s->body)
            out << printStmt(b, indent + 1);
        out << pad << "}\n";
        break;
      }
    }
    return out.str();
}

std::string
printOperator(const Operator& op)
{
    std::ostringstream out;
    out << "void " << op.name << "(";
    std::vector<std::string> args;
    for (const auto& t : op.tensors) {
        std::string decl = "float " + t.name;
        for (const auto& d : t.dims)
            decl += "[" + printExpr(d) + "]";
        args.push_back(decl);
    }
    for (const auto& sp : op.scalarParams)
        args.push_back("int " + sp);
    out << util::join(args, ", ") << ") {\n";
    for (const auto& s : op.body)
        out << printStmt(s, 1);
    out << "}\n";
    return out.str();
}

std::string
printStatic(const DataflowGraph& g)
{
    std::ostringstream out;
    for (const auto& op : g.ops)
        out << printOperator(op) << "\n";
    out << "void dataflow() {\n";
    for (const auto& call : g.calls)
        out << "  " << call.opName << "();\n";
    out << "}\n";
    out << "-mem-read-delay=" << g.params.memReadDelay << "\n";
    out << "-mem-write-delay=" << g.params.memWriteDelay << "\n";
    out << "-read-ports=" << g.params.readPorts << "\n";
    out << "-write-ports=" << g.params.writePorts << "\n";
    return out.str();
}

std::string
printData(const RuntimeData& data)
{
    std::ostringstream out;
    for (const auto& [name, value] : data.scalars)
        out << name << " = " << value << "\n";
    // Tensor payloads are summarized, not inlined: the model sees shapes and
    // coarse value statistics (the paper feeds scalars; full tensors would
    // blow the context length even for an LLM).
    for (const auto& [name, values] : data.tensors) {
        double mn = 0, mx = 0, mean = 0;
        if (!values.empty()) {
            mn = mx = values[0];
            for (double d : values) {
                mn = std::min(mn, d);
                mx = std::max(mx, d);
                mean += d;
            }
            mean /= double(values.size());
        }
        out << name << ".len = " << values.size() << "\n";
        out << name << ".min = " << static_cast<long>(mn) << "\n";
        out << name << ".max = " << static_cast<long>(mx) << "\n";
        out << name << ".mean = " << static_cast<long>(mean) << "\n";
    }
    return out.str();
}

} // namespace dfir
} // namespace llmulator
