#include "sim/profiler.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/common.h"
#include "util/string_util.h"

namespace llmulator {
namespace sim {

namespace {

using dfir::BinOp;
using dfir::ExprKind;
using dfir::ExprPtr;
using dfir::StmtKind;
using dfir::StmtPtr;

constexpr int kMaxParallelLanes = 8;
constexpr long kCallOverheadCycles = 5;
//! Loop trips executed exactly; the rest extrapolate from their mean.
constexpr long kMaxExactTripsPerLoop = 4096;
//! Value of a scalar parameter the runtime data leaves unbound.
constexpr long kDefaultParam = 16;
//! Elements materialized per tensor the runtime data leaves unbound.
constexpr long kMaxTensorElems = 1L << 20;

// Trip counts and cycle sums saturate at LONG_MAX instead of
// overflowing: program text is untrusted, and a count that does not fit
// in `long` reads as the largest one. Every count that fits is exact.
// Operands are non-negative (the verifier refuses negative delays), so
// dfir's saturating ops only ever clamp at the top.
using dfir::satAdd;
using dfir::satMul;

/** ceil(a / b) for a >= 0 and b >= 1, without forming a + b - 1. */
long
ceilDiv(long a, long b)
{
    return a / b + (a % b != 0);
}

/** `v` as a cycle count, LONG_MAX when it does not fit. */
long
satFromDouble(double v)
{
    // 2^63 as a double: the first value past LONG_MAX.
    return v >= 9223372036854775808.0 ? LONG_MAX : static_cast<long>(v);
}

/** FU latencies (cycles), mirroring hw::spec latencies. */
int
opLatency(BinOp op)
{
    switch (op) {
      case BinOp::Mul:
        return 3;
      case BinOp::Div: case BinOp::Mod:
        return 8;
      default:
        return 1;
    }
}

/** Static per-statement cost demand (compute latency + access counts). */
struct StmtDemand
{
    long computeLatency = 0;
    long reads = 0;
    long writes = 0;
    bool accumulates = false; //!< target array also read on the RHS
};

void
exprDemand(const ExprPtr& e, StmtDemand& d, const std::string& target)
{
    if (!e)
        return;
    if (e->kind == ExprKind::ArrayRef) {
        ++d.reads;
        if (!target.empty() && e->name == target)
            d.accumulates = true;
    } else if (e->kind == ExprKind::Binary) {
        d.computeLatency += opLatency(e->op);
    }
    for (const auto& arg : e->args)
        exprDemand(arg, d, target);
}

/** Interpreter over one dataflow graph + runtime data. */
class Interp
{
  public:
    Interp(const dfir::DataflowGraph& g, const dfir::RuntimeData& data)
        : g_(g)
    {
        for (const auto& [name, value] : data.scalars)
            scalars_[name] = static_cast<double>(value);
        for (const auto& [name, values] : data.tensors)
            arrays_[name] = values;
    }

    Profile
    run()
    {
        for (const auto& call : g_.calls) {
            const dfir::Operator* op = g_.findOp(call.opName);
            LLM_CHECK(op != nullptr, "unknown operator " << call.opName);
            bindTensors(*op);
            prof_.cycles = satAdd(prof_.cycles, kCallOverheadCycles);
            for (const auto& s : op->body)
                prof_.cycles = satAdd(prof_.cycles, execStmt(s));
        }
        return prof_;
    }

  private:
    const dfir::DataflowGraph& g_;
    std::map<std::string, double> scalars_;
    std::map<std::string, std::vector<double>> arrays_;
    std::map<std::string, double> loopVars_;
    Profile prof_;

    /** Materialize operator tensors missing from the runtime data. */
    void
    bindTensors(const dfir::Operator& op)
    {
        for (const auto& t : op.tensors) {
            if (arrays_.count(t.name))
                continue;
            // Clamped as it accumulates, so no product can overflow.
            long elems = 1;
            for (const auto& d : t.dims)
                elems = std::min(kMaxTensorElems,
                                 satMul(elems, std::max<long>(
                                                   1, lround(evalExpr(d)))));
            // Deterministic pseudo-data keyed by name: varied enough to
            // exercise data-dependent branches without explicit inputs.
            // This keying is why canonicalization never renames tensors:
            // a rename here changes ground truth.
            uint64_t h = util::fnv1a(t.name);
            std::vector<double> v(static_cast<size_t>(elems));
            for (size_t i = 0; i < v.size(); ++i) {
                uint64_t x = (h + i) * 2654435761u;
                v[i] = static_cast<double>((x >> 16) % 1000) / 10.0 - 40.0;
            }
            arrays_[t.name] = std::move(v);
        }
    }

    double
    evalExpr(const ExprPtr& e)
    {
        LLM_CHECK(e != nullptr, "eval of null expr");
        switch (e->kind) {
          case ExprKind::Const:
            return static_cast<double>(e->constVal);
          case ExprKind::LoopVar: {
            auto it = loopVars_.find(e->name);
            if (it != loopVars_.end())
                return it->second;
            // A name can be a scalar temp introduced by assignScalar.
            auto it2 = scalars_.find(e->name);
            return it2 != scalars_.end() ? it2->second : 0.0;
          }
          case ExprKind::Param: {
            auto it = scalars_.find(e->name);
            return it != scalars_.end()
                       ? it->second
                       : static_cast<double>(kDefaultParam);
          }
          case ExprKind::ArrayRef: {
            auto it = arrays_.find(e->name);
            if (it == arrays_.end() || it->second.empty())
                return 0.0;
            long idx = flattenIndex(e, it->second.size());
            return it->second[static_cast<size_t>(idx)];
          }
          case ExprKind::Binary: {
            double l = evalExpr(e->args[0]);
            double r = evalExpr(e->args[1]);
            return evalBinOp(e->op, l, r);
          }
        }
        return 0.0;
    }

    /**
     * Flatten a multi-dim access into the linear store. Dims are not
     * tracked per array (first binder wins); indices are combined
     * row-major with a synthetic stride and clamped into range, which is
     * both defensive against synthesized out-of-range accesses and cheap.
     * The combination wraps modulo 2^64 (unsigned), which equals the
     * signed sum whenever that fits in `long`.
     */
    long
    flattenIndex(const ExprPtr& ref, size_t size)
    {
        unsigned long combined = 0;
        for (const auto& ie : ref->args)
            combined = combined * 131 +
                       static_cast<unsigned long>(lround(evalExpr(ie)));
        long n = static_cast<long>(size);
        long idx = static_cast<long>(combined) % n;
        if (idx < 0)
            idx += n;
        return idx;
    }

    long
    lround(double v) const
    {
        return static_cast<long>(std::llround(v));
    }

    /** Cost of one assignment (also performs the store). */
    long
    execAssign(const StmtPtr& s)
    {
        ++prof_.stmtsExecuted;
        double value = evalExpr(s->rhs);
        StmtDemand d;
        exprDemand(s->rhs, d, s->target);
        for (const auto& idx : s->targetIdx)
            exprDemand(idx, d, "");

        long mem = 0;
        if (d.reads > 0)
            mem += ((d.reads + g_.params.readPorts - 1) /
                    g_.params.readPorts) *
                   g_.params.memReadDelay;
        if (!s->targetIdx.empty()) {
            mem += g_.params.memWriteDelay;
            auto& store = arrays_[s->target];
            if (store.empty())
                store.assign(64, 0.0);
            auto ref = std::make_shared<dfir::Expr>();
            ref->kind = ExprKind::ArrayRef;
            ref->name = s->target;
            ref->args = s->targetIdx;
            long idx = flattenIndex(ref, store.size());
            store[static_cast<size_t>(idx)] = value;
        } else {
            scalars_[s->target] = value;
        }
        return std::max<long>(1, d.computeLatency + mem);
    }

    long
    execStmt(const StmtPtr& s)
    {
        switch (s->kind) {
          case StmtKind::Assign:
            return execAssign(s);
          case StmtKind::If: {
            ++prof_.stmtsExecuted;
            StmtDemand d;
            exprDemand(s->cond, d, "");
            long cost = 1 + d.computeLatency;
            if (d.reads > 0)
                cost += ((d.reads + g_.params.readPorts - 1) /
                         g_.params.readPorts) *
                        g_.params.memReadDelay;
            bool taken = evalExpr(s->cond) != 0.0;
            const auto& body = taken ? s->thenBody : s->elseBody;
            if (taken)
                ++prof_.branchesTaken;
            else
                ++prof_.branchesNotTaken;
            for (const auto& b : body)
                cost = satAdd(cost, execStmt(b));
            return cost;
          }
          case StmtKind::For:
            return execFor(s);
        }
        return 0;
    }

    /** True when the loop body is straight-line assignments (pipelineable). */
    static bool
    isPipelineable(const StmtPtr& s)
    {
        for (const auto& b : s->body)
            if (b->kind != StmtKind::Assign)
                return false;
        return !s->body.empty();
    }

    long
    execFor(const StmtPtr& s)
    {
        long lo = lround(evalExpr(s->loop.lower));
        long hi = lround(evalExpr(s->loop.upper));
        long step = std::max(1, s->loop.step);
        if (hi <= lo)
            return 1; // bound test only
        // hi - lo in unsigned arithmetic is exact where the signed one
        // wraps; the trip count then saturates.
        const unsigned long span =
            static_cast<unsigned long>(hi) - static_cast<unsigned long>(lo);
        const long trips = static_cast<long>(std::min<unsigned long>(
            (span - 1) / static_cast<unsigned long>(step) + 1, LONG_MAX));

        long speedup = std::max(1, s->loop.unroll);
        if (s->loop.parallel)
            speedup *= std::min<long>(trips, kMaxParallelLanes);
        speedup = std::min(speedup, trips);

        double saved_var = 0;
        bool had_var = loopVars_.count(s->loop.var);
        if (had_var)
            saved_var = loopVars_[s->loop.var];

        long exact = std::min(trips, kMaxExactTripsPerLoop);
        long cycles = 0;

        if (isPipelineable(s)) {
            // Static per-iteration demand over all body assignments.
            long compute = 0, reads = 0, writes = 0;
            bool accumulates = false;
            for (const auto& b : s->body) {
                StmtDemand d;
                exprDemand(b->rhs, d, b->target);
                for (const auto& idx : b->targetIdx)
                    exprDemand(idx, d, "");
                compute += d.computeLatency;
                reads += d.reads;
                writes += b->targetIdx.empty() ? 0 : 1;
                accumulates |= d.accumulates;
            }
            long ii = 1;
            if (reads > 0)
                ii = std::max(ii, (reads + g_.params.readPorts - 1) /
                                      static_cast<long>(g_.params.readPorts));
            if (writes > 0)
                ii = std::max(ii,
                              (writes + g_.params.writePorts - 1) /
                                  static_cast<long>(g_.params.writePorts));
            if (accumulates)
                ii = std::max(ii, compute); // loop-carried dependence
            long depth = compute + (reads > 0 ? g_.params.memReadDelay : 0) +
                         (writes > 0 ? g_.params.memWriteDelay : 0);
            cycles = satAdd(depth, ceilDiv(satMul(ii, trips - 1), speedup));

            // Execute for semantics (values may feed later control flow).
            for (long t = 0; t < exact; ++t) {
                loopVars_[s->loop.var] = static_cast<double>(lo + t * step);
                for (const auto& b : s->body)
                    execAssignValueOnly(b);
            }
        } else {
            long body_cycles = 0;
            for (long t = 0; t < exact; ++t) {
                loopVars_[s->loop.var] = static_cast<double>(lo + t * step);
                // counter increment + exit test
                body_cycles = satAdd(body_cycles, 1);
                for (const auto& b : s->body)
                    body_cycles = satAdd(body_cycles, execStmt(b));
            }
            if (exact < trips) {
                double mean = static_cast<double>(body_cycles) / exact;
                body_cycles = satAdd(
                    body_cycles,
                    satFromDouble(mean * static_cast<double>(trips - exact)));
            }
            cycles = ceilDiv(body_cycles, speedup);
        }

        if (had_var)
            loopVars_[s->loop.var] = saved_var;
        else
            loopVars_.erase(s->loop.var);
        return std::max<long>(1, cycles);
    }

    /** Execute an assignment for its side effects only (cost pre-counted). */
    void
    execAssignValueOnly(const StmtPtr& s)
    {
        ++prof_.stmtsExecuted;
        double value = evalExpr(s->rhs);
        if (!s->targetIdx.empty()) {
            auto& store = arrays_[s->target];
            if (store.empty())
                store.assign(64, 0.0);
            auto ref = std::make_shared<dfir::Expr>();
            ref->kind = ExprKind::ArrayRef;
            ref->name = s->target;
            ref->args = s->targetIdx;
            long idx = flattenIndex(ref, store.size());
            store[static_cast<size_t>(idx)] = value;
        } else {
            scalars_[s->target] = value;
        }
    }
};

} // namespace

Profile
profile(const dfir::DataflowGraph& g, const dfir::RuntimeData& data)
{
    // Speed-only telemetry: how long each ground-truth cycle
    // estimation takes (the quantity the calibration loop compares
    // model latency against). Never touches the returned Profile.
    OBS_SPAN("sim.profile");
    const bool metrics = obs::metricsEnabled();
    const auto t0 = metrics ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point();

    Interp interp(g, data);
    Profile prof = interp.run();
    prof.rtl = hls::compile(g);
    prof.powerUw = prof.rtl.powerUw;
    prof.areaUm2 = prof.rtl.areaUm2;
    prof.flipFlops = prof.rtl.flipFlops;

    if (metrics) {
        static obs::Counter& profiles =
            obs::registry().counter("sim.profiles");
        static obs::Histogram& latency =
            obs::registry().histogram("sim.profile_ms");
        profiles.add(1);
        latency.record(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
    return prof;
}

Profile
profileStatic(const dfir::DataflowGraph& g)
{
    return profile(g, dfir::RuntimeData{});
}

} // namespace sim
} // namespace llmulator
