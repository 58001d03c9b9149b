#include "dfir/schedule.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <set>
#include <utility>

#include "dfir/passes.h"
#include "dfir/printer.h"
#include "util/string_util.h"

namespace llmulator {
namespace dfir {

namespace {

using util::fnv1a;

/**
 * Direction-set enumeration is 3^depth per access pair; beyond this
 * band depth the nest is flagged conservative instead (no real
 * workload comes close — the deepest corpus nest is depth 4).
 */
constexpr int kMaxBandDepth = 8;

/** Any LoopVar/Param leaf whose name is in 'names'? */
bool
containsName(const ExprPtr& e, const std::set<std::string>& names)
{
    if (!e)
        return false;
    if ((e->kind == ExprKind::LoopVar || e->kind == ExprKind::Param) &&
        names.count(e->name))
        return true;
    for (const ExprPtr& a : e->args)
        if (containsName(a, names))
            return true;
    return false;
}

/** Any ArrayRef whose base name is in 'names'? */
bool
containsArrayRefOf(const ExprPtr& e, const std::set<std::string>& names)
{
    if (!e)
        return false;
    if (e->kind == ExprKind::ArrayRef && names.count(e->name))
        return true;
    for (const ExprPtr& a : e->args)
        if (containsArrayRefOf(a, names))
            return true;
    return false;
}

/**
 * True when the subtree is provably loop-invariant: no array reads and
 * every name is a declared invariant (scalar parameter). Scalar temps
 * are NOT invariant — they may be assigned inside the nest.
 */
bool
invariantExpr(const ExprPtr& e, const std::set<std::string>& invariant)
{
    if (!e)
        return false;
    switch (e->kind) {
    case ExprKind::Const:
        return true;
    case ExprKind::LoopVar:
    case ExprKind::Param:
        return invariant.count(e->name) != 0;
    case ExprKind::ArrayRef:
        return false;
    case ExprKind::Binary:
        for (const ExprPtr& a : e->args)
            if (!invariantExpr(a, invariant))
                return false;
        return true;
    }
    return false;
}

/**
 * A subscript linearized over the band variables:
 *   sum(coeff[v] * v) + c0 + symbolic
 * 'sym' is an order-insensitive signature of the symbolic (invariant,
 * non-constant) part; two forms are comparable only when their
 * symbolic signatures match. affine=false means the linearizer gave up.
 */
struct LinForm
{
    bool affine = true;
    std::map<std::string, long> coeff; //!< nonzero entries only
    long c0 = 0;
    uint64_t sym = 0;
    bool hasSym = false;

    bool pureConst() const { return affine && coeff.empty() && !hasSym; }
};

LinForm
nonAffineForm()
{
    LinForm f;
    f.affine = false;
    return f;
}

LinForm
scaleForm(LinForm f, long k)
{
    if (!f.affine)
        return f;
    if (k == 0)
        return LinForm{};
    for (auto& kv : f.coeff)
        if (!checkedOp(BinOp::Mul, kv.second, k, &kv.second))
            return nonAffineForm();
    if (!checkedOp(BinOp::Mul, f.c0, k, &f.c0))
        return nonAffineForm();
    f.sym *= static_cast<uint64_t>(k);
    return f;
}

LinForm
linearize(const ExprPtr& e, const std::set<std::string>& band,
          const std::set<std::string>& invariant)
{
    if (!e)
        return nonAffineForm();
    if (!containsName(e, band)) {
        // Whole subtree is band-free: a constant or a symbolic
        // invariant atom (keyed by its rendering), else non-affine.
        LinForm f;
        if (e->kind == ExprKind::Const) {
            f.c0 = e->constVal;
            return f;
        }
        if (invariantExpr(e, invariant)) {
            f.hasSym = true;
            f.sym = fnv1a(printExpr(e));
            return f;
        }
        return nonAffineForm();
    }
    switch (e->kind) {
    case ExprKind::LoopVar:
    case ExprKind::Param: {
        LinForm f; // leaf containing a band var IS a band var
        f.coeff[e->name] = 1;
        return f;
    }
    case ExprKind::Binary: {
        if (e->args.size() != 2)
            return nonAffineForm();
        if (e->op == BinOp::Add || e->op == BinOp::Sub) {
            LinForm a = linearize(e->args[0], band, invariant);
            LinForm b = linearize(e->args[1], band, invariant);
            if (!a.affine || !b.affine)
                return nonAffineForm();
            bool add = e->op == BinOp::Add;
            LinForm f;
            f.coeff = a.coeff;
            for (const auto& kv : b.coeff) {
                long& c = f.coeff[kv.first];
                if (!checkedOp(e->op, c, kv.second, &c))
                    return nonAffineForm();
            }
            for (auto it = f.coeff.begin(); it != f.coeff.end();)
                it = it->second == 0 ? f.coeff.erase(it) : std::next(it);
            if (!checkedOp(e->op, a.c0, b.c0, &f.c0))
                return nonAffineForm();
            f.hasSym = a.hasSym || b.hasSym;
            f.sym = add ? a.sym + b.sym : a.sym - b.sym;
            return f;
        }
        if (e->op == BinOp::Mul) {
            LinForm a = linearize(e->args[0], band, invariant);
            LinForm b = linearize(e->args[1], band, invariant);
            if (a.pureConst())
                return scaleForm(b, a.c0);
            if (b.pureConst())
                return scaleForm(a, b.c0);
            return nonAffineForm();
        }
        return nonAffineForm();
    }
    default: // ArrayRef over a band var, or unreachable Const
        return nonAffineForm();
    }
}

/** One array (or written-scalar) reference inside a nest body. */
struct Access
{
    std::string name;
    bool write = false;
    bool scalar = false; //!< 0-dim: a scalar temp touched in the nest
    bool affine = true;  //!< all subscripts linearized
    std::vector<LinForm> subs;
};

/**
 * Collect every access in a statement list (recursing through ifs and
 * deeper loops). Scalar assignments become 0-dim writes; names read
 * somewhere in the nest that match a scalar written in the nest become
 * 0-dim reads (0-dim accesses constrain nothing per-dimension, so the
 * pair tests fall back to all-directions — maximally conservative).
 */
struct Collector
{
    const std::set<std::string>& band;
    const std::set<std::string>& invariant;
    std::vector<Access> accesses;
    std::set<std::string> scalarWrites;
    std::set<std::string> nameReads;

    Collector(const std::set<std::string>& b, const std::set<std::string>& inv)
        : band(b), invariant(inv)
    {
    }

    void addArray(const std::string& name, const std::vector<ExprPtr>& idx,
                  bool write)
    {
        Access a;
        a.name = name;
        a.write = write;
        for (const ExprPtr& i : idx) {
            LinForm f = linearize(i, band, invariant);
            if (!f.affine)
                a.affine = false;
            a.subs.push_back(std::move(f));
        }
        accesses.push_back(std::move(a));
    }

    void expr(const ExprPtr& e)
    {
        if (!e)
            return;
        switch (e->kind) {
        case ExprKind::ArrayRef:
            addArray(e->name, e->args, false);
            for (const ExprPtr& i : e->args)
                expr(i); // nested array reads inside subscripts
            break;
        case ExprKind::LoopVar:
        case ExprKind::Param:
            nameReads.insert(e->name);
            break;
        case ExprKind::Binary:
            for (const ExprPtr& a : e->args)
                expr(a);
            break;
        case ExprKind::Const:
            break;
        }
    }

    void stmts(const std::vector<StmtPtr>& body)
    {
        for (const StmtPtr& s : body)
            stmt(s);
    }

    void stmt(const StmtPtr& s)
    {
        if (!s)
            return;
        switch (s->kind) {
        case StmtKind::Assign:
            if (s->targetIdx.empty()) {
                Access a;
                a.name = s->target;
                a.write = true;
                a.scalar = true;
                accesses.push_back(std::move(a));
                scalarWrites.insert(s->target);
            } else {
                addArray(s->target, s->targetIdx, true);
                for (const ExprPtr& i : s->targetIdx)
                    expr(i);
            }
            expr(s->rhs);
            break;
        case StmtKind::If:
            expr(s->cond);
            stmts(s->thenBody);
            stmts(s->elseBody);
            break;
        case StmtKind::For:
            expr(s->loop.lower);
            expr(s->loop.upper);
            stmts(s->body);
            break;
        }
    }

    void finish()
    {
        // Reads of nest-written scalars become 0-dim read accesses.
        for (const std::string& n : scalarWrites) {
            if (!nameReads.count(n))
                continue;
            Access a;
            a.name = n;
            a.scalar = true;
            accesses.push_back(std::move(a));
        }
    }
};

std::vector<Access>
collectAccesses(const std::vector<StmtPtr>& inner_body,
                const std::set<std::string>& band,
                const std::set<std::string>& invariant)
{
    Collector c(band, invariant);
    c.stmts(inner_body);
    c.finish();
    return std::move(c.accesses);
}

/** Direction bitmasks for the per-level sets. */
constexpr uint8_t kLt = 1;
constexpr uint8_t kEq = 2;
constexpr uint8_t kGt = 4;
constexpr uint8_t kAny = kLt | kEq | kGt;

int
bandLevel(const std::vector<std::string>& band, const std::string& var)
{
    for (size_t i = 0; i < band.size(); ++i)
        if (band[i] == var)
            return static_cast<int>(i);
    return -1;
}

/**
 * Per-dimension subscript tests for one access pair. Returns false when
 * the pair is provably independent; otherwise fills one direction set
 * per band level (intersection over dimensions). Orientation: Lt means
 * the 'b' iteration is strictly later in that loop than the 'a' one.
 */
bool
pairSets(const Access& a, const Access& b,
         const std::vector<std::string>& band, std::vector<uint8_t>* out)
{
    out->assign(band.size(), kAny);
    if (!a.affine || !b.affine)
        return true; // conservative: all directions possible
    if (a.subs.size() != b.subs.size())
        return true;
    for (size_t d = 0; d < a.subs.size(); ++d) {
        const LinForm& f = a.subs[d];
        const LinForm& g = b.subs[d];
        bool symEq = f.hasSym == g.hasSym && f.sym == g.sym;
        long diff = 0;
        if (!checkedOp(BinOp::Sub, f.c0, g.c0, &diff))
            continue; // offsets too far apart to subtract: no info
        if (f.coeff == g.coeff) {
            if (!symEq)
                continue; // incomparable symbolic offsets: no info
            if (f.coeff.empty()) {
                if (diff != 0)
                    return false; // constant subscripts never meet
                continue;
            }
            if (f.coeff.size() == 1) {
                long c = f.coeff.begin()->second;
                if (diff % c != 0)
                    return false; // exact test: no integer solution
                long delta = diff / c; // v' - v at the sink
                uint8_t m = delta > 0 ? kLt : (delta == 0 ? kEq : kGt);
                int lvl = bandLevel(band, f.coeff.begin()->first);
                if (lvl < 0)
                    continue;
                (*out)[static_cast<size_t>(lvl)] &= m;
                if ((*out)[static_cast<size_t>(lvl)] == 0)
                    return false; // contradictory per-dim constraints
                continue;
            }
            long g2 = 0; // multi-var: GCD divisibility only
            for (const auto& kv : f.coeff)
                g2 = std::gcd(g2, std::labs(kv.second));
            if (g2 != 0 && diff % g2 != 0)
                return false;
            continue;
        }
        if (!symEq)
            continue;
        long g2 = 0; // mismatched coefficient patterns: full GCD test
        for (const auto& kv : f.coeff)
            g2 = std::gcd(g2, std::labs(kv.second));
        for (const auto& kv : g.coeff)
            g2 = std::gcd(g2, std::labs(kv.second));
        if (g2 != 0 && diff % g2 != 0)
            return false;
    }
    return true;
}

using DirVecSet = std::set<std::pair<std::string, std::vector<Dir>>>;

/**
 * Expand per-level direction sets into concrete vectors, dropping the
 * loop-independent all-Eq vector and folding each lexicographically
 * negative vector onto its positive mirror (the pair is unordered, so
 * both orientations describe the same dependence).
 */
void
emitVectors(const std::vector<uint8_t>& sets, const std::string& tensor,
            DirVecSet* out)
{
    std::vector<Dir> cur(sets.size(), Dir::Eq);
    struct Rec
    {
        const std::vector<uint8_t>& sets;
        const std::string& tensor;
        DirVecSet* out;
        std::vector<Dir>& cur;

        void at(size_t level)
        {
            if (level == sets.size()) {
                bool allEq = true;
                for (Dir d : cur)
                    if (d != Dir::Eq) {
                        allEq = false;
                        break;
                    }
                if (allEq)
                    return;
                std::vector<Dir> v = cur;
                for (Dir& d : v) {
                    if (d == Dir::Eq)
                        continue;
                    if (d == Dir::Gt) // lex-negative: mirror it
                        for (Dir& x : v)
                            x = x == Dir::Lt
                                    ? Dir::Gt
                                    : (x == Dir::Gt ? Dir::Lt : Dir::Eq);
                    break;
                }
                out->insert({tensor, std::move(v)});
                return;
            }
            uint8_t m = sets[level];
            if (m & kLt) {
                cur[level] = Dir::Lt;
                at(level + 1);
            }
            if (m & kEq) {
                cur[level] = Dir::Eq;
                at(level + 1);
            }
            if (m & kGt) {
                cur[level] = Dir::Gt;
                at(level + 1);
            }
            cur[level] = Dir::Eq;
        }
    };
    Rec r{sets, tensor, out, cur};
    r.at(0);
}

bool
printEq(const ExprPtr& a, const ExprPtr& b)
{
    return printExpr(a) == printExpr(b);
}

/**
 * Detect T[idx] = T[idx] op ... accumulators (op commutative arithmetic:
 * +, *, min, max). freeLevels are the band levels absent from the
 * accumulator's subscripts — the dimensions being reduced over.
 */
void
findReductions(const std::vector<StmtPtr>& body,
               const std::vector<std::string>& band,
               const std::set<std::string>& band_set,
               const std::set<std::string>& invariant, NestInfo* n)
{
    for (const StmtPtr& s : body) {
        if (!s)
            continue;
        if (s->kind == StmtKind::If) {
            findReductions(s->thenBody, band, band_set, invariant, n);
            findReductions(s->elseBody, band, band_set, invariant, n);
            continue;
        }
        if (s->kind == StmtKind::For) {
            findReductions(s->body, band, band_set, invariant, n);
            continue;
        }
        const ExprPtr& rhs = s->rhs;
        if (!rhs || rhs->kind != ExprKind::Binary || rhs->args.size() != 2)
            continue;
        if (rhs->op != BinOp::Add && rhs->op != BinOp::Mul &&
            rhs->op != BinOp::Min && rhs->op != BinOp::Max)
            continue;
        bool matches = false;
        for (const ExprPtr& arg : rhs->args) {
            if (!arg)
                continue;
            if (s->targetIdx.empty()) {
                if ((arg->kind == ExprKind::LoopVar ||
                     arg->kind == ExprKind::Param) &&
                    arg->name == s->target)
                    matches = true;
            } else if (arg->kind == ExprKind::ArrayRef &&
                       arg->name == s->target &&
                       arg->args.size() == s->targetIdx.size()) {
                bool same = true;
                for (size_t i = 0; i < arg->args.size(); ++i)
                    if (!printEq(arg->args[i], s->targetIdx[i])) {
                        same = false;
                        break;
                    }
                if (same)
                    matches = true;
            }
        }
        if (!matches)
            continue;
        Reduction r;
        r.target = s->target;
        bool conservativeFree = s->targetIdx.empty();
        std::vector<LinForm> subs;
        for (const ExprPtr& idx : s->targetIdx) {
            LinForm f = linearize(idx, band_set, invariant);
            if (!f.affine)
                conservativeFree = true;
            subs.push_back(std::move(f));
        }
        for (size_t l = 0; l < band.size(); ++l) {
            bool used = false;
            if (!conservativeFree)
                for (const LinForm& f : subs)
                    if (f.coeff.count(band[l])) {
                        used = true;
                        break;
                    }
            if (!used)
                r.freeLevels.push_back(static_cast<int>(l));
        }
        n->reductions.push_back(std::move(r));
    }
}

bool
containsFor(const std::vector<StmtPtr>& body)
{
    for (const StmtPtr& s : body) {
        if (!s)
            continue;
        if (s->kind == StmtKind::For)
            return true;
        if (s->kind == StmtKind::If &&
            (containsFor(s->thenBody) || containsFor(s->elseBody)))
            return true;
    }
    return false;
}

} // namespace

NestInfo
analyzeNest(const StmtPtr& for_stmt, const std::set<std::string>& invariant)
{
    NestInfo n;
    if (!for_stmt || for_stmt->kind != StmtKind::For)
        return n;

    // Maximal perfect band: follow single-For bodies down.
    const Stmt* cur = for_stmt.get();
    n.loops.push_back(cur->loop);
    while (cur->body.size() == 1 && cur->body[0]->kind == StmtKind::For) {
        cur = cur->body[0].get();
        n.loops.push_back(cur->loop);
    }
    const std::vector<StmtPtr>& inner = cur->body;

    n.perfect = !containsFor(inner);
    if (!n.perfect)
        n.notes.push_back("imperfect nest: statements below the perfect "
                          "band analyzed conservatively");

    std::vector<std::string> band;
    std::set<std::string> bandSet;
    for (const Loop& l : n.loops) {
        band.push_back(l.var);
        bandSet.insert(l.var);
    }

    std::vector<Access> accesses = collectAccesses(inner, bandSet, invariant);

    // Affinity counts and notes.
    std::set<std::string> written;
    std::set<std::string> notedNonAffine;
    for (const Access& a : accesses) {
        if (a.write)
            written.insert(a.name);
        if (a.scalar)
            continue; // 0-dim accesses have no subscripts to classify
        if (a.affine) {
            ++n.affineAccesses;
        } else {
            ++n.nonAffineAccesses;
            if (notedNonAffine.insert(a.name).second)
                n.notes.push_back("non-affine subscript on '" + a.name +
                                  "': analyzed conservatively");
            if (a.write)
                n.conservative = true;
        }
    }

    // A band bound reading a tensor written in the nest makes trip
    // counts data-dependent; give up on precision.
    for (const Loop& l : n.loops)
        if (containsArrayRefOf(l.lower, written) ||
            containsArrayRefOf(l.upper, written)) {
            n.conservative = true;
            n.notes.push_back("band bound reads a nest-written tensor");
            break;
        }

    if (n.depth() > kMaxBandDepth) {
        n.conservative = true;
        n.notes.push_back("band deeper than the analysis limit");
    } else {
        DirVecSet vecs;
        for (size_t i = 0; i < accesses.size(); ++i)
            for (size_t j = i; j < accesses.size(); ++j) {
                const Access& a = accesses[i];
                const Access& b = accesses[j];
                if (a.name != b.name || (!a.write && !b.write))
                    continue;
                std::vector<uint8_t> sets;
                if (!pairSets(a, b, band, &sets))
                    continue; // provably independent
                emitVectors(sets, a.name, &vecs);
            }
        for (const auto& v : vecs)
            n.deps.push_back(DirectionVector{v.first, v.second});
    }

    findReductions(inner, band, bandSet, invariant, &n);
    return n;
}

std::vector<NestInfo>
analyzeOperator(const Operator& op)
{
    std::set<std::string> invariant(op.scalarParams.begin(),
                                    op.scalarParams.end());
    std::vector<NestInfo> out;
    for (const StmtPtr& s : op.body)
        if (s && s->kind == StmtKind::For)
            out.push_back(analyzeNest(s, invariant));
    return out;
}

bool
interchangeLegal(const NestInfo& nest, int i, int j)
{
    int d = nest.depth();
    if (i < 0 || j < 0 || i >= d || j >= d || i == j)
        return false;
    if (nest.conservative)
        return false;

    // Triangular-style nests: a band bound referencing a band variable
    // would need bound rewriting, not a plain header swap.
    std::set<std::string> band;
    for (const Loop& l : nest.loops)
        band.insert(l.var);
    for (const Loop& l : nest.loops)
        if (containsName(l.lower, band) || containsName(l.upper, band))
            return false;

    for (const DirectionVector& dv : nest.deps) {
        if (dv.dirs.size() != static_cast<size_t>(d))
            return false; // malformed: refuse rather than guess
        std::vector<Dir> v = dv.dirs;
        std::swap(v[static_cast<size_t>(i)], v[static_cast<size_t>(j)]);
        for (Dir x : v) {
            if (x == Dir::Lt)
                break; // still lexicographically positive
            if (x == Dir::Gt)
                return false; // dependence would flip
        }
    }

    // FP accumulation order: swapping two reduced-over dimensions
    // reorders the per-cell sum; a legal interchange must not move bits.
    for (const Reduction& r : nest.reductions) {
        bool fi = std::find(r.freeLevels.begin(), r.freeLevels.end(), i) !=
                  r.freeLevels.end();
        bool fj = std::find(r.freeLevels.begin(), r.freeLevels.end(), j) !=
                  r.freeLevels.end();
        if (fi && fj)
            return false;
    }
    return true;
}

AccessClass
classifySubscript(const ExprPtr& idx, const std::vector<std::string>& loop_vars,
                  const std::set<std::string>& invariant)
{
    std::set<std::string> band(loop_vars.begin(), loop_vars.end());
    return linearize(idx, band, invariant).affine ? AccessClass::Affine
                                                  : AccessClass::NonAffine;
}

ScheduleReport
scheduleReport(const DataflowGraph& g)
{
    ScheduleReport rep;
    rep.canonicalHash = canonicalHash(g);
    for (const Operator& op : g.ops) {
        for (const NestInfo& n : analyzeOperator(op)) {
            NestReport nr;
            nr.op = op.name;
            nr.depth = n.depth();
            nr.perfect = n.perfect;
            nr.affineAccesses = n.affineAccesses;
            nr.nonAffineAccesses = n.nonAffineAccesses;
            nr.dependences = n.deps.size();
            for (int i = 0; i < n.depth(); ++i)
                for (int j = i + 1; j < n.depth(); ++j)
                    if (interchangeLegal(n, i, j))
                        nr.legalPairs.emplace_back(i, j);
            for (const Reduction& r : n.reductions)
                nr.reductionTargets.push_back(r.target);
            nr.notes = n.notes;
            rep.nests.push_back(std::move(nr));
        }
    }
    return rep;
}

std::string
ScheduleReport::str() const
{
    std::string out;
    out += util::format("canonicalHash=%016llx\n",
                        static_cast<unsigned long long>(canonicalHash));
    for (const NestReport& n : nests) {
        out += util::format(
            "%s: depth=%d perfect=%d affine=%zu nonaffine=%zu deps=%zu "
            "legal={",
            n.op.c_str(), n.depth, n.perfect ? 1 : 0, n.affineAccesses,
            n.nonAffineAccesses, n.dependences);
        for (size_t i = 0; i < n.legalPairs.size(); ++i)
            out += util::format("%s(%d,%d)", i ? " " : "",
                                n.legalPairs[i].first, n.legalPairs[i].second);
        out += "}";
        if (!n.reductionTargets.empty()) {
            out += " reductions=[";
            for (size_t i = 0; i < n.reductionTargets.size(); ++i)
                out += (i ? " " : "") + n.reductionTargets[i];
            out += "]";
        }
        for (const std::string& note : n.notes)
            out += "; " + note;
        out += "\n";
    }
    return out;
}

} // namespace dfir
} // namespace llmulator
