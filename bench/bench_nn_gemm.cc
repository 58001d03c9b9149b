/**
 * @file
 * GFLOP/s microbenchmark of the three raw GEMM kernels behind the
 * nn::Backend seam, swept over both registered backends and the shapes
 * the cost-model stack actually runs:
 *
 *  - pooled [B*maxSeq, dim] x [dim, dim] Q/K/V/out projections
 *    (dim 48 at batch 8, plus the [64,256]x[256,256] class from the
 *    acceptance contract),
 *  - attention scores [seq, headDim] x [headDim, seq] at headDim 12,
 *  - the FFN pair [tokens, 48] x [48, 128] and [tokens, 128] x
 *    [128, 48],
 *  - the per-head attention GEMMs with 12-wide outputs (P.V, dV, dQ)
 *    at sequence lengths 206 and 280,
 *  - the calls the encoder makes per head at those lengths: the
 *    16-row forward blocks, scores [16,12,n] and P.V [16,n,12], and
 *    the backward's dV as its transpose, dO^T P: accum_at [n,12,n].
 *    The P operand of each also runs `_masked`, with a band of exact
 *    zeros like the separation mask's: as P.V's multiplier it sends
 *    gemmAccum down the tiles that test each term for zero; as dV's
 *    partner operand it is never tested. accum_at [n,n,12] masked is
 *    the untransposed dV, P^T dO, for comparison.
 *
 *
 * Then one head's attention block as the encoder runs it, 16 query
 * rows at head width 12 against n = 206 and 280 keys, with no mask and
 * `_masked` (a separation-mask band of -1e9 on half the rows): the
 * scalar attentionRows entry, `composite_vector` (the per-op composite,
 * scores, scale, mask, softmaxRows and P.V, on the vector kernels) and
 * the vector entry, the fused pass. These ask for no P, as inference
 * does; `_probs` rows at n = 280 masked also write P, as training does.
 *
 * Every row is the median of 5 windows, the backends of a row taking
 * turns window by window, with the windows' quartiles beside it.
 *
 * CSV rows: nn_gemm,<variant>_m<m>_k<k>_n<n>[_masked]_<backend>_gflops,
 * <v> with `_q1`/`_q3` rows, plus a `_speedup` row (vector over scalar,
 * of the medians) per row; nn_gemm,attn_rows_m16_n<n>[_masked][_probs]_
 * <backend>_ns_per_cell,<v> with `_q1`/`_q3` rows. Quick mode shortens
 * the windows, not the shape list.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/harness.h"
#include "nn/backend.h"
#include "nn/kernels.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace {

using namespace llmulator;
using Clock = std::chrono::steady_clock;

struct Shape
{
    int m, k, n;
};

const Shape kShapes[] = {
    {64, 256, 256},  // acceptance-contract class
    {1536, 48, 48},  // pooled projections, batch 8 x maxSeq 192
    {192, 12, 192},  // attention scores, one sequence per head
    {192, 48, 128},  // FFN expand
    {192, 128, 48},  // FFN contract
    // Per-head attention at the training corpus's typical and long
    // sequence lengths: accum is P.V, accum_at is dV (both 12-wide
    // outputs), accum_bt of the [n,12,n] shape is dQ.
    {206, 206, 12},
    {206, 12, 206},
    {280, 280, 12},
    {280, 12, 280},
};

std::vector<float>
randVec(size_t n, util::Rng& rng)
{
    std::vector<float> v(n);
    for (auto& x : v)
        x = static_cast<float>(rng.normal(0.0, 1.0));
    return v;
}

/** Zero columns [cols/3, cols/2) of every row: a masked P's band. */
void
zeroBand(std::vector<float>& p, int cols)
{
    for (size_t r = 0; r < p.size() / size_t(cols); ++r)
        std::fill_n(p.begin() + r * cols + cols / 3, cols / 2 - cols / 3,
                    0.f);
}

enum class Variant { Accum, AccumBt, AccumAt };

/** Which operand of a call is an attention P, given a masked band. */
enum class Masked { None, A, Dc };

struct Case
{
    Variant v;
    Shape s;
    Masked masked;
};

/** The encoder's per-head calls at sequence lengths 206 and 280. */
const Case kEncoderCases[] = {
    {Variant::Accum, {16, 12, 206}, Masked::None},     // scores block
    {Variant::Accum, {16, 12, 280}, Masked::None},
    {Variant::Accum, {16, 206, 12}, Masked::None},     // P.V block
    {Variant::Accum, {16, 206, 12}, Masked::A},
    {Variant::Accum, {16, 280, 12}, Masked::None},
    {Variant::Accum, {16, 280, 12}, Masked::A},
    {Variant::AccumAt, {206, 12, 206}, Masked::Dc},    // dV^T = dO^T P
    {Variant::AccumAt, {280, 12, 280}, Masked::Dc},
    {Variant::AccumAt, {206, 206, 12}, Masked::A},     // dV = P^T dO
    {Variant::AccumAt, {280, 280, 12}, Masked::A},
};

const char*
variantName(Variant v)
{
    switch (v) {
      case Variant::Accum: return "accum";
      case Variant::AccumBt: return "accum_bt";
      case Variant::AccumAt: return "accum_at";
    }
    return "?";
}

/** Windows per row; each row reports their median and quartiles. */
constexpr int kWindows = 5;

/** Quartiles of a row's windows. */
struct Spread
{
    double q1, median, q3;
};

Spread
spreadOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    auto at = [&](double f) {
        const double pos = f * double(v.size() - 1);
        const size_t lo = size_t(pos);
        const size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
    };
    return {at(0.25), at(0.5), at(0.75)};
}

/**
 * Time `call` (which returns the seconds it spent in the kernel) over
 * whole repetitions until they add up to `seconds`; returns the mean
 * seconds per call.
 */
template <class Call>
double
window(Call&& call, double seconds)
{
    long reps = 0;
    double in_kernel = 0.0;
    do {
        in_kernel += call();
        ++reps;
    } while (in_kernel < seconds);
    return in_kernel / double(reps);
}

/**
 * Run `calls` (one per backend) in turns, kWindows windows each, after
 * one warm-up call each; returns each backend's seconds per call, one
 * per window.
 */
template <class Call>
std::vector<std::vector<double>>
takeTurns(std::vector<Call>& calls, double seconds)
{
    for (auto& c : calls)
        c(); // warm-up: faults the buffers, primes the clone dispatch
    std::vector<std::vector<double>> perCall(calls.size());
    for (int w = 0; w < kWindows; ++w)
        for (size_t b = 0; b < calls.size(); ++b)
            perCall[b].push_back(window(calls[b], seconds));
    return perCall;
}

/** One (kernel, shape) call on backend `be`, as a timed closure. */
std::function<double()>
gemmCall(const nn::Backend& be, Variant v, const Shape& s, Masked masked)
{
    struct Buffers
    {
        std::vector<float> a, b, dc, out;
    };
    auto buf = std::make_shared<Buffers>();
    util::Rng rng(1234);
    buf->a = randVec(size_t(s.m) * s.k, rng);
    buf->b = randVec(size_t(s.k) * s.n, rng);
    buf->dc = randVec(size_t(s.m) * s.n, rng);
    if (masked == Masked::A)
        zeroBand(buf->a, s.k);
    if (masked == Masked::Dc)
        zeroBand(buf->dc, s.n);
    // The accumulators are re-zeroed between reps so values cannot
    // drift to inf across thousands of accumulating calls; only the
    // kernel call itself is timed, so the memset does not compress the
    // reported ratio on low-arithmetic-intensity shapes.
    return [&be, v, s, buf]() {
        Buffers& x = *buf;
        Clock::time_point t0, t1;
        switch (v) {
          case Variant::Accum:
            x.out.assign(size_t(s.m) * s.n, 0.f);
            t0 = Clock::now();
            be.gemmAccum(x.a.data(), x.b.data(), x.out.data(), s.m, s.k,
                         s.n);
            t1 = Clock::now();
            break;
          case Variant::AccumBt:
            x.out.assign(size_t(s.m) * s.k, 0.f);
            t0 = Clock::now();
            be.gemmAccumBt(x.dc.data(), x.b.data(), x.out.data(), s.m, s.k,
                           s.n);
            t1 = Clock::now();
            break;
          case Variant::AccumAt:
            x.out.assign(size_t(s.k) * s.n, 0.f);
            t0 = Clock::now();
            be.gemmAccumAt(x.a.data(), x.dc.data(), x.out.data(), s.m, s.k,
                           s.n);
            t1 = Clock::now();
            break;
        }
        return std::chrono::duration<double>(t1 - t0).count();
    };
}

/** Print `<base>` and its `_q1`/`_q3` rows. */
void
csvSpread(const std::string& base, const std::string& unit, Spread s)
{
    bench::csv("nn_gemm", (base + unit).c_str(), s.median);
    bench::csv("nn_gemm", (base + unit + "_q1").c_str(), s.q1);
    bench::csv("nn_gemm", (base + unit + "_q3").c_str(), s.q3);
}

/** Time one case on both backends and print its rows. */
void
report(const Case& c, double seconds)
{
    const Shape& s = c.s;
    std::vector<std::function<double()>> calls = {
        gemmCall(nn::scalarBackend(), c.v, s, c.masked),
        gemmCall(nn::vectorBackend(), c.v, s, c.masked)};
    const double flops = 2.0 * s.m * s.k * s.n;
    Spread gf[2];
    auto perCall = takeTurns(calls, seconds);
    for (int b = 0; b < 2; ++b) {
        for (double& t : perCall[b])
            t = flops / t / 1e9;
        gf[b] = spreadOf(perCall[b]);
    }
    const double sc = gf[0].median, ve = gf[1].median;
    std::string shape = util::format("m%d_k%d_n%d%s", s.m, s.k, s.n,
                                     c.masked == Masked::None ? ""
                                                              : "_masked");
    std::printf("%-10s %-25s %12.2f %12.2f %8.2fx\n", variantName(c.v),
                shape.c_str(), sc, ve, ve / sc);
    std::string base = util::format("%s_%s", variantName(c.v), shape.c_str());
    csvSpread(base + "_scalar", "_gflops", gf[0]);
    csvSpread(base + "_vector", "_gflops", gf[1]);
    bench::csv("nn_gemm", (base + "_speedup").c_str(), ve / sc);
}

/** One attention block's inputs: 16 rows of one head at width 12. */
struct AttentionCase
{
    int n;
    bool masked, probs;
};

constexpr int kHeadDim = 12;

/**
 * Time one attention block on the scalar entry, the composite on the
 * vector kernels and the vector entry, and print their rows in ns per
 * score cell (16 x n).
 */
void
reportAttention(const AttentionCase& c, double seconds)
{
    const int rb = nn::kAttentionRowBlock, n = c.n, hd = kHeadDim;
    util::Rng rng(99);
    auto q = std::make_shared<std::vector<float>>(randVec(size_t(rb) * hd, rng));
    auto kt = std::make_shared<std::vector<float>>(randVec(size_t(hd) * n, rng));
    auto v = std::make_shared<std::vector<float>>(randVec(size_t(n) * hd, rng));
    // The separation mask's shape: half the rows (Class I rows, say)
    // blocked from a band of columns (the data segment).
    auto mask = std::make_shared<std::vector<float>>(size_t(rb) * n, 0.f);
    for (int j = n / 3; j < n / 2; ++j)
        for (int r = 0; r < rb / 2; ++r)
            (*mask)[size_t(j) * rb + r] = -1e9f;
    using Kernel = std::function<void(float*, float*, float*)>;
    auto timed = [&](Kernel k) {
        auto scratch = std::make_shared<std::vector<float>>(2 * size_t(rb) * n);
        auto probs = std::make_shared<std::vector<float>>(size_t(rb) * n);
        auto out = std::make_shared<std::vector<float>>(size_t(rb) * hd);
        const bool keep = c.probs;
        return std::function<double()>([=]() {
            const Clock::time_point t0 = Clock::now();
            k(scratch->data(), keep ? probs->data() : nullptr, out->data());
            return std::chrono::duration<double>(Clock::now() - t0).count();
        });
    };
    const float* m = c.masked ? mask->data() : nullptr;
    auto entry = [&](const nn::Backend& be) {
        return Kernel([=, &be](float* s, float* p, float* o) {
            be.attentionRows(q->data(), kt->data(), v->data(), m, rb, n, hd,
                             s, p, o);
        });
    };
    std::vector<std::function<double()>> calls = {
        timed(entry(nn::scalarBackend())),
        timed([=](float* s, float* p, float* o) {
            nn::kernels::attentionComposite(
                nn::kernels::vec::gemmAccum, nn::kernels::vec::softmaxRows,
                q->data(), kt->data(), v->data(), m, rb, n, hd, s, p, o);
        }),
        timed(entry(nn::vectorBackend()))};
    auto perCall = takeTurns(calls, seconds);
    const char* names[3] = {"scalar", "composite_vector", "vector"};
    const std::string base = util::format(
        "attn_rows_m%d_n%d%s%s", rb, n, c.masked ? "_masked" : "",
        c.probs ? "_probs" : "");
    Spread ns[3];
    for (int b = 0; b < 3; ++b) {
        for (double& t : perCall[b])
            t = t * 1e9 / (double(rb) * n);
        ns[b] = spreadOf(perCall[b]);
    }
    std::printf("%-34s %12.3f %12.3f %12.3f\n", base.c_str(), ns[0].median,
                ns[1].median, ns[2].median);
    for (int b = 0; b < 3; ++b)
        csvSpread(base + "_" + names[b], "_ns_per_cell", ns[b]);
}

} // namespace

int
main(int argc, char** argv)
{
    bench::parseArgs(argc, argv);
    const double seconds = harness::smokeMode() ? 0.004 : 0.1;

    std::printf("%-10s %-25s %12s %12s %9s\n", "variant", "shape",
                "scalar GF/s", "vector GF/s", "speedup");
    for (auto v : {Variant::Accum, Variant::AccumBt, Variant::AccumAt})
        for (const auto& s : kShapes)
            report({v, s, Masked::None}, seconds);
    for (const auto& c : kEncoderCases)
        report(c, seconds);

    std::printf("\n%-34s %12s %12s %12s  (ns per cell)\n", "attention block",
                "scalar", "composite", "vector");
    for (int n : {206, 280})
        for (bool masked : {false, true})
            reportAttention({n, masked, false}, seconds);
    reportAttention({280, true, true}, seconds);
    return 0;
}
