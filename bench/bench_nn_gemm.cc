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
 * CSV rows: nn_gemm,<variant>_m<m>_k<k>_n<n>[_masked]_<backend>_gflops,
 * <v> plus a `_speedup` row (vector over scalar) per row. Quick mode
 * shortens the measured window, not the shape list.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/harness.h"
#include "nn/backend.h"
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

/** Run one (kernel, shape) measurement; returns GFLOP/s. */
double
measure(const nn::Backend& be, Variant v, const Shape& s, Masked masked,
        double seconds)
{
    util::Rng rng(1234);
    auto a = randVec(size_t(s.m) * s.k, rng);
    auto b = randVec(size_t(s.k) * s.n, rng);
    auto dc = randVec(size_t(s.m) * s.n, rng);
    if (masked == Masked::A)
        zeroBand(a, s.k);
    if (masked == Masked::Dc)
        zeroBand(dc, s.n);
    // The accumulators are re-zeroed between reps so values cannot
    // drift to inf across thousands of accumulating calls; only the
    // kernel call itself is timed, so the memset does not compress the
    // reported ratio on low-arithmetic-intensity shapes.
    std::vector<float> out;
    auto runOnce = [&]() {
        Clock::time_point t0, t1;
        switch (v) {
          case Variant::Accum:
            out.assign(size_t(s.m) * s.n, 0.f);
            t0 = Clock::now();
            be.gemmAccum(a.data(), b.data(), out.data(), s.m, s.k, s.n);
            t1 = Clock::now();
            break;
          case Variant::AccumBt:
            out.assign(size_t(s.m) * s.k, 0.f);
            t0 = Clock::now();
            be.gemmAccumBt(dc.data(), b.data(), out.data(), s.m, s.k,
                           s.n);
            t1 = Clock::now();
            break;
          case Variant::AccumAt:
            out.assign(size_t(s.k) * s.n, 0.f);
            t0 = Clock::now();
            be.gemmAccumAt(a.data(), dc.data(), out.data(), s.m, s.k,
                           s.n);
            t1 = Clock::now();
            break;
        }
        return std::chrono::duration<double>(t1 - t0).count();
    };
    runOnce(); // warm-up: faults the buffers, primes the clone dispatch
    double flops = 2.0 * s.m * s.k * s.n;
    long reps = 0;
    double in_kernel = 0.0;
    do {
        in_kernel += runOnce();
        ++reps;
    } while (in_kernel < seconds);
    return flops * reps / in_kernel / 1e9;
}

/** Time one case on both backends and print its rows. */
void
report(const Case& c, double seconds)
{
    const Shape& s = c.s;
    double sc = measure(nn::scalarBackend(), c.v, s, c.masked, seconds);
    double ve = measure(nn::vectorBackend(), c.v, s, c.masked, seconds);
    std::string shape = util::format("m%d_k%d_n%d%s", s.m, s.k, s.n,
                                     c.masked == Masked::None ? ""
                                                              : "_masked");
    std::printf("%-10s %-25s %12.2f %12.2f %8.2fx\n", variantName(c.v),
                shape.c_str(), sc, ve, ve / sc);
    std::string base = util::format("%s_%s", variantName(c.v), shape.c_str());
    bench::csv("nn_gemm", (base + "_scalar_gflops").c_str(), sc);
    bench::csv("nn_gemm", (base + "_vector_gflops").c_str(), ve);
    bench::csv("nn_gemm", (base + "_speedup").c_str(), ve / sc);
}

} // namespace

int
main(int argc, char** argv)
{
    bench::parseArgs(argc, argv);
    const double seconds = harness::smokeMode() ? 0.02 : 0.25;

    std::printf("%-10s %-25s %12s %12s %9s\n", "variant", "shape",
                "scalar GF/s", "vector GF/s", "speedup");
    for (auto v : {Variant::Accum, Variant::AccumBt, Variant::AccumAt})
        for (const auto& s : kShapes)
            report({v, s, Masked::None}, seconds);
    for (const auto& c : kEncoderCases)
        report(c, seconds);
    return 0;
}
