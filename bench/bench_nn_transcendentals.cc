/**
 * @file
 * The two transcendental sequences the nn backends own (softmax's exp,
 * GELU's tanh; src/nn/transcendentals.h) against the host libm's
 * std::exp / std::tanh:
 *
 *  - speed: ns per element over a 4096-element block, for libm, the
 *    scalar reference's per-element sequence (scalar::expSeq/tanhSeq)
 *    and the vector backend's 8-lane form (vec::exp8/tanh8); and ns per
 *    cell of both backends' softmaxRows on an attention-shaped block,
 *    16 rows x 271 cells with a band of cells masked by -1e9, which
 *    adds the row max, sum and normalize around the exp lanes;
 *  - distance: the number of float inputs on which either sequence
 *    differs from libm bitwise. The full run sweeps all 2^32 bit
 *    patterns (NaNs and infinities included) on 4 threads; --quick
 *    strides through ~1M of them. On a host whose libm is glibc 2.36
 *    (the sequences' source) both counts read 0; elsewhere they report
 *    how far that libm is from the sequences, which changes nothing in
 *    the model: the backends never call libm for these.
 *
 * CSV rows: nn_transcendentals,{exp,tanh}_ns_{libm,scalar,vector},<v>,
 * nn_transcendentals,softmax_ns_per_cell_{scalar,vector},<v> and
 * nn_transcendentals,{exp,tanh}_mismatch_vs_libm,<count>.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "harness/harness.h"
#include "nn/kernels.h"
#include "util/rng.h"

namespace {

using namespace llmulator;
using Clock = std::chrono::steady_clock;
namespace kn = nn::kernels;

constexpr size_t kBlock = 4096;

enum class Fn { Exp, Tanh };

float
libm(Fn f, float x)
{
    return f == Fn::Exp ? std::exp(x) : std::tanh(x);
}

float
scalarSeq(Fn f, float x)
{
    return f == Fn::Exp ? kn::scalar::expSeq(x) : kn::scalar::tanhSeq(x);
}

void
vectorSeq(Fn f, const float* x, float* y)
{
    if (f == Fn::Exp)
        kn::vec::exp8(x, y);
    else
        kn::vec::tanh8(x, y);
}

/**
 * Median over 5 windows of ns per element for `run`, which evaluates
 * `elements` elements; each window runs it whole for `seconds`.
 */
template <class Run>
double
nsPerElement(Run run, double seconds, size_t elements = kBlock)
{
    run(); // warm-up: faults the buffers, primes the clone dispatch
    std::vector<double> ns;
    for (int w = 0; w < 5; ++w) {
        long reps = 0;
        const Clock::time_point t0 = Clock::now();
        double elapsed = 0.0;
        do {
            run();
            ++reps;
            elapsed =
                std::chrono::duration<double>(Clock::now() - t0).count();
        } while (elapsed < seconds);
        ns.push_back(elapsed * 1e9 / (double(reps) * double(elements)));
    }
    std::sort(ns.begin(), ns.end());
    return ns[2];
}

void
timeRows(Fn f, const char* name, double seconds)
{
    // Inputs from each kernel's domain: softmax exponentiates x - max(x)
    // <= 0; GELU's tanh argument spans both of tanhf's bands.
    util::Rng rng(2024);
    std::vector<float> x(kBlock), y(kBlock);
    for (auto& v : x)
        v = f == Fn::Exp ? static_cast<float>(rng.uniform(-30.0, 0.0))
                         : static_cast<float>(rng.uniform(-5.0, 5.0));
    volatile float sink = 0.f;
    const double tLibm = nsPerElement(
        [&] {
            for (size_t i = 0; i < kBlock; ++i)
                y[i] = libm(f, x[i]);
            sink = y[kBlock - 1];
        },
        seconds);
    const double tScalar = nsPerElement(
        [&] {
            for (size_t i = 0; i < kBlock; ++i)
                y[i] = scalarSeq(f, x[i]);
            sink = y[kBlock - 1];
        },
        seconds);
    const double tVector = nsPerElement(
        [&] {
            for (size_t i = 0; i < kBlock; i += 8)
                vectorSeq(f, x.data() + i, y.data() + i);
            sink = y[kBlock - 1];
        },
        seconds);
    (void)sink;
    std::printf("%-5s ns/elem: libm %.2f  scalar %.2f  vector %.2f\n", name,
                tLibm, tScalar, tVector);
    const std::string base(name);
    bench::csv("nn_transcendentals", (base + "_ns_libm").c_str(), tLibm);
    bench::csv("nn_transcendentals", (base + "_ns_scalar").c_str(), tScalar);
    bench::csv("nn_transcendentals", (base + "_ns_vector").c_str(), tVector);
}

/**
 * Both backends' softmaxRows on one attention-shaped block: 16 rows (the
 * encoder forward's row block) x 271 cells, scores ~ N(0, 2) and the
 * last 71 cells of every row masked by -1e9, as the separation mask
 * blocks a data segment.
 */
void
timeSoftmax(double seconds)
{
    constexpr int kRows = 16, kCells = 271, kMaskedFrom = 200;
    util::Rng rng(2025);
    std::vector<float> x(size_t(kRows) * kCells), y(x.size());
    for (int r = 0; r < kRows; ++r)
        for (int j = 0; j < kCells; ++j)
            x[size_t(r) * kCells + j] =
                static_cast<float>(rng.normal(0.0, 2.0)) +
                (j >= kMaskedFrom ? -1e9f : 0.f);
    volatile float sink = 0.f;
    auto time = [&](void (*softmax)(const float*, float*, int, int)) {
        return nsPerElement(
            [&] {
                softmax(x.data(), y.data(), kRows, kCells);
                sink = y.back();
            },
            seconds, x.size());
    };
    const double tScalar = time(kn::scalar::softmaxRows);
    const double tVector = time(kn::vec::softmaxRows);
    (void)sink;
    std::printf("softmax ns/cell (%dx%d): scalar %.2f  vector %.2f\n", kRows,
                kCells, tScalar, tVector);
    bench::csv("nn_transcendentals", "softmax_ns_per_cell_scalar", tScalar);
    bench::csv("nn_transcendentals", "softmax_ns_per_cell_vector", tVector);
}

std::uint32_t
bitsOf(float x)
{
    std::uint32_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
}

/**
 * Inputs (every `stride`-th bit pattern) where the scalar sequence or
 * the 8-lane form differs from libm, bitwise.
 */
std::uint64_t
mismatches(Fn f, std::uint64_t stride)
{
    constexpr int kThreads = 4;
    constexpr std::uint64_t kAll = std::uint64_t(1) << 32;
    std::atomic<std::uint64_t> total{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            // Thread t takes every kThreads-th stride step.
            std::uint64_t count = 0;
            float x[8], y[8];
            int lanes = 0;
            auto check = [&](int n) {
                vectorSeq(f, x, y);
                for (int l = 0; l < n; ++l) {
                    const std::uint32_t want = bitsOf(libm(f, x[l]));
                    if (bitsOf(y[l]) != want ||
                        bitsOf(scalarSeq(f, x[l])) != want)
                        ++count;
                }
            };
            for (std::uint64_t u = std::uint64_t(t) * stride; u < kAll;
                 u += kThreads * stride) {
                const std::uint32_t bits = static_cast<std::uint32_t>(u);
                std::memcpy(&x[lanes], &bits, sizeof(float));
                if (++lanes == 8) {
                    check(8);
                    lanes = 0;
                }
            }
            if (lanes > 0) {
                std::fill(x + lanes, x + 8, 0.f);
                check(lanes);
            }
            total += count;
        });
    }
    for (auto& th : pool)
        th.join();
    return total.load();
}

} // namespace

int
main(int argc, char** argv)
{
    bench::parseArgs(argc, argv);
    const bool quick = harness::smokeMode();
    const double seconds = quick ? 0.01 : 0.1;
    // An odd stride, so the quick sweep's low mantissa bits still cycle
    // through every residue.
    const std::uint64_t stride = quick ? 4093 : 1;

    timeRows(Fn::Exp, "exp", seconds);
    timeRows(Fn::Tanh, "tanh", seconds);
    timeSoftmax(seconds);
    for (Fn f : {Fn::Exp, Fn::Tanh}) {
        const char* name = f == Fn::Exp ? "exp" : "tanh";
        const std::uint64_t bad = mismatches(f, stride);
        std::printf("%-5s inputs differing from libm (stride %llu): %llu\n",
                    name, static_cast<unsigned long long>(stride),
                    static_cast<unsigned long long>(bad));
        bench::csv("nn_transcendentals",
                   (std::string(name) + "_mismatch_vs_libm").c_str(),
                   double(bad));
    }
    return 0;
}
