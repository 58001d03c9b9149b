/**
 * @file
 * The "vector" backend: register-blocked, cache-tiled, SIMD-friendly
 * kernels that are bit-identical to the scalar reference on finite
 * inputs (backend.h has the contracts).
 *
 * The one rule every kernel obeys: the per-output-element float
 * operation sequence is exactly the scalar kernel's — reductions visit
 * terms in the same (ascending) order and keep the same zero-skip
 * predicate. All speed comes from restructuring ACROSS independent
 * output elements. All three GEMMs run on one register tile (`tile`):
 * 4 output rows by 16 columns, or one fused 8+4, 8- or 4-wide tile for
 * what a row has left (the 12-wide head-dim outputs of attention), with
 * the accumulators held in registers across the whole reduction:
 *
 *  - gemmAccum:   tiles of C over the k loop, so each B row is loaded
 *                 once per 4 output rows and C is never re-read per k
 *                 step.
 *  - gemmAccumBt: B is transposed once into a per-thread scratch
 *                 panel, turning the serial latency-bound dot-product
 *                 chain into a broadcast-multiply over independent
 *                 p-columns — each output's chain still strictly
 *                 j-ascending, local-sum-then-accumulate like the
 *                 reference (the scalar kernel is one add-latency-bound
 *                 chain per element).
 *  - gemmAccumAt: tiles of out over the i loop (i stays outermost, as
 *                 the element-wise accumulation order requires).
 *
 * bench/bench_nn_gemm.cc has the per-shape speedups over scalar.
 *
 * The row-wise primitives (softmax, layer norm) are reduction-shaped:
 * their sums must stay ascending to preserve bit-identity, so only
 * their independent elementwise stages (exp input prep, normalize,
 * scale-shift) differ from scalar — marked __restrict and written as
 * plain dense loops the auto-vectorizer handles.
 *
 * On x86-64/glibc the hot kernels are compiled via target_clones into
 * default/AVX2/AVX-512 variants with runtime dispatch, so a generic
 * build still uses wide vectors where the CPU has them. FP contraction
 * is pinned off for this file and kernels_scalar.cc (see kernels.h and
 * src/nn/CMakeLists.txt), so clone selection can never change results.
 */

#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

// ThreadSanitizer segfaults at startup when glibc resolves the ifunc
// dispatchers target_clones emits (the resolver runs before the TSan
// runtime is initialized), so clones are disabled under TSan — the
// kernels then compile once for the baseline ISA, still bit-identical,
// just narrower vectors.
#if defined(__SANITIZE_THREAD__)
#define LLM_NO_KERNEL_CLONES
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LLM_NO_KERNEL_CLONES
#endif
#endif

#if !defined(LLM_NO_KERNEL_CLONES) && defined(__x86_64__) && \
    defined(__gnu_linux__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define LLM_KERNEL_CLONES \
    __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef LLM_KERNEL_CLONES
#define LLM_KERNEL_CLONES
#endif

// The v8f helpers pass vectors by value; they are always_inline'd into
// the (possibly AVX-cloned) kernels, so the generic-ABI warning about
// by-value vector parameters is noise.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace llmulator {
namespace nn {
namespace kernels {
namespace vec {

namespace {

constexpr int kMR = 4; //!< rows of every register tile

/**
 * 8-wide float vector (GCC/Clang vector extension). Lowered to two SSE
 * registers on baseline x86-64, one ymm under the AVX2/AVX-512 target
 * clones, NEON pairs on aarch64 — all element-wise IEEE mul/add, so
 * bit-identity is architecture-independent. Explicit vector variables
 * (rather than float arrays) are what keeps the accumulator tiles in
 * registers across the reduction loops; the auto-vectorizer left array
 * tiles in stack slots, re-loading and re-storing them every step,
 * which was SLOWER than the scalar reference.
 */
typedef float v8f __attribute__((vector_size(32)));
/** 4-wide companion for the narrow tiles (one xmm / SSE register). */
typedef float v4f __attribute__((vector_size(16)));

__attribute__((always_inline)) inline v8f
load8(const float* p)
{
    v8f v;
    std::memcpy(&v, p, sizeof(v)); // unaligned-safe; folds to one move
    return v;
}

__attribute__((always_inline)) inline void
store8(float* p, v8f v)
{
    std::memcpy(p, &v, sizeof(v));
}

__attribute__((always_inline)) inline v4f
load4(const float* p)
{
    v4f v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

__attribute__((always_inline)) inline void
store4(float* p, v4f v)
{
    std::memcpy(p, &v, sizeof(v));
}

__attribute__((always_inline)) inline v8f
bcast8(float x)
{
#if defined(__has_builtin) && __has_builtin(__builtin_shufflevector)
    // GCC lowers the brace-initializer splat inside the GEMM loops to a
    // 5-uop insert chain (4x vinsertps + vinsertf128), which serializes
    // on the shuffle port and erases the whole micro-kernel win; the
    // explicit shuffle reliably selects the single-uop vbroadcastss.
    v8f s = {x};
    return __builtin_shufflevector(s, s, 0, 0, 0, 0, 0, 0, 0, 0);
#else
    return v8f{x, x, x, x, x, x, x, x};
#endif
}

/** Low four lanes of v: the xmm half of the ymm, no extra instruction. */
__attribute__((always_inline)) inline v4f
lo4(v8f v)
{
#if defined(__has_builtin) && __has_builtin(__builtin_shufflevector)
    return __builtin_shufflevector(v, v, 0, 1, 2, 3);
#else
    return v4f{v[0], v[1], v[2], v[3]};
#endif
}

/**
 * One row of register accumulators: 8*N8 + 4*N4 output columns, with
 * N8 in 0..2 and N4 in 0..1 (16-, 12-, 8- and 4-wide tiles). Members a
 * width does not use are never touched and compile away.
 */
struct TileRow
{
    v8f lo, hi;
    v4f q;
};

template <int N8, int N4>
__attribute__((always_inline)) inline TileRow
loadRow(const float* p)
{
    TileRow t{};
    if constexpr (N8 >= 1)
        t.lo = load8(p);
    if constexpr (N8 >= 2)
        t.hi = load8(p + 8);
    if constexpr (N4 == 1)
        t.q = load4(p + 8 * N8);
    return t;
}

template <int N8, int N4>
__attribute__((always_inline)) inline void
storeRow(float* p, const TileRow& t)
{
    if constexpr (N8 >= 1)
        store8(p, t.lo);
    if constexpr (N8 >= 2)
        store8(p + 8, t.hi);
    if constexpr (N4 == 1)
        store4(p + 8 * N8, t.q);
}

/** p[0..W) += t, one add per element. */
template <int N8, int N4>
__attribute__((always_inline)) inline void
addToRow(float* p, const TileRow& t)
{
    if constexpr (N8 >= 1)
        store8(p, load8(p) + t.lo);
    if constexpr (N8 >= 2)
        store8(p + 8, load8(p + 8) + t.hi);
    if constexpr (N4 == 1)
        store4(p + 8 * N8, load4(p + 8 * N8) + t.q);
}

/** acc += xv * y, element-wise: one mul then one add per lane. */
template <int N8, int N4>
__attribute__((always_inline)) inline void
rank1(TileRow& acc, float xv, const TileRow& y)
{
    const v8f xb = bcast8(xv);
    if constexpr (N8 >= 1)
        acc.lo += xb * y.lo;
    if constexpr (N8 >= 2)
        acc.hi += xb * y.hi;
    if constexpr (N4 == 1)
        acc.q += lo4(xb) * y.q;
}

/**
 * The register tile all three GEMM variants reduce to: a sum of rank-1
 * updates over `steps`, into kMR output rows of W = 8*N8 + 4*N4
 * columns,
 *
 *     C[r, 0..W) <- C[r, 0..W) + sum_s X[r,s] * Y[s, 0..W),
 *
 * with X[r,s] at x[r*xRow + s*xStep], Y row s at y + s*ldy and C row r
 * at c + r*ldc. The kMR x W accumulators stay in registers for the
 * whole reduction and each Y row is loaded once for all kMR rows.
 *
 * Per output element the float operations are exactly the scalar
 * reference's: terms in ascending s, a separate mul and add each
 * (contraction is off for this file). The two reference shapes:
 *  - Skip (gemmAccum, gemmAccumAt): the chain starts from C's value and
 *    a term whose X is zero (== 0.0f, so -0.0f too) is skipped, never
 *    multiplied — 0 * inf would be NaN;
 *  - !Skip (gemmAccumBt): the chain starts from 0, takes every term,
 *    and is added to C once at the end (`s = 0; ...; out += s`).
 */
template <int N8, int N4, bool Skip>
__attribute__((always_inline)) inline void
tile(const float* x, size_t xRow, size_t xStep, const float* y, size_t ldy,
     float* c, size_t ldc, int steps)
{
    TileRow acc0{}, acc1{}, acc2{}, acc3{};
    if constexpr (Skip) {
        acc0 = loadRow<N8, N4>(c);
        acc1 = loadRow<N8, N4>(c + ldc);
        acc2 = loadRow<N8, N4>(c + 2 * ldc);
        acc3 = loadRow<N8, N4>(c + 3 * ldc);
    }
    for (int s = 0; s < steps; ++s) {
        const TileRow ys = loadRow<N8, N4>(y + size_t(s) * ldy);
        const float* xs = x + size_t(s) * xStep;
        const float x0 = xs[0], x1 = xs[xRow];
        const float x2 = xs[2 * xRow], x3 = xs[3 * xRow];
        if (!Skip || x0 != 0.f)
            rank1<N8, N4>(acc0, x0, ys);
        if (!Skip || x1 != 0.f)
            rank1<N8, N4>(acc1, x1, ys);
        if (!Skip || x2 != 0.f)
            rank1<N8, N4>(acc2, x2, ys);
        if (!Skip || x3 != 0.f)
            rank1<N8, N4>(acc3, x3, ys);
    }
    if constexpr (Skip) {
        storeRow<N8, N4>(c, acc0);
        storeRow<N8, N4>(c + ldc, acc1);
        storeRow<N8, N4>(c + 2 * ldc, acc2);
        storeRow<N8, N4>(c + 3 * ldc, acc3);
    } else {
        addToRow<N8, N4>(c, acc0);
        addToRow<N8, N4>(c + ldc, acc1);
        addToRow<N8, N4>(c + 2 * ldc, acc2);
        addToRow<N8, N4>(c + 3 * ldc, acc3);
    }
}

/**
 * Sweep one kMR-row block across output columns [0, w): 16-wide tiles,
 * then a single 12-, 8- or 4-wide tile for what is left — so the
 * head-dim outputs of attention (P*V, dV, dQ at width 12) run one
 * fused 8+4 tile instead of per-element loops. Returns the first column
 * not covered (w rounded down to a multiple of 4).
 */
template <bool Skip>
__attribute__((always_inline)) inline int
tileColumns(const float* x, size_t xRow, size_t xStep, const float* y,
            size_t ldy, float* c, size_t ldc, int steps, int w)
{
    int j = 0;
    for (; j + 16 <= w; j += 16)
        tile<2, 0, Skip>(x, xRow, xStep, y + j, ldy, c + j, ldc, steps);
    const int rest = w - j;
    if (rest >= 12) {
        tile<1, 1, Skip>(x, xRow, xStep, y + j, ldy, c + j, ldc, steps);
        j += 12;
    } else if (rest >= 8) {
        tile<1, 0, Skip>(x, xRow, xStep, y + j, ldy, c + j, ldc, steps);
        j += 8;
    } else if (rest >= 4) {
        tile<0, 1, Skip>(x, xRow, xStep, y + j, ldy, c + j, ldc, steps);
        j += 4;
    }
    return j;
}

/** Scalar-identical ikj kernel over rows [i0,i1), columns [j0,n). */
__attribute__((always_inline)) inline void
gemmAccumEdge(const float* a, const float* b, float* c, int i0, int i1,
              int j0, int k, int n)
{
    for (int i = i0; i < i1; ++i) {
        const float* arow = a + size_t(i) * k;
        float* crow = c + size_t(i) * n;
        for (int p = 0; p < k; ++p) {
            float av = arow[p];
            if (av == 0.f)
                continue;
            const float* brow = b + size_t(p) * n;
            for (int j = j0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/**
 * Scalar-identical A^T*dC accumulation over out rows [p0,p1), columns
 * [j0,n). i stays outermost so each out element sees ascending i.
 */
__attribute__((always_inline)) inline void
gemmAccumAtEdge(const float* a, const float* dc, float* out, int m,
                int p0, int p1, int j0, int k, int n)
{
    for (int i = 0; i < m; ++i) {
        const float* arow = a + size_t(i) * k;
        const float* drow = dc + size_t(i) * n;
        for (int p = p0; p < p1; ++p) {
            float av = arow[p];
            if (av == 0.f)
                continue;
            float* orow = out + size_t(p) * n;
            for (int j = j0; j < n; ++j)
                orow[j] += av * drow[j];
        }
    }
}

} // namespace

LLM_KERNEL_CLONES void
gemmAccum(const float* a, const float* b, float* c, int m, int k, int n)
{
    // Tiles of C: X = A (rows i..i+3, stepping along k), Y = B's rows.
    int i = 0;
    for (; i + kMR <= m; i += kMR) {
        const int j = tileColumns<true>(a + size_t(i) * k, size_t(k), 1, b,
                                        size_t(n), c + size_t(i) * n,
                                        size_t(n), k, n);
        if (j < n)
            gemmAccumEdge(a, b, c, i, i + kMR, j, k, n);
    }
    if (i < m)
        scalar::gemmAccum(a + size_t(i) * k, b, c + size_t(i) * n, m - i,
                          k, n);
}

namespace {

/**
 * Per-thread scratch for gemmAccumBt's transposed-B panel. Thread-local
 * because trainer workers run concurrent backward passes; grows
 * monotonically and is reused across calls.
 */
thread_local std::vector<float> g_bt_scratch;

} // namespace

LLM_KERNEL_CLONES void
gemmAccumBt(const float* dc, const float* b, float* out, int m, int k, int n)
{
    // The scalar kernel is one serial j-ascending add-chain per output
    // element — pure FPU-latency-bound. Transposing B once into an
    // [n,k] panel turns the inner step into `acc[p..] += dC[i,j] *
    // bT[j][p..]`: a broadcast-multiply across up to 16 INDEPENDENT p
    // chains, each still strictly j-ascending and local-sum-then-
    // accumulate (the tile's !Skip form). Small m can't amortize the
    // O(k*n) transpose, and k below one vector width leaves nothing to
    // vectorize across; the reference loop is fast enough there.
    if (m < kMR || k < 8) {
        scalar::gemmAccumBt(dc, b, out, m, k, n);
        return;
    }

    if (g_bt_scratch.size() < size_t(n) * k)
        g_bt_scratch.resize(size_t(n) * k);
    float* bt = g_bt_scratch.data();
    for (int p = 0; p < k; ++p)
        for (int j = 0; j < n; ++j)
            bt[size_t(j) * k + p] = b[size_t(p) * n + j];

    // Tiles of out: X = dC (rows i..i+3, stepping along n), Y = bT's rows.
    int i = 0;
    for (; i + kMR <= m; i += kMR) {
        const float* d = dc + size_t(i) * n;
        float* o = out + size_t(i) * k;
        int p = tileColumns<false>(d, size_t(n), 1, bt, size_t(k), o,
                                   size_t(k), n, k);
        for (; p < k; ++p) {
            const float* brow = b + size_t(p) * n;
            for (int r = 0; r < kMR; ++r) {
                const float* drow = d + size_t(r) * n;
                float sv = 0.f;
                for (int j = 0; j < n; ++j)
                    sv += drow[j] * brow[j];
                o[size_t(r) * k + p] += sv;
            }
        }
    }
    if (i < m)
        scalar::gemmAccumBt(dc + size_t(i) * n, b, out + size_t(i) * k,
                            m - i, k, n);
}

LLM_KERNEL_CLONES void
gemmAccumAt(const float* a, const float* dc, float* out, int m, int k, int n)
{
    // Tiles of out: X = A^T (out rows p..p+3 are A's columns, stepping
    // down A's rows, so i stays outermost per element), Y = dC's rows.
    int p = 0;
    for (; p + kMR <= k; p += kMR) {
        const int j = tileColumns<true>(a + p, 1, size_t(k), dc, size_t(n),
                                        out + size_t(p) * n, size_t(n), m,
                                        n);
        if (j < n)
            gemmAccumAtEdge(a, dc, out, m, p, p + kMR, j, k, n);
    }
    if (p < k)
        gemmAccumAtEdge(a, dc, out, m, p, k, 0, k, n);
}

LLM_KERNEL_CLONES void
softmaxRows(const float* x, float* y, int m, int n)
{
    // The exp-sum must stay j-ascending for bit-identity and exp() is a
    // scalar libm call, so only the max scan and the normalize step are
    // restructured for the vectorizer. max() is exact under any
    // evaluation order on the finite inputs the contract admits.
    for (int i = 0; i < m; ++i) {
        const float* __restrict in = x + size_t(i) * n;
        float* __restrict out = y + size_t(i) * n;
        float mx = in[0];
        for (int j = 1; j < n; ++j)
            mx = std::max(mx, in[j]);
        float sum = 0.f;
        for (int j = 0; j < n; ++j) {
            out[j] = std::exp(in[j] - mx);
            sum += out[j];
        }
        float inv = 1.f / sum;
        for (int j = 0; j < n; ++j)
            out[j] *= inv;
    }
}

LLM_KERNEL_CLONES void
layerNormRows(const float* x, const float* gamma, const float* beta,
              float eps, float* y, float* xhat, float* invstd, int m, int n)
{
    // Mean/variance sums stay j-ascending (reduction order is pinned);
    // the scale-shift stage is independent per element and vectorizes.
    for (int i = 0; i < m; ++i) {
        const float* __restrict row = x + size_t(i) * n;
        float mean = 0.f;
        for (int j = 0; j < n; ++j)
            mean += row[j];
        mean /= n;
        float var = 0.f;
        for (int j = 0; j < n; ++j) {
            float d = row[j] - mean;
            var += d * d;
        }
        var /= n;
        float is = 1.f / std::sqrt(var + eps);
        invstd[i] = is;
        float* __restrict xh = xhat + size_t(i) * n;
        float* __restrict out = y + size_t(i) * n;
        for (int j = 0; j < n; ++j) {
            float h = (row[j] - mean) * is;
            xh[j] = h;
            out[j] = gamma[j] * h + beta[j];
        }
    }
}

void
geluForward(const float* x, float* y, float* t, std::size_t n)
{
    // tanh() is a scalar libm call, so this matches the scalar kernel;
    // it lives here (not shared) so a future backend with a vector math
    // library has an obvious seam — any replacement must keep bitwise
    // results, which rules out polynomial tanh approximations.
    for (std::size_t i = 0; i < n; ++i) {
        float v = x[i];
        float th = std::tanh(kGeluC * (v + kGeluA * v * v * v));
        y[i] = 0.5f * v * (1.f + th);
        if (t)
            t[i] = th;
    }
}

LLM_KERNEL_CLONES void
addElem(const float* a, const float* b, float* y, std::size_t n)
{
    const float* __restrict ap = a;
    const float* __restrict bp = b;
    float* __restrict yp = y;
    for (std::size_t i = 0; i < n; ++i)
        yp[i] = ap[i] + bp[i];
}

LLM_KERNEL_CLONES void
subElem(const float* a, const float* b, float* y, std::size_t n)
{
    const float* __restrict ap = a;
    const float* __restrict bp = b;
    float* __restrict yp = y;
    for (std::size_t i = 0; i < n; ++i)
        yp[i] = ap[i] - bp[i];
}

LLM_KERNEL_CLONES void
mulElem(const float* a, const float* b, float* y, std::size_t n)
{
    const float* __restrict ap = a;
    const float* __restrict bp = b;
    float* __restrict yp = y;
    for (std::size_t i = 0; i < n; ++i)
        yp[i] = ap[i] * bp[i];
}

LLM_KERNEL_CLONES void
axpy(float alpha, const float* x, float* y, std::size_t n)
{
    const float* __restrict xp = x;
    float* __restrict yp = y;
    for (std::size_t i = 0; i < n; ++i)
        yp[i] += alpha * xp[i];
}

LLM_KERNEL_CLONES void
scaleElem(float alpha, const float* x, float* y, std::size_t n)
{
    const float* __restrict xp = x;
    float* __restrict yp = y;
    for (std::size_t i = 0; i < n; ++i)
        yp[i] = xp[i] * alpha;
}

} // namespace vec
} // namespace kernels
} // namespace nn
} // namespace llmulator
