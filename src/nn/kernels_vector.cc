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
 * output elements. The one reduction exempt is softmax's row max,
 * which is exact in any order on finite inputs (`rowMax` says why). All
 * three GEMMs run on one register tile (`tile`):
 * 4 output rows by 16 columns, each row's 16 held in one 64-byte vector
 * (one zmm on the x86-64-v4 clone, two ymm on x86-64-v3, four SSE
 * registers on the baseline), or one fused 8+4, 8- or 4-wide tile for
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
 * The zero-skip is tested once per call, not once per term: gemmAccum
 * and gemmAccumAt scan their multiplier A for a zero (`anyZero`) and,
 * when it holds none, run tiles with no per-term test or branch, which
 * skip nothing because there is nothing to skip. An A that holds a zero
 * (an attention P with masked cells, say) runs the tested tiles. The
 * scalar edge loops always test.
 *
 * bench/bench_nn_gemm.cc has the per-shape speedups over scalar.
 *
 * Softmax's exp and GELU's tanh are the fixed glibc/fdlibm sequences of
 * transcendentals.h, evaluated 8 lanes at a time (`expLanes`,
 * `tanhLanes`): every lane runs the scalar sequence's operations, and a
 * branch of the scalar code becomes a per-lane blend. exp runs its
 * double-precision steps on one 8-double vector, and each lane loads its
 * table entry. The softmax row max runs on four 8-lane accumulators. A
 * row's softmax sum must stay j-ascending, so it stays one add chain per
 * row; four rows' chains advance in one loop so they overlap in the
 * adder. bench/bench_nn_transcendentals.cc has the per-element and
 * per-cell timings.
 *
 * On x86-64/glibc (GCC) the hot kernels are compiled via target_clones
 * into x86-64-v4/x86-64-v3/default variants with runtime dispatch, so a
 * generic build still uses wide vectors and hardware FMA where the CPU
 * has them; the default clone computes exp's fma lanes with libm's
 * (exact) fma. FP contraction is pinned off for this file and
 * kernels_scalar.cc (see kernels.h and src/nn/CMakeLists.txt), so clone
 * selection can never change results.
 */

#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/transcendentals.h"

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

// The x86-64-v3/v4 levels include FMA, which the exp lanes need as an
// instruction (avx2/avx512f alone do not enable it). Clang only learned
// arch=x86-64-vN clones recently, so it keeps the ISA-extension clones
// and takes libm's fma for those lanes.
#if !defined(LLM_NO_KERNEL_CLONES) && defined(__x86_64__) && \
    defined(__gnu_linux__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#if defined(__clang__)
#define LLM_KERNEL_CLONES \
    __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define LLM_KERNEL_CLONES                                          \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                                 "default")))
#endif
#endif
#endif
#ifndef LLM_KERNEL_CLONES
#define LLM_KERNEL_CLONES
#endif

// The vector helpers pass vectors by value; they are always_inline'd into
// the (possibly AVX-cloned) kernels, so the generic-ABI warning about
// by-value vector parameters is noise. A helper that is NOT inlined
// would be compiled for the baseline ABI and called from a clone with
// the AVX one, so every helper taking or returning a vector must stay
// always_inline.
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
/**
 * A tile row's 16 columns: one zmm on the x86-64-v4 clone, two ymm on
 * x86-64-v3, four SSE registers on the baseline. The lane ops are the
 * same element-wise mul/add at every width.
 */
typedef float v16f __attribute__((vector_size(64)));
/** Lane masks (all ones or zero, as comparisons return) and int lanes. */
typedef std::int32_t v8i __attribute__((vector_size(32)));
typedef std::int32_t v16i __attribute__((vector_size(64)));
/** Float bit patterns, for exponent-field arithmetic without UB. */
typedef std::uint32_t v8u __attribute__((vector_size(32)));
/**
 * The double lanes exp runs its reduction and polynomial in: one zmm on
 * the x86-64-v4 clone, two ymm on x86-64-v3, four SSE registers on the
 * baseline.
 */
typedef double v8d __attribute__((vector_size(64)));
typedef std::uint64_t v8q __attribute__((vector_size(64)));

/** A vector of V's width from p (unaligned-safe; folds to one move). */
template <class V>
__attribute__((always_inline)) inline V
load(const float* p)
{
    V v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

template <class V>
__attribute__((always_inline)) inline void
store(float* p, V v)
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

/** bcast8 at 16 lanes. */
__attribute__((always_inline)) inline v16f
bcast16(float x)
{
#if defined(__has_builtin) && __has_builtin(__builtin_shufflevector)
    v16f s = {x};
    return __builtin_shufflevector(s, s, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                   0, 0, 0, 0);
#else
    return v16f{x, x, x, x, x, x, x, x, x, x, x, x, x, x, x, x};
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

/** Every lane s (constants fold to one broadcast). */
template <class V, class T>
__attribute__((always_inline)) inline V
splat(T s)
{
    V v{};
    for (unsigned l = 0; l < sizeof(V) / sizeof(T); ++l)
        v[l] = s;
    return v;
}

/** Reinterpret the bits of a vector as another lane type of its size. */
template <class To, class From>
__attribute__((always_inline)) inline To
bitcast(From v)
{
    static_assert(sizeof(To) == sizeof(From), "same-size vectors only");
    To r;
    std::memcpy(&r, &v, sizeof(r));
    return r;
}

/** Lanes of a where mask is set (all ones), lanes of b elsewhere. */
template <class V>
__attribute__((always_inline)) inline V
blend(v8i mask, V a, V b)
{
    return bitcast<V>((bitcast<v8i>(a) & mask) | (bitcast<v8i>(b) & ~mask));
}

/** fma per lane: one rounding, an FMA instruction where the clone has one. */
__attribute__((always_inline)) inline v8d
fma8(v8d a, v8d b, v8d c)
{
    v8d r{};
    for (int l = 0; l < 8; ++l)
        r[l] = __builtin_fma(a[l], b[l], c[l]);
    return r;
}

/** scalar::expSeq's main path on 8 double lanes (no special cases). */
__attribute__((always_inline)) inline v8f
expCore(v8d xd)
{
    using namespace seq;
    const v8d invLn2N = splat<v8d>(kExpInvLn2N);
    const v8d shift = splat<v8d>(kExpShift);
    v8d kd = fma8(invLn2N, xd, shift);
    const v8q ki = bitcast<v8q>(kd);
    kd -= shift;
    const v8d r = fma8(invLn2N, xd, -kd);
    v8q t{}; // kExpTable[ki & 31], one load per lane
    for (int l = 0; l < 8; ++l)
        t[l] = kExpTable[ki[l] & 31];
    const v8d s = bitcast<v8d>(t + (ki << splat<v8q>(std::uint64_t(47))));
    const v8d z = fma8(splat<v8d>(kExpC0), r, splat<v8d>(kExpC1));
    v8d y = fma8(r, splat<v8d>(kExpC2), splat<v8d>(1.0));
    y = fma8(z, r * r, y);
    return __builtin_convertvector(y * s, v8f);
}

/** scalar::expSeq on 8 lanes: the main path, then its special cases. */
__attribute__((always_inline)) inline v8f
expLanes(v8f x)
{
    using namespace seq;
    v8f y = expCore(__builtin_convertvector(x, v8d));
    y = blend(x < splat<v8f>(kExpMayUnderflow), splat<v8f>(0x1p-149f), y);
    y = blend(x < splat<v8f>(kExpUnderflow), splat<v8f>(0.f), y);
    y = blend(x > splat<v8f>(kExpOverflow),
              splat<v8f>(std::numeric_limits<float>::infinity()), y);
    return blend(x != x, x + x, y);
}

/**
 * The scalar reference's expm1ForTanh on 8 lanes, for arguments a in
 * (-2, -2^-54] or [2, 44). Each band's result is computed on every lane
 * and the lane's band picks one. The 1.5*ln2 band (negative a only) is
 * the general reduction with k = -1: a - (-1*ln2_hi) and -1*ln2_lo are
 * exactly fdlibm's a + ln2_hi and -ln2_lo.
 */
__attribute__((always_inline)) inline v8f
expm1Lanes(v8f a)
{
    using namespace seq;
    const v8f one = splat<v8f>(1.f), half = splat<v8f>(0.5f);
    const v8u ha = bitcast<v8u>(a) & splat<v8u>(0x7fffffffu);
    const v8f bias = blend(a < splat<v8f>(0.f), -half, half);
    v8i k = __builtin_convertvector(splat<v8f>(kInvLn2) * a + bias, v8i);
    k = blend(ha < splat<v8u>(kExpm1ThreeHalfLn2), splat<v8i>(-1), k);
    const v8i k0 = ha <= splat<v8u>(kExpm1HalfLn2);
    k = blend(k0, splat<v8i>(0), k);

    const v8f t = __builtin_convertvector(k, v8f);
    const v8f hi = a - t * splat<v8f>(kLn2Hi);
    const v8f lo = t * splat<v8f>(kLn2Lo);
    const v8f x = blend(k0, a, hi - lo);
    const v8f c = (hi - x) - lo;

    const v8f hfx = half * x;
    const v8f hxs = x * hfx;
    const v8f r1 =
        one + hxs * (splat<v8f>(kQ1) +
                     hxs * (splat<v8f>(kQ2) +
                            hxs * (splat<v8f>(kQ3) +
                                   hxs * (splat<v8f>(kQ4) +
                                          hxs * splat<v8f>(kQ5)))));
    const v8f t3 = splat<v8f>(3.f) - r1 * hfx;
    const v8f e = hxs * ((r1 - t3) / (splat<v8f>(6.f) - x * t3));
    const v8f e2 = (x * (e - c) - c) - hxs;

    const v8u kExp = bitcast<v8u>(k) << splat<v8u>(23u);
    const v8f fZero = x - (x * e - hxs);
    const v8f fMinusOne = half * (x - e2) - half;
    const v8f fWide = bitcast<v8f>(bitcast<v8u>(one - (e2 - x)) + kExp) - one;
    const v8i mid = (k >= splat<v8i>(2)) & (k <= splat<v8i>(22));
    const v8u shift = bitcast<v8u>(blend(mid, k, splat<v8i>(0)));
    const v8f t1 = bitcast<v8f>(splat<v8u>(0x3f800000u) -
                                (splat<v8u>(0x1000000u) >> shift));
    const v8f fMid = bitcast<v8f>(bitcast<v8u>(t1 - (e2 - x)) + kExp);
    const v8f t2 =
        bitcast<v8f>((splat<v8u>(0x7fu) - bitcast<v8u>(k)) << splat<v8u>(23u));
    const v8f fHigh = bitcast<v8f>(bitcast<v8u>((x - (e2 + t2)) + one) + kExp);

    v8f y = blend(k <= splat<v8i>(22), fMid, fHigh);
    y = blend((k <= splat<v8i>(-2)) | (k > splat<v8i>(56)), fWide, y);
    y = blend(k == splat<v8i>(-1), fMinusOne, y);
    y = blend(k0, fZero, y);
    return blend(ha < splat<v8u>(kExpm1Tiny), a, y);
}

/**
 * scalar::tanhSeq on 8 lanes. Saturated lanes (|x| >= 22, +-inf, nan)
 * feed expm1 a benign 2 and are overwritten. The two quotients,
 * 1 - 2/(t+2) for |x| >= 1 and -t/(t+2) below, share one division with
 * the numerator picked per lane.
 */
__attribute__((always_inline)) inline v8f
tanhLanes(v8f x)
{
    using namespace seq;
    const v8f one = splat<v8f>(1.f), two = splat<v8f>(2.f);
    const v8u jx = bitcast<v8u>(x);
    const v8u ix = jx & splat<v8u>(0x7fffffffu);
    const v8f ax = bitcast<v8f>(ix);
    const v8i big = ix >= splat<v8u>(kTanhOne);
    const v8i sat = ix >= splat<v8u>(kTanhTwentyTwo);
    const v8f a = blend(sat, two, blend(big, ax + ax, splat<v8f>(-2.f) * ax));
    const v8f t = expm1Lanes(a);
    const v8f q = blend(big, two, -t) / (t + two);
    v8f z = blend(sat, one, blend(big, one - q, q));
    z = bitcast<v8f>(bitcast<v8u>(z) ^ (jx & splat<v8u>(0x80000000u)));
    z = blend(ix < splat<v8u>(kTanhTiny), x * (one + x), z);
    return blend(ix > splat<v8u>(0x7f800000u), x + x, z);
}

/** GELU on 8 lanes in the scalar kernel's order; th gets the tanh. */
__attribute__((always_inline)) inline v8f
geluLanes(v8f v, v8f& th)
{
    th = tanhLanes(splat<v8f>(kGeluC) *
                   (v + splat<v8f>(kGeluA) * v * v * v));
    return splat<v8f>(0.5f) * v * (splat<v8f>(1.f) + th);
}

/**
 * One row of register accumulators, W = 16, 12, 8 or 4 output columns:
 * 16 in one 16-lane vector, 12 as 8 + 4, and 8 or 4 in one vector.
 * Members a width does not use are never touched and compile away.
 */
struct TileRow
{
    v16f w;
    v8f lo;
    v4f q;
};

template <int W>
__attribute__((always_inline)) inline TileRow
loadRow(const float* p)
{
    TileRow t{};
    if constexpr (W == 16)
        t.w = load<v16f>(p);
    if constexpr (W == 12 || W == 8)
        t.lo = load<v8f>(p);
    if constexpr (W % 8 == 4)
        t.q = load<v4f>(p + W - 4);
    return t;
}

template <int W>
__attribute__((always_inline)) inline void
storeRow(float* p, const TileRow& t)
{
    if constexpr (W == 16)
        store(p, t.w);
    if constexpr (W == 12 || W == 8)
        store(p, t.lo);
    if constexpr (W % 8 == 4)
        store(p + W - 4, t.q);
}

/** p[0..W) += t, one add per element. */
template <int W>
__attribute__((always_inline)) inline void
addToRow(float* p, const TileRow& t)
{
    if constexpr (W == 16)
        store(p, load<v16f>(p) + t.w);
    if constexpr (W == 12 || W == 8)
        store(p, load<v8f>(p) + t.lo);
    if constexpr (W % 8 == 4)
        store(p + W - 4, load<v4f>(p + W - 4) + t.q);
}

/** acc += xv * y, element-wise: one mul then one add per lane. */
template <int W>
__attribute__((always_inline)) inline void
rank1(TileRow& acc, float xv, const TileRow& y)
{
    if constexpr (W == 16) {
        acc.w += bcast16(xv) * y.w;
    } else {
        const v8f xb = bcast8(xv);
        if constexpr (W == 12 || W == 8)
            acc.lo += xb * y.lo;
        if constexpr (W % 8 == 4)
            acc.q += lo4(xb) * y.q;
    }
}

/**
 * How a tile's per-element chain runs, after the scalar reference:
 *  - Skip (gemmAccum, gemmAccumAt): from C's value, skipping each term
 *    whose X is zero (== 0.0f, so -0.0f too), never multiplying it —
 *    0 * inf would be NaN;
 *  - Dense: the same chain on an X that holds no zero, where the skip
 *    never fires, so the tile takes every term without testing one;
 *  - Local (gemmAccumBt): from 0, every term, added to C once at the
 *    end (`s = 0; ...; out += s`).
 */
enum class Chain { Skip, Dense, Local };

/**
 * The register tile all three GEMM variants reduce to: a sum of rank-1
 * updates over `steps`, into kMR output rows of W columns,
 *
 *     C[r, 0..W) <- C[r, 0..W) + sum_s X[r,s] * Y[s, 0..W),
 *
 * with X[r,s] at x[r*xRow + s*xStep], Y row s at y + s*ldy and C row r
 * at c + r*ldc. The kMR x W accumulators stay in registers for the
 * whole reduction and each Y row is loaded once for all kMR rows.
 *
 * Per output element the float operations are exactly the scalar
 * reference's: terms in ascending s, a separate mul and add each
 * (contraction is off for this file), in the chain C names.
 */
template <int W, Chain C>
__attribute__((always_inline)) inline void
tile(const float* x, size_t xRow, size_t xStep, const float* y, size_t ldy,
     float* c, size_t ldc, int steps)
{
    constexpr bool test = C == Chain::Skip;
    TileRow acc0{}, acc1{}, acc2{}, acc3{};
    if constexpr (C != Chain::Local) {
        acc0 = loadRow<W>(c);
        acc1 = loadRow<W>(c + ldc);
        acc2 = loadRow<W>(c + 2 * ldc);
        acc3 = loadRow<W>(c + 3 * ldc);
    }
    for (int s = 0; s < steps; ++s) {
        const TileRow ys = loadRow<W>(y + size_t(s) * ldy);
        const float* xs = x + size_t(s) * xStep;
        const float x0 = xs[0], x1 = xs[xRow];
        const float x2 = xs[2 * xRow], x3 = xs[3 * xRow];
        if (!test || x0 != 0.f)
            rank1<W>(acc0, x0, ys);
        if (!test || x1 != 0.f)
            rank1<W>(acc1, x1, ys);
        if (!test || x2 != 0.f)
            rank1<W>(acc2, x2, ys);
        if (!test || x3 != 0.f)
            rank1<W>(acc3, x3, ys);
    }
    if constexpr (C != Chain::Local) {
        storeRow<W>(c, acc0);
        storeRow<W>(c + ldc, acc1);
        storeRow<W>(c + 2 * ldc, acc2);
        storeRow<W>(c + 3 * ldc, acc3);
    } else {
        addToRow<W>(c, acc0);
        addToRow<W>(c + ldc, acc1);
        addToRow<W>(c + 2 * ldc, acc2);
        addToRow<W>(c + 3 * ldc, acc3);
    }
}

/**
 * Sweep one kMR-row block across output columns [0, w): 16-wide tiles,
 * then a single 12-, 8- or 4-wide tile for what is left — so the
 * head-dim outputs of attention (P*V, dQ at width 12) run one fused 8+4
 * tile instead of per-element loops. Returns the first column not
 * covered (w rounded down to a multiple of 4).
 */
template <Chain C>
__attribute__((always_inline)) inline int
tileColumns(const float* x, size_t xRow, size_t xStep, const float* y,
            size_t ldy, float* c, size_t ldc, int steps, int w)
{
    int j = 0;
    for (; j + 16 <= w; j += 16)
        tile<16, C>(x, xRow, xStep, y + j, ldy, c + j, ldc, steps);
    const int rest = w - j;
    if (rest >= 12) {
        tile<12, C>(x, xRow, xStep, y + j, ldy, c + j, ldc, steps);
        j += 12;
    } else if (rest >= 8) {
        tile<8, C>(x, xRow, xStep, y + j, ldy, c + j, ldc, steps);
        j += 8;
    } else if (rest >= 4) {
        tile<4, C>(x, xRow, xStep, y + j, ldy, c + j, ldc, steps);
        j += 4;
    }
    return j;
}

/**
 * Whether any of x[0, count) meets the skip predicate, x == 0.0f (so
 * -0.0f too). gemmAccum and gemmAccumAt scan their multiplier once per
 * call: on an operand that holds no zero they run Dense tiles, which
 * drop the per-term test (and its branch) the Skip tiles pay.
 */
__attribute__((always_inline)) inline bool
anyZero(const float* x, size_t count)
{
    v16i hit{};
    size_t i = 0;
    for (; i + 16 <= count; i += 16)
        hit |= load<v16f>(x + i) == splat<v16f>(0.f);
    bool any = false;
    for (int l = 0; l < 16; ++l)
        any |= hit[l] != 0;
    for (; i < count; ++i)
        any |= x[i] == 0.f;
    return any;
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

/** gemmAccum's tiles in chain C (Skip or Dense); edges stay scalar. */
template <Chain C>
__attribute__((always_inline)) inline void
gemmAccumTiles(const float* a, const float* b, float* c, int m, int k,
               int n)
{
    // Tiles of C: X = A (rows i..i+3, stepping along k), Y = B's rows.
    int i = 0;
    for (; i + kMR <= m; i += kMR) {
        const int j = tileColumns<C>(a + size_t(i) * k, size_t(k), 1, b,
                                     size_t(n), c + size_t(i) * n,
                                     size_t(n), k, n);
        if (j < n)
            gemmAccumEdge(a, b, c, i, i + kMR, j, k, n);
    }
    if (i < m)
        scalar::gemmAccum(a + size_t(i) * k, b, c + size_t(i) * n, m - i,
                          k, n);
}

/** gemmAccumAt's tiles in chain C (Skip or Dense); edges stay scalar. */
template <Chain C>
__attribute__((always_inline)) inline void
gemmAccumAtTiles(const float* a, const float* dc, float* out, int m, int k,
                 int n)
{
    // Tiles of out: X = A^T (out rows p..p+3 are A's columns, stepping
    // down A's rows, so i stays outermost per element), Y = dC's rows.
    int p = 0;
    for (; p + kMR <= k; p += kMR) {
        const int j = tileColumns<C>(a + p, 1, size_t(k), dc, size_t(n),
                                     out + size_t(p) * n, size_t(n), m, n);
        if (j < n)
            gemmAccumAtEdge(a, dc, out, m, p, p + kMR, j, k, n);
    }
    if (p < k)
        gemmAccumAtEdge(a, dc, out, m, p, k, 0, k, n);
}

} // namespace

LLM_KERNEL_CLONES void
gemmAccum(const float* a, const float* b, float* c, int m, int k, int n)
{
    if (anyZero(a, size_t(m) * k))
        gemmAccumTiles<Chain::Skip>(a, b, c, m, k, n);
    else
        gemmAccumTiles<Chain::Dense>(a, b, c, m, k, n);
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
    // accumulate (the tile's Local chain). Small m can't amortize the
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
        int p = tileColumns<Chain::Local>(d, size_t(n), 1, bt, size_t(k), o,
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
    if (anyZero(a, size_t(m) * k))
        gemmAccumAtTiles<Chain::Skip>(a, dc, out, m, k, n);
    else
        gemmAccumAtTiles<Chain::Dense>(a, dc, out, m, k, n);
}

namespace {

/**
 * std::max per lane: b where a < b, else a. The select lowers to maxps,
 * where the and/or blend form costs a compare and a blend.
 */
__attribute__((always_inline)) inline v8f
max8(v8f a, v8f b)
{
    return a < b ? b : a;
}

/**
 * The row's max. Rows of 32 or more scan with four 8-lane accumulators,
 * 32 elements a step, then 8 a step; the lanes reduce to one float and
 * the scalar loop finishes the last n % 8. Shorter rows take the scalar
 * loop throughout. This is not the scalar kernel's order, and it need
 * not be: on finite inputs max does not depend on order except for the
 * sign of a zero max, and x - (+0) and x - (-0) differ only in the sign
 * of a zero, which exp maps to the same 1.
 */
__attribute__((always_inline)) inline float
rowMax(const float* __restrict in, int n)
{
    float mx = in[0];
    int j = 1;
    if (n >= 32) {
        v8f m0 = load<v8f>(in), m1 = load<v8f>(in + 8);
        v8f m2 = load<v8f>(in + 16), m3 = load<v8f>(in + 24);
        for (j = 32; j + 32 <= n; j += 32) {
            m0 = max8(m0, load<v8f>(in + j));
            m1 = max8(m1, load<v8f>(in + j + 8));
            m2 = max8(m2, load<v8f>(in + j + 16));
            m3 = max8(m3, load<v8f>(in + j + 24));
        }
        for (; j + 8 <= n; j += 8)
            m0 = max8(m0, load<v8f>(in + j));
        m0 = max8(max8(m0, m1), max8(m2, m3));
        mx = m0[0];
        for (int l = 1; l < 8; ++l)
            mx = std::max(mx, m0[l]);
    }
    for (; j < n; ++j)
        mx = std::max(mx, in[j]);
    return mx;
}

/**
 * out[j] = exp(in[j] - mx) for j in [0, n), 8 lanes at a time; the last
 * n % 8 elements run as one group of lanes padded with zeros.
 */
__attribute__((always_inline)) inline void
expShifted(const float* __restrict in, float mx, float* __restrict out,
           int n)
{
    const v8f m = bcast8(mx);
    int j = 0;
    for (; j + 8 <= n; j += 8)
        store(out + j, expLanes(load<v8f>(in + j) - m));
    if (j < n) {
        float buf[8] = {};
        std::memcpy(buf, in + j, size_t(n - j) * sizeof(float));
        store(buf, expLanes(load<v8f>(buf) - m));
        std::memcpy(out + j, buf, size_t(n - j) * sizeof(float));
    }
}

__attribute__((always_inline)) inline void
normalize(float* __restrict out, float sum, int n)
{
    const float inv = 1.f / sum;
    for (int j = 0; j < n; ++j)
        out[j] *= inv;
}

} // namespace

LLM_KERNEL_CLONES void
exp8(const float* x, float* y)
{
    store(y, expLanes(load<v8f>(x)));
}

LLM_KERNEL_CLONES void
tanh8(const float* x, float* y)
{
    store(y, tanhLanes(load<v8f>(x)));
}

LLM_KERNEL_CLONES void
softmaxRows(const float* x, float* y, int m, int n)
{
    // Per row: max scan and exp lanes, then the j-ascending sum of exps
    // and the normalize step. Each row's sum is one dependent add chain;
    // four rows' chains advance in the same loop so they overlap in the
    // adder, each still strictly j-ascending.
    for (int i = 0; i < m; ++i) {
        const float* row = x + size_t(i) * n;
        expShifted(row, rowMax(row, n), y + size_t(i) * n, n);
    }
    int i = 0;
    for (; i + 4 <= m; i += 4) {
        float* o0 = y + size_t(i) * n;
        float* o1 = o0 + n;
        float* o2 = o1 + n;
        float* o3 = o2 + n;
        float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
        for (int j = 0; j < n; ++j) {
            s0 += o0[j];
            s1 += o1[j];
            s2 += o2[j];
            s3 += o3[j];
        }
        normalize(o0, s0, n);
        normalize(o1, s1, n);
        normalize(o2, s2, n);
        normalize(o3, s3, n);
    }
    for (; i < m; ++i) {
        float* out = y + size_t(i) * n;
        float sum = 0.f;
        for (int j = 0; j < n; ++j)
            sum += out[j];
        normalize(out, sum, n);
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

LLM_KERNEL_CLONES void
geluForward(const float* x, float* y, float* t, std::size_t n)
{
    // 8 lanes at a time; the last n % 8 elements run as one group of
    // lanes padded with zeros.
    std::size_t i = 0;
    v8f th;
    for (; i + 8 <= n; i += 8) {
        store(y + i, geluLanes(load<v8f>(x + i), th));
        if (t)
            store(t + i, th);
    }
    if (i < n) {
        const size_t rest = (n - i) * sizeof(float);
        float buf[8] = {};
        std::memcpy(buf, x + i, rest);
        store(buf, geluLanes(load<v8f>(buf), th));
        std::memcpy(y + i, buf, rest);
        if (t) {
            store(buf, th);
            std::memcpy(t + i, buf, rest);
        }
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
