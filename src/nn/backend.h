#ifndef LLMULATOR_NN_BACKEND_H
#define LLMULATOR_NN_BACKEND_H

/**
 * @file
 * Pluggable compute backend for the nn hot kernels.
 *
 * Every op in ops.h bottoms out in a small set of raw float kernels —
 * three GEMM variants plus a handful of row-wise/elementwise primitives.
 * A Backend is a dispatch table owning those kernels, so a faster
 * implementation can be swapped in under the whole stack (serving,
 * trainer minibatches, all four learned models) without
 * touching the autograd layer.
 *
 * Two implementations ship:
 *  - "scalar": the original naive loops, bit-for-bit preserved. The
 *    reference.
 *  - "vector": register-blocked, cache-tiled, SIMD-friendly kernels.
 *
 * ## Bit-identity contract
 *
 * On finite inputs, every backend MUST produce bit-identical results to
 * the scalar reference, for values and for gradients. The rule that
 * makes this possible: the per-output-element floating-point operation
 * sequence is FIXED — k-accumulation (and any other reduction) visits
 * terms in the same order as the scalar loops, and vectorization only
 * happens across independent output elements (columns/rows), never by
 * reordering a reduction. The one exception is softmax's row max, which
 * a backend may scan in any order: on finite inputs max does not depend
 * on order except for the sign of a zero max, and x - (+0) and x - (-0)
 * differ only in the sign of a zero, which exp maps to the same 1, so
 * every softmax output keeps its bits. (With a NaN in a row, the max can
 * differ; NaN rows are outside the finite-input contract below.)
 *
 * Because backends are interchangeable bit for bit, backend choice is
 * deliberately NOT hashed into model-cache or trainer cache keys, and
 * never needs to be: a model trained under one backend is byte-identical
 * to one trained under the other (tests/test_nn_backend.cc pins all of
 * this).
 *
 * FP contraction is off in the kernel translation units, so no mul+add
 * is ever fused behind the code's back. The transcendentals are not libm
 * calls: softmax's exp and GELU's tanh are fixed operation sequences
 * copied from glibc (expf, and fdlibm's tanhf over expm1f; see
 * src/nn/transcendentals.h), which both backends evaluate — per element
 * in scalar, 8 lanes at a time in vector. The exp sequence's fused
 * multiply-adds are explicit fma steps of the sequence, in both
 * backends. Results therefore do not depend on the host's libm either:
 * on glibc 2.36 they equal std::exp/std::tanh on every float input, and
 * elsewhere trained bits are still those of that glibc.
 *
 * ## Finite-input contract
 *
 * The GEMM kernels skip zero multiplier elements (`a == 0.0f`, which is
 * also true for -0.0f) without touching the accumulator. For finite
 * inputs this at most flips the sign of a zero accumulator relative to
 * a skip-free IEEE evaluation — it never changes a nonzero result — but
 * for non-finite inputs it suppresses `0 * inf = NaN` propagation.
 * Callers must therefore keep kernel inputs finite; both backends share
 * the same skip predicate, so they agree with EACH OTHER bitwise even
 * on -0.0f / non-finite inputs, and the contract only delimits what the
 * kernels mean relative to unskipped IEEE arithmetic.
 *
 * ## Selection
 *
 * Runtime: setBackend()/setBackendByName(), or the environment knob
 * LLMULATOR_NN_BACKEND=scalar|vector|auto read on first use. "auto"
 * (default when the variable is unset or empty) resolves to the vector
 * backend. Switching is thread-safe (an atomic pointer swap); in-flight
 * graphs keep working because backends are bit-identical anyway.
 */

#include <cstddef>
#include <string>

namespace llmulator {
namespace nn {

/**
 * Dispatch table of raw hot kernels. All pointers are non-null in a
 * registered backend. Matrices are dense row-major float32.
 */
struct Backend
{
    /** Stable identifier: "scalar" or "vector". */
    const char* name;

    /**
     * C[m,n] += A[m,k] * B[k,n]. Per output element the k-accumulation
     * runs in ascending p order, skipping p where A[i,p] == 0.0f.
     */
    void (*gemmAccum)(const float* a, const float* b, float* c, int m,
                      int k, int n);

    /**
     * dA[m,k] += dC[m,n] * B[k,n]^T, i.e. dA[i,p] += sum_j dC[i,j] *
     * B[p,j]. The j-reduction accumulates into a local zero-initialized
     * scalar in ascending j order, then adds once into dA[i,p].
     */
    void (*gemmAccumBt)(const float* dc, const float* b, float* out,
                        int m, int k, int n);

    /**
     * dB[k,n] += A[m,k]^T * dC[m,n], i.e. dB[p,j] += sum_i A[i,p] *
     * dC[i,j]. Per output element the i-accumulation runs in ascending
     * i order, skipping i where A[i,p] == 0.0f.
     */
    void (*gemmAccumAt)(const float* a, const float* dc, float* out,
                        int m, int k, int n);

    /**
     * Row-wise softmax, y[i,:] = softmax(x[i,:]): per row, subtract the
     * row max, exponentiate with the owned expf sequence
     * (kernels::scalar::expSeq), normalize by the ascending-j sum of
     * exps.
     */
    void (*softmaxRows)(const float* x, float* y, int m, int n);

    /**
     * Fused row-wise layer norm forward. Writes the output y[m,n], the
     * normalized activations xhat[m,n] and per-row 1/stddev invstd[m]
     * (both consumed by the backward pass). Mean/variance accumulate in
     * ascending j order.
     */
    void (*layerNormRows)(const float* x, const float* gamma,
                          const float* beta, float eps, float* y,
                          float* xhat, float* invstd, int m, int n);

    /**
     * GELU forward (tanh approximation), y[i] = gelu(x[i]), with tanh
     * the owned fdlibm tanhf sequence (kernels::scalar::tanhSeq). When t
     * is non-null it also receives the tanh value each y[i] was built
     * from, which the backward pass reuses instead of recomputing.
     */
    void (*geluForward)(const float* x, float* y, float* t, std::size_t n);

    /** y[i] = a[i] + b[i]. */
    void (*addElem)(const float* a, const float* b, float* y,
                    std::size_t n);

    /** y[i] = a[i] - b[i]. */
    void (*subElem)(const float* a, const float* b, float* y,
                    std::size_t n);

    /** y[i] = a[i] * b[i]. */
    void (*mulElem)(const float* a, const float* b, float* y,
                    std::size_t n);

    /** y[i] += alpha * x[i]. */
    void (*axpy)(float alpha, const float* x, float* y, std::size_t n);

    /** y[i] = x[i] * alpha. */
    void (*scaleElem)(float alpha, const float* x, float* y,
                      std::size_t n);
};

/** The naive reference backend (the historical ops.cc loops). */
const Backend& scalarBackend();

/** The register-blocked, SIMD-friendly backend. */
const Backend& vectorBackend();

/**
 * The active backend. First use resolves $LLMULATOR_NN_BACKEND
 * (scalar|vector|auto; unset/empty means auto, and auto means vector).
 * An unrecognized value aborts rather than silently selecting a
 * default.
 */
const Backend& backend();

/** Install a backend (thread-safe atomic swap). */
void setBackend(const Backend& b);

/**
 * Install a backend by name: "scalar", "vector", or "auto" (empty
 * string is treated as auto). Returns false — leaving the active
 * backend unchanged — for any other name.
 */
bool setBackendByName(const std::string& name);

} // namespace nn
} // namespace llmulator

#endif // LLMULATOR_NN_BACKEND_H
