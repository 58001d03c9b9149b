#ifndef LLMULATOR_NN_KERNELS_H
#define LLMULATOR_NN_KERNELS_H

/**
 * @file
 * Internal declarations of the raw kernel implementations behind the
 * two registered nn::Backend tables (backend.h has the public API and
 * the bit-identity / finite-input contracts). One namespace per
 * backend; kernels_scalar.cc and kernels_vector.cc define them.
 *
 * Both translation units are compiled with -ffp-contract=off (see
 * src/nn/CMakeLists.txt): a fused multiply-add rounds once where
 * mul+add rounds twice, so letting the compiler contract one backend
 * but not the other — or one target clone but not another — would
 * silently break the bitwise contract. With contraction pinned off,
 * every per-element operation sequence is plain IEEE mul/add in both
 * backends on every architecture. The one exception is explicit: the
 * exp sequence (transcendentals.h) calls fma at five fixed steps, in
 * both backends, because glibc's expf does.
 *
 * The exp and tanh sequences are exposed raw (expSeq/tanhSeq per
 * element, exp8/tanh8 per 8 lanes) so tests can pin them directly. The
 * scalar softmax and GELU kernels call expSeq/tanhSeq; the vector ones
 * inline the same lane functions exp8/tanh8 wrap.
 */

#include <cstddef>

#include "nn/backend.h"

namespace llmulator {
namespace nn {
namespace kernels {

/** GELU tanh-approximation constants, shared by forward and backward. */
inline constexpr float kGeluC = 0.7978845608028654f; // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

/** A gemmAccum kernel, as attentionComposite runs it. */
using GemmFn = void (*)(const float* a, const float* b, float* c, int m,
                        int k, int n);
/** A softmaxRows kernel, as attentionComposite runs it. */
using SoftmaxFn = void (*)(const float* x, float* y, int m, int n);

/**
 * Backend::attentionRows as the per-op graph computes it, on one
 * backend's kernels: scores by `gemm` into zeros, x 1/sqrt(hd), + mask,
 * `softmax`, then P v by `gemm` into zeros. The scalar entry is this on
 * the scalar kernels; the vector entry runs it on the vector kernels
 * for the head widths it does not fuse.
 */
void attentionComposite(GemmFn gemm, SoftmaxFn softmax, const float* q,
                        const float* kt, const float* v, const float* mask,
                        int rb, int n, int hd, float* scratch, float* probs,
                        float* out);

namespace scalar {

/** glibc's expf as a fixed sequence: bitwise std::exp on glibc 2.36. */
float expSeq(float x);
/** fdlibm's tanhf as a fixed sequence: bitwise std::tanh on glibc 2.36. */
float tanhSeq(float x);

void gemmAccum(const float* a, const float* b, float* c, int m, int k,
               int n);
void gemmAccumBt(const float* dc, const float* b, float* out, int m,
                 int k, int n);
void gemmAccumAt(const float* a, const float* dc, float* out, int m,
                 int k, int n);
void softmaxRows(const float* x, float* y, int m, int n);
void attentionRows(const float* q, const float* kt, const float* v,
                   const float* mask, int rb, int n, int hd, float* scratch,
                   float* probs, float* out);
void layerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, float* y, float* xhat, float* invstd,
                   int m, int n);
void geluForward(const float* x, float* y, float* t, std::size_t n);
void addElem(const float* a, const float* b, float* y, std::size_t n);
void subElem(const float* a, const float* b, float* y, std::size_t n);
void mulElem(const float* a, const float* b, float* y, std::size_t n);
void axpy(float alpha, const float* x, float* y, std::size_t n);
void scaleElem(float alpha, const float* x, float* y, std::size_t n);

} // namespace scalar

namespace vec {

/** y[l] = scalar::expSeq(x[l]) for the 8 lanes l = 0..7. */
void exp8(const float* x, float* y);
/** y[l] = scalar::tanhSeq(x[l]) for the 8 lanes l = 0..7. */
void tanh8(const float* x, float* y);

void gemmAccum(const float* a, const float* b, float* c, int m, int k,
               int n);
void gemmAccumBt(const float* dc, const float* b, float* out, int m,
                 int k, int n);
void gemmAccumAt(const float* a, const float* dc, float* out, int m,
                 int k, int n);
void softmaxRows(const float* x, float* y, int m, int n);
void attentionRows(const float* q, const float* kt, const float* v,
                   const float* mask, int rb, int n, int hd, float* scratch,
                   float* probs, float* out);
void layerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, float* y, float* xhat, float* invstd,
                   int m, int n);
void geluForward(const float* x, float* y, float* t, std::size_t n);
void addElem(const float* a, const float* b, float* y, std::size_t n);
void subElem(const float* a, const float* b, float* y, std::size_t n);
void mulElem(const float* a, const float* b, float* y, std::size_t n);
void axpy(float alpha, const float* x, float* y, std::size_t n);
void scaleElem(float alpha, const float* x, float* y, std::size_t n);

} // namespace vec

} // namespace kernels
} // namespace nn
} // namespace llmulator

#endif // LLMULATOR_NN_KERNELS_H
