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

namespace llmulator {
namespace nn {
namespace kernels {

/** GELU tanh-approximation constants, shared by forward and backward. */
inline constexpr float kGeluC = 0.7978845608028654f; // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

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
