#ifndef LLMULATOR_NN_TRANSCENDENTALS_H
#define LLMULATOR_NN_TRANSCENDENTALS_H

/**
 * @file
 * Kernel-private: the constants of the two transcendental operation
 * sequences the backends own — softmax's `exp` and GELU's `tanh`.
 * Included only by kernels_scalar.cc and kernels_vector.cc.
 *
 * Both sequences are fixed float/double operation sequences copied from
 * glibc (x86-64 glibc 2.36 libm.so.6), not approximations of our own:
 *
 *  - exp is glibc's `expf` (sysdeps/ieee754/flt-32/e_expf.c, the
 *    `__expf_fma` variant the x86-64 ifunc selects on FMA+AVX2 CPUs): a
 *    double-precision reduction x*32/ln2 = k + r, a 32-entry table for
 *    2^(k/32) and a cubic in r. Its five fused multiply-adds are part of
 *    the sequence: with separate mul and add it differs from libm on two
 *    float inputs, one of them (-0x1.f8cbb2p+5) inside softmax's domain.
 *  - tanh is fdlibm's `tanhf` over fdlibm's `expm1f` (s_tanhf.c,
 *    s_expm1f.c), all in float and with no fused operation.
 *
 * scalar::expSeq/tanhSeq evaluate them one element at a time and
 * vec::exp8/tanh8 eight lanes at a time (declared in kernels.h), so the
 * backends agree bit for bit by construction. On a host whose libm is
 * that glibc they also equal std::exp/std::tanh on every float input;
 * bench/bench_nn_transcendentals.cc counts the inputs where they do not.
 */

#include <cstdint>

namespace llmulator {
namespace nn {
namespace kernels {
namespace seq {

// ---- expf (e_expf.c, EXP2F_TABLE_BITS = 5) --------------------------

/**
 * Bit patterns of the correctly rounded 2^(i/32) minus i << 47: adding
 * k << 47 for k = 32*e + i puts e into the exponent field.
 */
inline constexpr std::uint64_t kExpTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

inline constexpr double kExpInvLn2N = 0x1.71547652b82fep+5; //!< 32/ln2
inline constexpr double kExpShift = 0x1.8p+52; //!< round-to-int shifter
inline constexpr double kExpC0 = 0x1.c6af84b912394p-20;
inline constexpr double kExpC1 = 0x1.ebfce50fac4f3p-13;
inline constexpr double kExpC2 = 0x1.62e42ff0c52d6p-6;

/** x above this overflows: +inf. */
inline constexpr float kExpOverflow = 0x1.62e42ep6f;
/** x below this (and -inf) underflows to +0. */
inline constexpr float kExpUnderflow = -0x1.9fe368p6f;
/** x below this (and not below kExpUnderflow) gives 0x1p-149f. */
inline constexpr float kExpMayUnderflow = -0x1.9d1d9ep6f;

// ---- tanhf / expm1f (fdlibm s_tanhf.c, s_expm1f.c) -------------------

inline constexpr float kLn2Hi = 0x1.62e3p-1f;     // 6.9313812256e-01
inline constexpr float kLn2Lo = 0x1.2fefa2p-17f;  // 9.0580006145e-06
inline constexpr float kInvLn2 = 0x1.715476p+0f;  // 1.4426950216e+00
inline constexpr float kQ1 = -0x1.111112p-5f;     // -3.3333335072e-02
inline constexpr float kQ2 = 0x1.a01a02p-10f;     // 1.5873016091e-03
inline constexpr float kQ3 = -0x1.4ce19ap-14f;    // -7.9365076090e-05
inline constexpr float kQ4 = 0x1.0cfca8p-18f;     // 4.0082177293e-06
inline constexpr float kQ5 = -0x1.afdb76p-23f;    // -2.0109921195e-07

/** |x| bit patterns of tanhf's bands. */
inline constexpr std::uint32_t kTanhOne = 0x3f800000;   //!< 1.0
inline constexpr std::uint32_t kTanhTwentyTwo = 0x41b00000; //!< 22.0
inline constexpr std::uint32_t kTanhTiny = 0x24000000;  //!< 2^-55

/** |x| bit patterns of expm1f's argument-reduction bands. */
inline constexpr std::uint32_t kExpm1Tiny = 0x33000000;    //!< 2^-25
inline constexpr std::uint32_t kExpm1HalfLn2 = 0x3eb17218; //!< 0.5*ln2
inline constexpr std::uint32_t kExpm1ThreeHalfLn2 = 0x3f851592; //!< 1.5*ln2

} // namespace seq
} // namespace kernels
} // namespace nn
} // namespace llmulator

#endif // LLMULATOR_NN_TRANSCENDENTALS_H
