#ifndef GRAPHAUG_TENSOR_NORMAL_FILL_CONSTANTS_H_
#define GRAPHAUG_TENSOR_NORMAL_FILL_CONSTANTS_H_

#include <cstdint>

/// Constants shared by the scalar and AVX2 `normal_fill` kernels. Both
/// tables must evaluate the same operations on the same constants in the
/// same order to stay bitwise identical, so the constants live here and
/// nowhere else. Data only: no inline functions, which would be compiled
/// once with -mavx2 and once without and could be merged by the linker.
///
/// Layout: element i of a key's stream belongs to group g = i / 32. Group
/// g runs Philox-4x32-10 on the eight counters q = 8g + t (t = 0..7) and
/// turns each block's words (w0, w1) and (w2, w3) into one Box–Muller
/// pair each:
///   out[32g + t]      = cos sample of (w0, w1)
///   out[32g + 8 + t]  = sin sample of (w0, w1)
///   out[32g + 16 + t] = cos sample of (w2, w3)
///   out[32g + 24 + t] = sin sample of (w2, w3)
/// so a group is four 8-lane vectors with no shuffles.
namespace graphaug::simd::normal {

inline constexpr int64_t kGroup = 32;  ///< elements per group
inline constexpr int kBlocks = 8;      ///< Philox blocks per group

// Philox-4x32 (Salmon et al., SC'11): multipliers and Weyl key bumps.
inline constexpr uint32_t kPhiloxM0 = 0xD2511F53u;
inline constexpr uint32_t kPhiloxM1 = 0xCD9E8D57u;
inline constexpr uint32_t kPhiloxW0 = 0x9E3779B9u;
inline constexpr uint32_t kPhiloxW1 = 0xBB67AE85u;
inline constexpr int kPhiloxRounds = 10;

/// Radius uniform u1 = (2^24 - (w >> 8)) * 2^-24, in [2^-24, 1] and
/// exact in float, so log(u1) is finite.
inline constexpr int32_t kTwo24 = 1 << 24;
inline constexpr float kInvTwo24 = 0x1p-24f;

// Cephes logf: mantissa reduced to [sqrt(1/2), sqrt(2)), degree-8
// polynomial, ln 2 split into hi + lo parts.
inline constexpr float kSqrtHalf = 0.707106781186547524f;
inline constexpr float kLogP[9] = {
    7.0376836292e-2f,  -1.1514610310e-1f, 1.1676998740e-1f,
    -1.2420140846e-1f, 1.4249322787e-1f,  -1.6668057665e-1f,
    2.0000714765e-1f,  -2.4999993993e-1f, 3.3333331174e-1f};
inline constexpr float kLn2Hi = 0.693359375f;
inline constexpr float kLn2Lo = -2.12194440e-4f;

/// Angle: the 24-bit fraction of a turn splits into the nearest quadrant
/// Q = (m + 2^21) >> 22 and a signed residual r = m - Q * 2^22 in
/// [-2^21, 2^21); x = r * 2pi / 2^24 lies in [-pi/4, pi/4).
inline constexpr int32_t kQuadrantHalf = 1 << 21;
inline constexpr int kQuadrantShift = 22;
inline constexpr float kAngleStep = 3.14159265358979323846f * 0x1p-23f;

// Cephes sinf / cosf minimax polynomials on [-pi/4, pi/4].
inline constexpr float kSinP[3] = {-1.9515295891e-4f, 8.3321608736e-3f,
                                   -1.6666654611e-1f};
inline constexpr float kCosP[3] = {2.443315711809948e-5f,
                                   -1.388731625493765e-3f,
                                   4.166664568298827e-2f};

}  // namespace graphaug::simd::normal

#endif  // GRAPHAUG_TENSOR_NORMAL_FILL_CONSTANTS_H_
