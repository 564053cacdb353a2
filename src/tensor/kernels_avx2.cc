// AVX2 kernel table. This translation unit is the only one compiled with
// -mavx2 (see src/tensor/CMakeLists.txt), so vector instructions cannot
// leak into portable code; the dispatch layer calls in only after the
// cpuid probe confirms support. -ffp-contract=off is forced for this file
// and no FMA intrinsics are used: gemm_micro and spmm_segment must round
// every multiply and add separately, in ascending-k order per output
// element, to stay bitwise identical to the scalar table (DESIGN.md §9).
// Reductions and the vector exp pin their own lane-split orders instead —
// deterministic per table, not bitwise equal to scalar.

#include "tensor/kernel_dispatch.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "tensor/normal_fill_constants.h"

namespace graphaug::simd {
namespace {

/// All-ones in lanes [0, len), zero above — the tail mask for maskload /
/// maskstore. len is clamped to [0, 8].
inline __m256i TailMask(int64_t len) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(len)), lane);
}

// ---------------------------------------------------------------- GEMM

/// Full-width microkernel: MR x 16 accumulator tile (2 ymm per row).
/// Per output element the update sequence is load-C, then for each p:
/// acc = acc + a*b (separate roundings) — exactly the scalar table's
/// order, so the result is bitwise identical.
template <int MR>
void MicroFull(int64_t kc, const float* ap, const float* bp, float* c,
               int64_t ldc) {
  __m256 acc0[MR], acc1[MR];
  for (int ii = 0; ii < MR; ++ii) {
    acc0[ii] = _mm256_loadu_ps(c + ii * ldc);
    acc1[ii] = _mm256_loadu_ps(c + ii * ldc + 8);
  }
  for (int64_t p = 0; p < kc; ++p, ap += MR, bp += kGemmNR) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    for (int ii = 0; ii < MR; ++ii) {
      const __m256 av = _mm256_broadcast_ss(ap + ii);
      acc0[ii] = _mm256_add_ps(acc0[ii], _mm256_mul_ps(av, b0));
      acc1[ii] = _mm256_add_ps(acc1[ii], _mm256_mul_ps(av, b1));
    }
  }
  for (int ii = 0; ii < MR; ++ii) {
    _mm256_storeu_ps(c + ii * ldc, acc0[ii]);
    _mm256_storeu_ps(c + ii * ldc + 8, acc1[ii]);
  }
}

/// Edge-column microkernel (nr < 16). Masked C loads return zero in dead
/// lanes and the B panel is zero-padded past nr, so dead lanes compute
/// 0 + a*0 and are discarded by the masked store.
template <int MR>
void MicroMasked(int64_t kc, const float* ap, const float* bp, float* c,
                 int64_t ldc, int nr) {
  const __m256i m0 = TailMask(nr);
  const __m256i m1 = TailMask(nr - 8);
  __m256 acc0[MR], acc1[MR];
  for (int ii = 0; ii < MR; ++ii) {
    acc0[ii] = _mm256_maskload_ps(c + ii * ldc, m0);
    acc1[ii] = _mm256_maskload_ps(c + ii * ldc + 8, m1);
  }
  for (int64_t p = 0; p < kc; ++p, ap += MR, bp += kGemmNR) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    for (int ii = 0; ii < MR; ++ii) {
      const __m256 av = _mm256_broadcast_ss(ap + ii);
      acc0[ii] = _mm256_add_ps(acc0[ii], _mm256_mul_ps(av, b0));
      acc1[ii] = _mm256_add_ps(acc1[ii], _mm256_mul_ps(av, b1));
    }
  }
  for (int ii = 0; ii < MR; ++ii) {
    _mm256_maskstore_ps(c + ii * ldc, m0, acc0[ii]);
    _mm256_maskstore_ps(c + ii * ldc + 8, m1, acc1[ii]);
  }
}

void GemmMicroAvx2(int64_t kc, const float* ap, const float* bp, float* c,
                   int64_t ldc, int mr, int nr) {
  if (nr == kGemmNR) {
    switch (mr) {
      case 6: MicroFull<6>(kc, ap, bp, c, ldc); return;
      case 5: MicroFull<5>(kc, ap, bp, c, ldc); return;
      case 4: MicroFull<4>(kc, ap, bp, c, ldc); return;
      case 3: MicroFull<3>(kc, ap, bp, c, ldc); return;
      case 2: MicroFull<2>(kc, ap, bp, c, ldc); return;
      default: MicroFull<1>(kc, ap, bp, c, ldc); return;
    }
  }
  switch (mr) {
    case 6: MicroMasked<6>(kc, ap, bp, c, ldc, nr); return;
    case 5: MicroMasked<5>(kc, ap, bp, c, ldc, nr); return;
    case 4: MicroMasked<4>(kc, ap, bp, c, ldc, nr); return;
    case 3: MicroMasked<3>(kc, ap, bp, c, ldc, nr); return;
    case 2: MicroMasked<2>(kc, ap, bp, c, ldc, nr); return;
    default: MicroMasked<1>(kc, ap, bp, c, ldc, nr); return;
  }
}

// ---------------------------------------------------------------- SpMM

/// Gathered axpy segment with the output row held in registers. The
/// column blocks only retile the j dimension; each out element still
/// accumulates e = 0..count-1 ascending with mul-then-add, bitwise equal
/// to the scalar segment.
void SpmmSegmentAvx2(const float* vals, const int32_t* idx, int64_t count,
                     const float* dense, int64_t d, float* out_row) {
  int64_t c0 = 0;
  for (; c0 + 32 <= d; c0 += 32) {  // 4-ymm register block
    __m256 a0 = _mm256_loadu_ps(out_row + c0);
    __m256 a1 = _mm256_loadu_ps(out_row + c0 + 8);
    __m256 a2 = _mm256_loadu_ps(out_row + c0 + 16);
    __m256 a3 = _mm256_loadu_ps(out_row + c0 + 24);
    for (int64_t e = 0; e < count; ++e) {
      const __m256 v = _mm256_broadcast_ss(vals + e);
      const float* drow = dense + static_cast<int64_t>(idx[e]) * d + c0;
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(v, _mm256_loadu_ps(drow)));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(v, _mm256_loadu_ps(drow + 8)));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(v, _mm256_loadu_ps(drow + 16)));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(v, _mm256_loadu_ps(drow + 24)));
    }
    _mm256_storeu_ps(out_row + c0, a0);
    _mm256_storeu_ps(out_row + c0 + 8, a1);
    _mm256_storeu_ps(out_row + c0 + 16, a2);
    _mm256_storeu_ps(out_row + c0 + 24, a3);
  }
  for (; c0 + 8 <= d; c0 += 8) {
    __m256 a0 = _mm256_loadu_ps(out_row + c0);
    for (int64_t e = 0; e < count; ++e) {
      const __m256 v = _mm256_broadcast_ss(vals + e);
      const float* drow = dense + static_cast<int64_t>(idx[e]) * d + c0;
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(v, _mm256_loadu_ps(drow)));
    }
    _mm256_storeu_ps(out_row + c0, a0);
  }
  if (c0 < d) {
    const __m256i m = TailMask(d - c0);
    __m256 a0 = _mm256_maskload_ps(out_row + c0, m);
    for (int64_t e = 0; e < count; ++e) {
      const __m256 v = _mm256_broadcast_ss(vals + e);
      const float* drow = dense + static_cast<int64_t>(idx[e]) * d + c0;
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(v, _mm256_maskload_ps(drow, m)));
    }
    _mm256_maskstore_ps(out_row + c0, m, a0);
  }
}

// --------------------------------------------------------- elementwise

void AddAvx2(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void SubAvx2(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void MulAvx2(const float* a, const float* b, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void ScaleAvx2(const float* a, float s, float* out, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) out[i] = a[i] * s;
}

void AxpyAvx2(float s, const float* b, float* a, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(
        a + i, _mm256_add_ps(av, _mm256_mul_ps(vs, _mm256_loadu_ps(b + i))));
  }
  for (; i < n; ++i) a[i] += s * b[i];
}

// ---------------------------------------------------------- reductions
// Pinned order for this table: 8 floats per step widened into two 4-lane
// double accumulators (low half into acc0, high half into acc1); the
// remainder is accumulated serially into `tail` and folded in last. The
// horizontal fold is acc0 + acc1, low128 + high128, then lane0 + lane1.

inline double HorizontalSum(__m256d acc0, __m256d acc1, double tail) {
  const __m256d acc = _mm256_add_pd(acc0, acc1);
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, swapped)) + tail;
}

double SumAvx2(const float* a, int64_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(a + i);
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double tail = 0;
  for (; i < n; ++i) tail += a[i];
  return HorizontalSum(acc0, acc1, tail);
}

double SqnormAvx2(const float* a, int64_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(a + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(lo, lo));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(hi, hi));
  }
  double tail = 0;
  for (; i < n; ++i) tail += static_cast<double>(a[i]) * a[i];
  return HorizontalSum(acc0, acc1, tail);
}

double DotAvx2(const float* a, const float* b, int64_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
    const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
    const __m256d blo = _mm256_cvtps_pd(_mm256_castps256_ps128(vb));
    const __m256d bhi = _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(alo, blo));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(ahi, bhi));
  }
  double tail = 0;
  for (; i < n; ++i) tail += static_cast<double>(a[i]) * b[i];
  return HorizontalSum(acc0, acc1, tail);
}

float MaxAbsAvx2(const float* a, int64_t n) {
  // |x| via sign-bit clear; max is order-independent so any fold works.
  const __m256 signmask = _mm256_set1_ps(-0.f);
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_max_ps(acc,
                        _mm256_andnot_ps(signmask, _mm256_loadu_ps(a + i)));
  }
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 m4 = _mm_max_ps(lo, hi);
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
  float m = _mm_cvtss_f32(m4);
  for (; i < n; ++i) m = std::max(m, std::fabs(a[i]));
  return m;
}

float RowMaxAvx2(const float* a, int64_t n) {
  if (n < 8) {
    float mx = a[0];
    for (int64_t i = 1; i < n; ++i) mx = std::max(mx, a[i]);
    return mx;
  }
  __m256 acc = _mm256_loadu_ps(a);
  int64_t i = 8;
  for (; i + 8 <= n; i += 8) acc = _mm256_max_ps(acc, _mm256_loadu_ps(a + i));
  // Overlapping (already-covered) final block keeps the tail branch-free.
  if (i < n) acc = _mm256_max_ps(acc, _mm256_loadu_ps(a + n - 8));
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  __m128 m4 = _mm_max_ps(lo, hi);
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
  return _mm_cvtss_f32(m4);
}

// ----------------------------------------------------------- vector exp
// Cephes-style expf for 8 lanes: n = round(x/ln2), r = x - n*ln2 in two
// steps, degree-5 polynomial on r, scale by 2^n through the exponent
// bits. ~1 ulp relative accuracy (asserted in tests/simd_test.cc). Not
// bitwise equal to std::exp — the exp_* entries are per-table primitives.

inline __m256 Exp8(__m256 x) {
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 ln2_hi = _mm256_set1_ps(0.693359375f);
  const __m256 ln2_lo = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.f);
  // Keep 2^n finite/representable; exp saturates instead of overflowing.
  x = _mm256_min_ps(x, _mm256_set1_ps(88.3762626647950f));
  x = _mm256_max_ps(x, _mm256_set1_ps(-87.3365478515625f));

  __m256 fx = _mm256_add_ps(_mm256_mul_ps(x, log2e), half);
  fx = _mm256_floor_ps(fx);
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, ln2_hi));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, ln2_lo));

  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), half);
  y = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(y, x), x),
                    _mm256_add_ps(x, one));

  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256i pow2n =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(0x7f)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

double ExpSumAvx2(const float* a, int64_t n, float mx) {
  const __m256 vmx = _mm256_set1_ps(mx);
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(a + i), vmx));
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
    acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
  }
  double tail = 0;
  if (i < n) {
    const __m256i m = TailMask(n - i);
    // Masked lanes load as 0, exp to garbage for x-mx != 0; blend them to
    // zero before accumulating.
    const __m256 x = _mm256_sub_ps(_mm256_maskload_ps(a + i, m), vmx);
    const __m256 e = _mm256_and_ps(Exp8(x), _mm256_castsi256_ps(m));
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, e);
    for (int j = 0; j < static_cast<int>(n - i); ++j) tail += lanes[j];
  }
  return HorizontalSum(acc0, acc1, tail);
}

void ExpScaleAvx2(const float* a, float l, float u, float* out, int64_t n) {
  const __m256 vl = _mm256_set1_ps(l);
  const __m256 vu = _mm256_set1_ps(u);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(a + i), vl));
    _mm256_storeu_ps(out + i, _mm256_mul_ps(vu, e));
  }
  if (i < n) {
    const __m256i m = TailMask(n - i);
    const __m256 e = Exp8(_mm256_sub_ps(_mm256_maskload_ps(a + i, m), vl));
    _mm256_maskstore_ps(out + i, m, _mm256_mul_ps(vu, e));
  }
}

/// Each panel's 8 lanes live in one ymm accumulator updated with separate
/// mul/add per j — bitwise the scalar per-lane chain. Pairs of panels run
/// in two independent accumulators to hide the FP-add latency of a lone
/// ascending-j chain.
void ScorePanelsAvx2(const float* q, const float* panels, int64_t d,
                     int64_t n, float* out) {
  int64_t p = 0;
  for (; p + 2 <= n; p += 2) {
    const float* p0 = panels + p * 8 * d;
    const float* p1 = p0 + 8 * d;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    for (int64_t j = 0; j < d; ++j) {
      const __m256 qj = _mm256_broadcast_ss(q + j);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(qj, _mm256_loadu_ps(p0 + j * 8)));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(qj, _mm256_loadu_ps(p1 + j * 8)));
    }
    _mm256_storeu_ps(out + p * 8, a0);
    _mm256_storeu_ps(out + (p + 1) * 8, a1);
  }
  if (p < n) {
    const float* p0 = panels + p * 8 * d;
    __m256 a0 = _mm256_setzero_ps();
    for (int64_t j = 0; j < d; ++j) {
      const __m256 qj = _mm256_broadcast_ss(q + j);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(qj, _mm256_loadu_ps(p0 + j * 8)));
    }
    _mm256_storeu_ps(out + p * 8, a0);
  }
}

// ---------------------------------------------------------- normal_fill
// Eight Philox blocks per group, one per lane, then two 8-lane Box–Muller
// evaluations. Every step is an exact integer operation or a separately
// rounded IEEE add/mul/sqrt in the scalar table's order, so the output is
// bitwise the scalar table's (tensor/normal_fill_constants.h has the
// element layout).

/// 32x32 -> 64-bit products of each lane with m, split into high and low
/// words (mul_epu32 covers the even lanes; the odd lanes are shifted down).
inline void MulHiLo(__m256i c, __m256i m, __m256i* hi, __m256i* lo) {
  const __m256i even = _mm256_mul_epu32(c, m);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(c, 32), m);
  *lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
  *hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
}

inline __m256 PolyStep(__m256 y, __m256 x, float c) {
  return _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(c));
}

/// Box–Muller on 8 lanes: (cos sample, sin sample) of (wr, wa), scaled to
/// mean + stddev * z.
inline void BoxMuller8(__m256i wr, __m256i wa, __m256 mean, __m256 stddev,
                       __m256* cos_out, __m256* sin_out) {
  // Radius: r = sqrt(-2 log u1), Cephes logf.
  const __m256 u1 = _mm256_mul_ps(
      _mm256_cvtepi32_ps(_mm256_sub_epi32(_mm256_set1_epi32(normal::kTwo24),
                                          _mm256_srli_epi32(wr, 8))),
      _mm256_set1_ps(normal::kInvTwo24));
  const __m256i bits = _mm256_castps_si256(u1);
  __m256i e = _mm256_sub_epi32(_mm256_srli_epi32(bits, 23),
                               _mm256_set1_epi32(126));
  const __m256 m = _mm256_castsi256_ps(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi32(0x007FFFFF)),
      _mm256_set1_epi32(0x3F000000)));
  const __m256 below =
      _mm256_cmp_ps(m, _mm256_set1_ps(normal::kSqrtHalf), _CMP_LT_OQ);
  e = _mm256_add_epi32(e, _mm256_castps_si256(below));  // -1 where below
  __m256 x = _mm256_sub_ps(m, _mm256_set1_ps(1.f));
  x = _mm256_add_ps(x, _mm256_and_ps(m, below));
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(normal::kLogP[0]);
  for (int k = 1; k < 9; ++k) y = PolyStep(y, x, normal::kLogP[k]);
  y = _mm256_mul_ps(_mm256_mul_ps(y, x), z);
  const __m256 fe = _mm256_cvtepi32_ps(e);
  y = _mm256_add_ps(y, _mm256_mul_ps(_mm256_set1_ps(normal::kLn2Lo), fe));
  y = _mm256_add_ps(y, _mm256_mul_ps(_mm256_set1_ps(-0.5f), z));
  __m256 lg = _mm256_add_ps(x, y);
  lg = _mm256_add_ps(lg, _mm256_mul_ps(_mm256_set1_ps(normal::kLn2Hi), fe));
  const __m256 r = _mm256_sqrt_ps(_mm256_mul_ps(lg, _mm256_set1_ps(-2.f)));

  // Angle: quadrant plus residual in [-pi/4, pi/4), Cephes sinf/cosf.
  const __m256i ma = _mm256_srli_epi32(wa, 8);
  const __m256i quad = _mm256_srli_epi32(
      _mm256_add_epi32(ma, _mm256_set1_epi32(normal::kQuadrantHalf)),
      normal::kQuadrantShift);
  const __m256 a = _mm256_mul_ps(
      _mm256_cvtepi32_ps(_mm256_sub_epi32(
          ma, _mm256_slli_epi32(quad, normal::kQuadrantShift))),
      _mm256_set1_ps(normal::kAngleStep));
  const __m256 a2 = _mm256_mul_ps(a, a);
  __m256 s = _mm256_set1_ps(normal::kSinP[0]);
  s = PolyStep(s, a2, normal::kSinP[1]);
  s = PolyStep(s, a2, normal::kSinP[2]);
  s = _mm256_mul_ps(_mm256_mul_ps(s, a2), a);
  s = _mm256_add_ps(s, a);
  __m256 c = _mm256_set1_ps(normal::kCosP[0]);
  c = PolyStep(c, a2, normal::kCosP[1]);
  c = PolyStep(c, a2, normal::kCosP[2]);
  c = _mm256_mul_ps(_mm256_mul_ps(c, a2), a2);
  c = _mm256_sub_ps(c, _mm256_mul_ps(_mm256_set1_ps(0.5f), a2));
  c = _mm256_add_ps(c, _mm256_set1_ps(1.f));
  // Rotate by quad * pi/2 (see the scalar table).
  const __m256 swap = _mm256_castsi256_ps(_mm256_cmpeq_epi32(
      _mm256_and_si256(quad, _mm256_set1_epi32(1)), _mm256_set1_epi32(1)));
  const __m256i two = _mm256_set1_epi32(2);
  const __m256 cos_sign = _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_and_si256(_mm256_add_epi32(quad, _mm256_set1_epi32(1)), two),
      30));
  const __m256 sin_sign =
      _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_and_si256(quad, two), 30));
  const __m256 cb = _mm256_xor_ps(_mm256_blendv_ps(c, s, swap), cos_sign);
  const __m256 sb = _mm256_xor_ps(_mm256_blendv_ps(s, c, swap), sin_sign);
  *cos_out = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(r, cb), stddev), mean);
  *sin_out = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(r, sb), stddev), mean);
}

/// Writes the 32 * G elements of groups g .. g + G - 1. Several groups in
/// flight give the out-of-order core independent Philox and polynomial
/// chains to overlap (4 groups: ~2.7 ns per element on one core, 1 group:
/// ~3.9 ns).
template <int G>
inline void NormalGroupsAvx2(uint32_t k0, uint32_t k1, int64_t g,
                             __m256 mean, __m256 stddev, float* out) {
  constexpr int kLanes = normal::kBlocks;
  alignas(32) uint32_t lo[G][kLanes], hi[G][kLanes];
  for (int j = 0; j < G; ++j) {
    for (int t = 0; t < kLanes; ++t) {
      const uint64_t q = static_cast<uint64_t>(g + j) * kLanes + t;
      lo[j][t] = static_cast<uint32_t>(q);
      hi[j][t] = static_cast<uint32_t>(q >> 32);
    }
  }
  __m256i c0[G], c1[G], c2[G], c3[G];
  for (int j = 0; j < G; ++j) {
    c0[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lo[j]));
    c1[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(hi[j]));
    c2[j] = _mm256_setzero_si256();
    c3[j] = _mm256_setzero_si256();
  }
  const __m256i m0 = _mm256_set1_epi32(static_cast<int>(normal::kPhiloxM0));
  const __m256i m1 = _mm256_set1_epi32(static_cast<int>(normal::kPhiloxM1));
  for (int round = 0; round < normal::kPhiloxRounds; ++round) {
    if (round > 0) {
      k0 += normal::kPhiloxW0;
      k1 += normal::kPhiloxW1;
    }
    const __m256i vk0 = _mm256_set1_epi32(static_cast<int>(k0));
    const __m256i vk1 = _mm256_set1_epi32(static_cast<int>(k1));
    for (int j = 0; j < G; ++j) {
      __m256i hi0, lo0, hi1, lo1;
      MulHiLo(c0[j], m0, &hi0, &lo0);
      MulHiLo(c2[j], m1, &hi1, &lo1);
      c0[j] = _mm256_xor_si256(_mm256_xor_si256(hi1, c1[j]), vk0);
      c1[j] = lo1;
      c2[j] = _mm256_xor_si256(_mm256_xor_si256(hi0, c3[j]), vk1);
      c3[j] = lo0;
    }
  }
  for (int j = 0; j < G; ++j) {
    __m256 v0, v1, v2, v3;
    BoxMuller8(c0[j], c1[j], mean, stddev, &v0, &v1);
    BoxMuller8(c2[j], c3[j], mean, stddev, &v2, &v3);
    float* o = out + j * normal::kGroup;
    _mm256_storeu_ps(o, v0);
    _mm256_storeu_ps(o + 8, v1);
    _mm256_storeu_ps(o + 16, v2);
    _mm256_storeu_ps(o + 24, v3);
  }
}

void NormalFillAvx2(uint64_t key, int64_t begin, int64_t end, float mean,
                    float stddev, float* out) {
  constexpr int kInterleave = 4;
  const uint32_t k0 = static_cast<uint32_t>(key);
  const uint32_t k1 = static_cast<uint32_t>(key >> 32);
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vstd = _mm256_set1_ps(stddev);
  for (int64_t i = begin; i < end;) {
    const int64_t g = i / normal::kGroup;
    const int64_t g0 = g * normal::kGroup;
    if (i == g0 && end - i >= kInterleave * normal::kGroup) {
      NormalGroupsAvx2<kInterleave>(k0, k1, g, vmean, vstd,
                                    out + (i - begin));
      i += kInterleave * normal::kGroup;
      continue;
    }
    // Ragged head or tail: one group through a buffer.
    const int64_t stop = std::min(end, g0 + normal::kGroup);
    float buf[normal::kGroup];
    NormalGroupsAvx2<1>(k0, k1, g, vmean, vstd, buf);
    std::copy(buf + (i - g0), buf + (stop - g0), out + (i - begin));
    i = stop;
  }
}

constexpr KernelTable kAvx2Table = {
    "avx2",        GemmMicroAvx2, SpmmSegmentAvx2, AddAvx2,
    SubAvx2,       MulAvx2,       ScaleAvx2,       AxpyAvx2,
    SumAvx2,       SqnormAvx2,    DotAvx2,         MaxAbsAvx2,
    RowMaxAvx2,    ExpSumAvx2,    ExpScaleAvx2,    ScorePanelsAvx2,
    NormalFillAvx2,
};

}  // namespace

const KernelTable* Avx2KernelsOrNull() { return &kAvx2Table; }

}  // namespace graphaug::simd

#else  // !defined(__AVX2__): non-x86 build, dispatch always stays scalar.

namespace graphaug::simd {
const KernelTable* Avx2KernelsOrNull() { return nullptr; }
}  // namespace graphaug::simd

#endif
