// Portable baseline kernel table. These loops define the reference
// semantics of every dispatched primitive: gemm_micro / spmm_segment use
// ascending-k multiply-then-add per output element (the order the AVX2
// table reproduces bitwise), and the reductions keep the pre-dispatch
// serial accumulation order so forced-scalar runs reproduce the historic
// kernels exactly. Compiled with the default (baseline-ISA) flags — the
// auto-vectorizer may use SSE here, which preserves IEEE semantics and
// therefore bitwise results.

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernel_dispatch.h"
#include "tensor/normal_fill_constants.h"

namespace graphaug::simd {
namespace {

void GemmMicroScalar(int64_t kc, const float* ap, const float* bp, float* c,
                     int64_t ldc, int mr, int nr) {
  float acc[kGemmMR][kGemmNR];
  for (int ii = 0; ii < mr; ++ii) {
    for (int jj = 0; jj < nr; ++jj) acc[ii][jj] = c[ii * ldc + jj];
  }
  for (int64_t p = 0; p < kc; ++p) {
    const float* app = ap + p * mr;
    const float* bpp = bp + p * kGemmNR;
    for (int ii = 0; ii < mr; ++ii) {
      const float av = app[ii];
      for (int jj = 0; jj < nr; ++jj) acc[ii][jj] += av * bpp[jj];
    }
  }
  for (int ii = 0; ii < mr; ++ii) {
    for (int jj = 0; jj < nr; ++jj) c[ii * ldc + jj] = acc[ii][jj];
  }
}

void SpmmSegmentScalar(const float* vals, const int32_t* idx, int64_t count,
                       const float* dense, int64_t d, float* out_row) {
  for (int64_t e = 0; e < count; ++e) {
    const float v = vals[e];
    const float* drow = dense + static_cast<int64_t>(idx[e]) * d;
    for (int64_t c = 0; c < d; ++c) out_row[c] += v * drow[c];
  }
}

void AddScalar(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void SubScalar(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void MulScalar(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void ScaleScalar(const float* a, float s, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * s;
}

void AxpyScalar(float s, const float* b, float* a, int64_t n) {
  for (int64_t i = 0; i < n; ++i) a[i] += s * b[i];
}

double SumScalar(const float* a, int64_t n) {
  double s = 0;
  for (int64_t i = 0; i < n; ++i) s += a[i];
  return s;
}

double SqnormScalar(const float* a, int64_t n) {
  double s = 0;
  for (int64_t i = 0; i < n; ++i) s += static_cast<double>(a[i]) * a[i];
  return s;
}

double DotScalar(const float* a, const float* b, int64_t n) {
  double s = 0;
  for (int64_t i = 0; i < n; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

float MaxAbsScalar(const float* a, int64_t n) {
  float m = 0.f;
  for (int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(a[i]));
  return m;
}

float RowMaxScalar(const float* a, int64_t n) {
  float mx = a[0];
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, a[i]);
  return mx;
}

double ExpSumScalar(const float* a, int64_t n, float mx) {
  double s = 0;
  for (int64_t i = 0; i < n; ++i) s += std::exp(a[i] - mx);
  return s;
}

void ExpScaleScalar(const float* a, float l, float u, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = u * std::exp(a[i] - l);
}

/// Panels are scored in pairs so at least 16 independent accumulator
/// chains are in flight (a lone chain is FP-add latency-bound); each lane
/// keeps its own ascending-j separate-multiply-then-add chain, so every
/// score is bitwise what the one-item-at-a-time loop produces.
void ScorePanelsScalar(const float* q, const float* panels, int64_t d,
                       int64_t n, float* out) {
  int64_t p = 0;
  for (; p + 2 <= n; p += 2) {
    const float* p0 = panels + p * 8 * d;
    const float* p1 = p0 + 8 * d;
    float a0[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    float a1[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    for (int64_t j = 0; j < d; ++j) {
      const float qj = q[j];
      for (int t = 0; t < 8; ++t) a0[t] += qj * p0[j * 8 + t];
      for (int t = 0; t < 8; ++t) a1[t] += qj * p1[j * 8 + t];
    }
    for (int t = 0; t < 8; ++t) out[p * 8 + t] = a0[t];
    for (int t = 0; t < 8; ++t) out[(p + 1) * 8 + t] = a1[t];
  }
  if (p < n) {
    const float* p0 = panels + p * 8 * d;
    float a0[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    for (int64_t j = 0; j < d; ++j) {
      const float qj = q[j];
      for (int t = 0; t < 8; ++t) a0[t] += qj * p0[j * 8 + t];
    }
    for (int t = 0; t < 8; ++t) out[p * 8 + t] = a0[t];
  }
}

// ------------------------------------------------------------ normal_fill
// One lane of the AVX2 kernel per loop iteration: the same integer and
// float operations in the same order, so the two tables agree bit for
// bit (see tensor/normal_fill_constants.h for the element layout).

inline float BitsToFloat(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

inline uint32_t FloatToBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// Philox-4x32-10 of counter (lo32(q), hi32(q), 0, 0) under (k0, k1).
void Philox(uint64_t q, uint32_t k0, uint32_t k1, uint32_t w[4]) {
  uint32_t c0 = static_cast<uint32_t>(q), c1 = static_cast<uint32_t>(q >> 32);
  uint32_t c2 = 0, c3 = 0;
  for (int round = 0; round < normal::kPhiloxRounds; ++round) {
    if (round > 0) {
      k0 += normal::kPhiloxW0;
      k1 += normal::kPhiloxW1;
    }
    const uint64_t p0 = static_cast<uint64_t>(normal::kPhiloxM0) * c0;
    const uint64_t p1 = static_cast<uint64_t>(normal::kPhiloxM1) * c2;
    const uint32_t hi0 = static_cast<uint32_t>(p0 >> 32);
    const uint32_t hi1 = static_cast<uint32_t>(p1 >> 32);
    c0 = hi1 ^ c1 ^ k0;
    c1 = static_cast<uint32_t>(p1);
    c2 = hi0 ^ c3 ^ k1;
    c3 = static_cast<uint32_t>(p0);
  }
  w[0] = c0;
  w[1] = c1;
  w[2] = c2;
  w[3] = c3;
}

/// Box–Muller pair from two 32-bit words: (cos sample, sin sample), each
/// already scaled to mean + stddev * z.
void BoxMuller(uint32_t wr, uint32_t wa, float mean, float stddev,
               float* cos_out, float* sin_out) {
  // Radius: r = sqrt(-2 log u1), Cephes logf.
  const float u1 = static_cast<float>(normal::kTwo24 -
                                      static_cast<int32_t>(wr >> 8)) *
                   normal::kInvTwo24;
  const uint32_t bits = FloatToBits(u1);
  int32_t e = static_cast<int32_t>(bits >> 23) - 126;
  const float m = BitsToFloat((bits & 0x007FFFFFu) | 0x3F000000u);
  float x = m - 1.f;
  if (m < normal::kSqrtHalf) {
    e -= 1;
    x = x + m;
  }
  const float z = x * x;
  float y = normal::kLogP[0];
  for (int k = 1; k < 9; ++k) y = y * x + normal::kLogP[k];
  y = y * x * z;
  const float fe = static_cast<float>(e);
  y = y + normal::kLn2Lo * fe;
  y = y + -0.5f * z;
  float lg = x + y;
  lg = lg + normal::kLn2Hi * fe;
  const float r = std::sqrt(lg * -2.f);

  // Angle: quadrant plus residual in [-pi/4, pi/4), Cephes sinf/cosf.
  const int32_t ma = static_cast<int32_t>(wa >> 8);
  const int32_t quad = (ma + normal::kQuadrantHalf) >> normal::kQuadrantShift;
  const float a = static_cast<float>(ma - (quad << normal::kQuadrantShift)) *
                  normal::kAngleStep;
  const float a2 = a * a;
  float s = normal::kSinP[0];
  s = s * a2 + normal::kSinP[1];
  s = s * a2 + normal::kSinP[2];
  s = s * a2 * a;
  s = s + a;
  float c = normal::kCosP[0];
  c = c * a2 + normal::kCosP[1];
  c = c * a2 + normal::kCosP[2];
  c = c * a2 * a2;
  c = c - 0.5f * a2;
  c = c + 1.f;
  // Rotate by quad * pi/2: odd quadrants swap sin and cos; cos is
  // negative in quadrants 1-2, sin in quadrants 2-3 (quad 4 == quad 0).
  const bool swap = (quad & 1) != 0;
  const float cb = BitsToFloat(FloatToBits(swap ? s : c) ^
                               (static_cast<uint32_t>((quad + 1) & 2) << 30));
  const float sb = BitsToFloat(FloatToBits(swap ? c : s) ^
                               (static_cast<uint32_t>(quad & 2) << 30));
  *cos_out = r * cb * stddev + mean;
  *sin_out = r * sb * stddev + mean;
}

/// Writes the 32 elements of group g.
void NormalGroupScalar(uint32_t k0, uint32_t k1, int64_t g, float mean,
                       float stddev, float* out) {
  for (int t = 0; t < normal::kBlocks; ++t) {
    uint32_t w[4];
    Philox(static_cast<uint64_t>(g) * normal::kBlocks + t, k0, k1, w);
    BoxMuller(w[0], w[1], mean, stddev, out + t, out + 8 + t);
    BoxMuller(w[2], w[3], mean, stddev, out + 16 + t, out + 24 + t);
  }
}

void NormalFillScalar(uint64_t key, int64_t begin, int64_t end, float mean,
                      float stddev, float* out) {
  const uint32_t k0 = static_cast<uint32_t>(key);
  const uint32_t k1 = static_cast<uint32_t>(key >> 32);
  for (int64_t i = begin; i < end;) {
    const int64_t g = i / normal::kGroup;
    const int64_t g0 = g * normal::kGroup;
    const int64_t stop = std::min(end, g0 + normal::kGroup);
    float buf[normal::kGroup];
    NormalGroupScalar(k0, k1, g, mean, stddev, buf);
    std::copy(buf + (i - g0), buf + (stop - g0), out + (i - begin));
    i = stop;
  }
}

constexpr KernelTable kScalarTable = {
    "scalar",        GemmMicroScalar, SpmmSegmentScalar, AddScalar,
    SubScalar,       MulScalar,       ScaleScalar,       AxpyScalar,
    SumScalar,       SqnormScalar,    DotScalar,         MaxAbsScalar,
    RowMaxScalar,    ExpSumScalar,    ExpScaleScalar,    ScorePanelsScalar,
    NormalFillScalar,
};

}  // namespace

const KernelTable& ScalarKernels() { return kScalarTable; }

}  // namespace graphaug::simd
