// Tests for the runtime-dispatched SIMD kernel layer (DESIGN.md §9):
// scalar-vs-AVX2 bitwise parity for GEMM, the sparse row kernels and the
// counter-based normal sampler,
// per-table thread-count determinism, vector-exp accuracy, and the
// probe / force-scalar override machinery.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/cpu_features.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "graph/csr.h"
#include "tensor/init.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

/// RAII guard: forces the requested dispatch mode for one scope, then
/// returns the process to the env/probe default.
class ScopedDispatch {
 public:
  explicit ScopedDispatch(bool force_scalar) {
    ForceScalarKernels(force_scalar);
  }
  ~ScopedDispatch() { ForceScalarKernels(false); }
};

/// RAII guard for the parallel runtime's thread count.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { SetNumThreads(n); }
  ~ScopedThreads() { SetNumThreads(1); }
};

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  InitNormal(&m, &rng, 0.f, 1.f);
  return m;
}

// ---------------------------------------------------------------- probe

TEST(CpuFeaturesTest, ForceScalarOverridesProbe) {
  ForceScalarKernels(true);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  EXPECT_STREQ(simd::ActiveKernels().name, "scalar");
  ForceScalarKernels(false);
  // Cleared: back to the probe result (whatever this machine supports).
  EXPECT_EQ(ActiveSimdLevel(), DetectSimdLevel());
}

TEST(CpuFeaturesTest, LevelNamesAreStable) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(CpuFeaturesTest, ActiveTableMatchesLevel) {
  const simd::KernelTable& kt = simd::ActiveKernels();
  EXPECT_STREQ(kt.name, SimdLevelName(ActiveSimdLevel()));
}

TEST(CpuFeaturesTest, Avx2TableExistsOnX86Builds) {
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_NE(simd::Avx2KernelsOrNull(), nullptr);
#else
  EXPECT_EQ(simd::Avx2KernelsOrNull(), nullptr);
#endif
}

// ------------------------------------------------- GEMM bitwise parity

// Exhaustive odd-shape sweep: every (M, N, K) hits a different mix of
// full 6x16 tiles, masked edge tiles, and degenerate panels. Scalar and
// SIMD dispatch must agree bit for bit on all four transpose variants.
TEST(SimdParityTest, GemmOddShapeSweepAllVariants) {
  const int64_t sizes[] = {1, 2, 3, 5, 7, 15, 16, 17, 33};
  uint64_t seed = 1;
  for (int64_t m : sizes) {
    for (int64_t n : sizes) {
      for (int64_t k : sizes) {
        const Matrix a_nn = RandomMatrix(m, k, seed++);
        const Matrix a_t = RandomMatrix(k, m, seed++);
        const Matrix b_nn = RandomMatrix(k, n, seed++);
        const Matrix b_t = RandomMatrix(n, k, seed++);
        for (int variant = 0; variant < 4; ++variant) {
          const bool ta = (variant & 1) != 0;
          const bool tb = (variant & 2) != 0;
          const Matrix& a = ta ? a_t : a_nn;
          const Matrix& b = tb ? b_t : b_nn;
          Matrix scalar_out, simd_out;
          {
            ScopedDispatch force(true);
            Gemm(a, ta, b, tb, 1.25f, 0.f, &scalar_out);
          }
          {
            ScopedDispatch force(false);
            Gemm(a, ta, b, tb, 1.25f, 0.f, &simd_out);
          }
          EXPECT_TRUE(BitwiseEqual(scalar_out, simd_out))
              << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta
              << " tb=" << tb;
        }
      }
    }
  }
}

TEST(SimdParityTest, GemmBetaAccumulationParity) {
  const Matrix a = RandomMatrix(17, 33, 7);
  const Matrix b = RandomMatrix(33, 15, 8);
  const Matrix c0 = RandomMatrix(17, 15, 9);
  Matrix scalar_out = c0, simd_out = c0;
  {
    ScopedDispatch force(true);
    Gemm(a, false, b, false, 0.5f, 2.f, &scalar_out);
  }
  {
    ScopedDispatch force(false);
    Gemm(a, false, b, false, 0.5f, 2.f, &simd_out);
  }
  EXPECT_TRUE(BitwiseEqual(scalar_out, simd_out));
}

// -------------------------------------------- sparse kernel parity

CsrMatrix SparseWithEdgeCases(int64_t rows, int64_t cols, uint64_t seed) {
  // Mix of empty rows (r % 5 == 0), single-nnz rows (r % 5 == 1), and
  // dense-ish rows, exercising every segment-length path in the kernel.
  std::vector<CooEntry> entries;
  Rng rng(seed);
  for (int64_t r = 0; r < rows; ++r) {
    if (r % 5 == 0) continue;  // empty row
    const int64_t count = (r % 5 == 1) ? 1 : 2 + (r % 7);
    for (int64_t j = 0; j < count; ++j) {
      entries.push_back({static_cast<int32_t>(r),
                         static_cast<int32_t>((r * 13 + j * 7) % cols),
                         static_cast<float>(rng.Gaussian()) + 0.5f});
    }
  }
  return CsrMatrix::FromCoo(rows, cols, std::move(entries));
}

TEST(SimdParityTest, SpmmParityWithEmptyAndSingleNnzRows) {
  const CsrMatrix m = SparseWithEdgeCases(53, 41, 11);
  // Odd dense widths cover the 32-wide, 8-wide, and masked-tail column
  // blocks of the vectorized row kernel.
  for (int64_t d : {1, 3, 8, 17, 32, 37, 64}) {
    const Matrix h = RandomMatrix(41, d, 100 + static_cast<uint64_t>(d));
    Matrix scalar_out, simd_out;
    {
      ScopedDispatch force(true);
      m.Spmm(h, &scalar_out);
    }
    {
      ScopedDispatch force(false);
      m.Spmm(h, &simd_out);
    }
    EXPECT_TRUE(BitwiseEqual(scalar_out, simd_out)) << "d=" << d;
  }
}

TEST(SimdParityTest, SpmmTParityWithSerialScatter) {
  const CsrMatrix m = SparseWithEdgeCases(53, 41, 13);
  const Matrix h = RandomMatrix(53, 19, 42);
  // Independent reference: a scalar scatter over the original rows, which
  // accumulates each output row in the order SpmmT keeps.
  Matrix reference(m.cols(), h.cols());
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
      for (int64_t c = 0; c < h.cols(); ++c) {
        reference.at(m.col_idx()[k], c) += m.values()[k] * h.at(r, c);
      }
    }
  }
  for (bool force_scalar : {true, false}) {
    ScopedDispatch force(force_scalar);
    Matrix out;
    m.SpmmT(h, &out);
    EXPECT_TRUE(BitwiseEqual(reference, out))
        << "force_scalar=" << force_scalar;
  }
}

// --------------------------------------- thread-count determinism

// Every dispatch mode must produce identical bits at 1, 2, and 7 threads:
// the static chunk decomposition plus disjoint-output (or pinned-order
// reduction) kernels make thread count invisible in the result.
TEST(SimdDeterminismTest, ThreadCountInvarianceBothModes) {
  const Matrix a = RandomMatrix(65, 40, 21);
  const Matrix b = RandomMatrix(40, 33, 22);
  const CsrMatrix sp = SparseWithEdgeCases(65, 40, 23);
  const Matrix h = RandomMatrix(40, 33, 24);
  for (bool force_scalar : {true, false}) {
    ScopedDispatch force(force_scalar);
    Matrix gemm_ref, spmm_ref, spmmt_ref;
    double sum_ref = 0, sq_ref = 0;
    float maxabs_ref = 0;
    for (int threads : {1, 2, 7}) {
      ScopedThreads pool(threads);
      Matrix gemm_out, spmm_out, spmmt_out;
      Gemm(a, false, b, false, 1.f, 0.f, &gemm_out);
      sp.Spmm(b, &spmm_out);
      sp.SpmmT(RandomMatrix(65, 12, 25), &spmmt_out);
      const double sum_out = SumAll(a);
      const double sq_out = SquaredNorm(a);
      const float maxabs_out = MaxAbs(a);
      if (threads == 1) {
        gemm_ref = gemm_out;
        spmm_ref = spmm_out;
        spmmt_ref = spmmt_out;
        sum_ref = sum_out;
        sq_ref = sq_out;
        maxabs_ref = maxabs_out;
      } else {
        EXPECT_TRUE(BitwiseEqual(gemm_ref, gemm_out))
            << "gemm threads=" << threads << " scalar=" << force_scalar;
        EXPECT_TRUE(BitwiseEqual(spmm_ref, spmm_out))
            << "spmm threads=" << threads << " scalar=" << force_scalar;
        EXPECT_TRUE(BitwiseEqual(spmmt_ref, spmmt_out))
            << "spmm_t threads=" << threads << " scalar=" << force_scalar;
        EXPECT_EQ(sum_ref, sum_out) << "threads=" << threads;
        EXPECT_EQ(sq_ref, sq_out) << "threads=" << threads;
        EXPECT_EQ(maxabs_ref, maxabs_out) << "threads=" << threads;
      }
    }
  }
}

// ----------------------------------------------- table-level kernels

TEST(KernelTableTest, ElementwiseParity) {
  const int64_t n = 1003;  // odd length: 8-wide blocks plus scalar tail
  const Matrix a = RandomMatrix(1, n, 31);
  const Matrix b = RandomMatrix(1, n, 32);
  const simd::KernelTable& sc = simd::ScalarKernels();
  const simd::KernelTable* vec = simd::Avx2KernelsOrNull();
  if (vec == nullptr) GTEST_SKIP() << "no SIMD table in this build";
  std::vector<float> out_s(n), out_v(n);
  sc.add(a.data(), b.data(), out_s.data(), n);
  vec->add(a.data(), b.data(), out_v.data(), n);
  EXPECT_EQ(0, std::memcmp(out_s.data(), out_v.data(), n * sizeof(float)));
  sc.sub(a.data(), b.data(), out_s.data(), n);
  vec->sub(a.data(), b.data(), out_v.data(), n);
  EXPECT_EQ(0, std::memcmp(out_s.data(), out_v.data(), n * sizeof(float)));
  sc.mul(a.data(), b.data(), out_s.data(), n);
  vec->mul(a.data(), b.data(), out_v.data(), n);
  EXPECT_EQ(0, std::memcmp(out_s.data(), out_v.data(), n * sizeof(float)));
  sc.scale(a.data(), 1.5f, out_s.data(), n);
  vec->scale(a.data(), 1.5f, out_v.data(), n);
  EXPECT_EQ(0, std::memcmp(out_s.data(), out_v.data(), n * sizeof(float)));
  std::vector<float> acc_s(a.data(), a.data() + n), acc_v = acc_s;
  sc.axpy(0.75f, b.data(), acc_s.data(), n);
  vec->axpy(0.75f, b.data(), acc_v.data(), n);
  EXPECT_EQ(0, std::memcmp(acc_s.data(), acc_v.data(), n * sizeof(float)));
}

TEST(KernelTableTest, ReductionsAgreeWithinTolerance) {
  // Reductions pin order per table, not across tables: SIMD lane-split
  // sums legitimately differ from serial sums by rounding only.
  const int64_t n = 777;
  const Matrix a = RandomMatrix(1, n, 33);
  const Matrix b = RandomMatrix(1, n, 34);
  const simd::KernelTable& sc = simd::ScalarKernels();
  const simd::KernelTable* vec = simd::Avx2KernelsOrNull();
  if (vec == nullptr) GTEST_SKIP() << "no SIMD table in this build";
  EXPECT_NEAR(sc.sum(a.data(), n), vec->sum(a.data(), n), 1e-4);
  EXPECT_NEAR(sc.sqnorm(a.data(), n), vec->sqnorm(a.data(), n), 1e-4);
  EXPECT_NEAR(sc.dot(a.data(), b.data(), n), vec->dot(a.data(), b.data(), n),
              1e-4);
  // max / maxabs select an element: exactly equal regardless of lanes.
  EXPECT_EQ(sc.maxabs(a.data(), n), vec->maxabs(a.data(), n));
  EXPECT_EQ(sc.rowmax(a.data(), n), vec->rowmax(a.data(), n));
  for (int64_t small = 1; small <= 9; ++small) {
    EXPECT_EQ(sc.rowmax(a.data(), small), vec->rowmax(a.data(), small))
        << "n=" << small;
    EXPECT_EQ(sc.maxabs(a.data(), small), vec->maxabs(a.data(), small))
        << "n=" << small;
  }
}

TEST(KernelTableTest, VectorExpMatchesStdExp) {
  const simd::KernelTable* vec = simd::Avx2KernelsOrNull();
  if (vec == nullptr) GTEST_SKIP() << "no SIMD table in this build";
  // Sweep the range LogSumExpRows actually feeds: shifted logits in
  // roughly [-30, 0], plus the clamp edges.
  std::vector<float> xs;
  for (float x = -30.f; x <= 10.f; x += 0.37f) xs.push_back(x);
  xs.push_back(-100.f);  // below clamp: exp underflows to ~0
  xs.push_back(0.f);
  const int64_t n = static_cast<int64_t>(xs.size());
  std::vector<float> out(xs.size());
  vec->exp_scale(xs.data(), 0.f, 1.f, out.data(), n);
  for (size_t i = 0; i < xs.size(); ++i) {
    const double ref = std::exp(static_cast<double>(xs[i]));
    EXPECT_NEAR(out[i], ref, 2e-6 * ref + 1e-30) << "x=" << xs[i];
  }
  const double s = vec->exp_sum(xs.data(), n, 0.f);
  double s_ref = 0;
  for (float x : xs) s_ref += std::exp(static_cast<double>(x));
  EXPECT_NEAR(s, s_ref, 1e-4 * s_ref);
}

TEST(KernelTableTest, SpmmSegmentHandlesEmptyAndSingle) {
  const simd::KernelTable& sc = simd::ScalarKernels();
  const simd::KernelTable* vec = simd::Avx2KernelsOrNull();
  const Matrix dense = RandomMatrix(5, 37, 55);
  const float vals[] = {2.f, -1.f, 0.5f};
  const int32_t idx[] = {3, 0, 4};
  for (int64_t count : {0, 1, 3}) {
    std::vector<float> out_s(37, 1.f), out_v(37, 1.f);
    sc.spmm_segment(vals, idx, count, dense.data(), 37, out_s.data());
    if (vec != nullptr) {
      vec->spmm_segment(vals, idx, count, dense.data(), 37, out_v.data());
      EXPECT_EQ(0,
                std::memcmp(out_s.data(), out_v.data(), 37 * sizeof(float)))
          << "count=" << count;
    }
    if (count == 0) {
      for (float v : out_s) EXPECT_EQ(v, 1.f);  // untouched accumulator
    }
  }
}

TEST(KernelTableTest, NormalFillParityAcrossTables) {
  const simd::KernelTable& sc = simd::ScalarKernels();
  const simd::KernelTable* vec = simd::Avx2KernelsOrNull();
  if (vec == nullptr) GTEST_SKIP() << "no SIMD table in this build";
  // Odd begins start mid-group; the large begin sets the high word of
  // the Philox counter.
  const int64_t begins[] = {0, 1, 5, 31, 32, 33, int64_t{3} << 34};
  for (int64_t n : {1, 2, 3, 7, 15, 16, 17, 33, 1000}) {
    for (int64_t b : begins) {
      std::vector<float> out_s(n), out_v(n);
      sc.normal_fill(0x9e3779b97f4a7c15ULL, b, b + n, 0.25f, 1.5f,
                     out_s.data());
      vec->normal_fill(0x9e3779b97f4a7c15ULL, b, b + n, 0.25f, 1.5f,
                       out_v.data());
      EXPECT_EQ(0, std::memcmp(out_s.data(), out_v.data(), n * sizeof(float)))
          << "n=" << n << " begin=" << b;
    }
  }
}

}  // namespace
}  // namespace graphaug
