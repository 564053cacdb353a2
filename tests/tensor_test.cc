// Unit tests for the dense tensor substrate: Matrix semantics, all GEMM
// transpose combinations checked against a reference implementation,
// elementwise kernels, reductions, shape utilities, and the moments and
// sub-range contract of the counter-based normal sampler.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "tensor/init.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

Matrix RandomMatrix(int64_t r, int64_t c, uint64_t seed) {
  Matrix m(r, c);
  Rng rng(seed);
  InitNormal(&m, &rng, 0.f, 1.f);
  return m;
}

/// Reference O(n^3) matmul used to validate Gemm.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (int64_t k = 0; k < a.cols(); ++k) s += a.at(i, k) * b.at(k, j);
      out.at(i, j) = static_cast<float>(s);
    }
  }
  return out;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  EXPECT_FLOAT_EQ(m.at(2, 3), 2.5f);
  m.at(1, 2) = -1.f;
  EXPECT_FLOAT_EQ(m.at(1, 2), -1.f);
  m.Zero();
  EXPECT_FLOAT_EQ(MaxAbs(m), 0.f);
}

TEST(MatrixTest, UninitHasShapeAndDebugPoison) {
  Matrix m = Matrix::Uninit(3, 5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_EQ(m.size(), 15);
#ifndef NDEBUG
  // Debug builds poison the buffer so a read-before-write shows as NaN.
  for (int64_t i = 0; i < m.size(); ++i) EXPECT_TRUE(std::isnan(m[i]));
#endif
  EXPECT_TRUE(Matrix::Uninit(0, 4).empty());
  // The default constructor still zero-fills.
  Matrix z(4, 4);
  for (int64_t i = 0; i < z.size(); ++i) EXPECT_EQ(z[i], 0.f);
}

TEST(MatrixTest, FromDataValidatesSize) {
  Matrix m(2, 2, std::vector<float>{1, 2, 3, 4});
  EXPECT_FLOAT_EQ(m.at(1, 0), 3.f);
  EXPECT_DEATH(Matrix(2, 2, std::vector<float>{1, 2, 3}), "");
}

TEST(MatrixTest, ScalarRequiresSingleElement) {
  Matrix s(1, 1, 5.f);
  EXPECT_FLOAT_EQ(s.scalar(), 5.f);
  Matrix m(2, 1);
  EXPECT_DEATH(m.scalar(), "");
}

class GemmTransposeTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmTransposeTest, MatchesNaive) {
  const auto [ta, tb] = GetParam();
  Matrix a = RandomMatrix(ta ? 7 : 5, ta ? 5 : 7, 1);
  Matrix b = RandomMatrix(tb ? 6 : 7, tb ? 7 : 6, 2);
  Matrix out;
  Gemm(a, ta, b, tb, 1.f, 0.f, &out);
  Matrix ref = NaiveMatMul(ta ? Transpose(a) : a, tb ? Transpose(b) : b);
  EXPECT_TRUE(AllClose(out, ref)) << "ta=" << ta << " tb=" << tb;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, GemmTransposeTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(GemmTest, AlphaBetaAccumulation) {
  Matrix a = RandomMatrix(3, 4, 3);
  Matrix b = RandomMatrix(4, 2, 4);
  Matrix out(3, 2, 1.f);
  Gemm(a, false, b, false, 2.f, 0.5f, &out);
  Matrix ref = Scale(NaiveMatMul(a, b), 2.f);
  for (int64_t i = 0; i < ref.size(); ++i) ref[i] += 0.5f;
  EXPECT_TRUE(AllClose(out, ref));
}

TEST(OpsTest, ElementwiseAndReductions) {
  Matrix a(2, 2, std::vector<float>{1, -2, 3, -4});
  Matrix b(2, 2, std::vector<float>{2, 2, 2, 2});
  EXPECT_TRUE(AllClose(Add(a, b), Matrix(2, 2, {3, 0, 5, -2})));
  EXPECT_TRUE(AllClose(Sub(a, b), Matrix(2, 2, {-1, -4, 1, -6})));
  EXPECT_TRUE(AllClose(Mul(a, b), Matrix(2, 2, {2, -4, 6, -8})));
  EXPECT_DOUBLE_EQ(SumAll(a), -2.0);
  EXPECT_DOUBLE_EQ(MeanAll(a), -0.5);
  EXPECT_FLOAT_EQ(MaxAbs(a), 4.f);
  EXPECT_DOUBLE_EQ(SquaredNorm(a), 1 + 4 + 9 + 16);
}

TEST(OpsTest, RowReductions) {
  Matrix a(2, 3, std::vector<float>{1, 2, 3, 4, 5, 6});
  Matrix rs = RowSum(a);
  EXPECT_FLOAT_EQ(rs[0], 6.f);
  EXPECT_FLOAT_EQ(rs[1], 15.f);
  Matrix rm = RowMean(a);
  EXPECT_FLOAT_EQ(rm[0], 2.f);
  Matrix rn = RowNorm(a);
  EXPECT_NEAR(rn[0], std::sqrt(14.f), 1e-5);
  Matrix rd = RowDot(a, a);
  EXPECT_FLOAT_EQ(rd[1], 16 + 25 + 36);
  Matrix rc = RowCosine(a, a);
  EXPECT_NEAR(rc[0], 1.f, 1e-6);
}

TEST(OpsTest, ShapeUtilities) {
  Matrix a(2, 2, std::vector<float>{1, 2, 3, 4});
  Matrix b(2, 1, std::vector<float>{9, 8});
  Matrix cc = ConcatCols(a, b);
  EXPECT_EQ(cc.cols(), 3);
  EXPECT_FLOAT_EQ(cc.at(1, 2), 8.f);
  Matrix cr = ConcatRows(a, a);
  EXPECT_EQ(cr.rows(), 4);
  Matrix sc = SliceCols(cc, 1, 2);
  EXPECT_FLOAT_EQ(sc.at(0, 1), 9.f);
  Matrix sr = SliceRows(cr, 2, 2);
  EXPECT_TRUE(AllClose(sr, a));
  Matrix t = Transpose(a);
  EXPECT_FLOAT_EQ(t.at(0, 1), 3.f);
}

TEST(OpsTest, GatherAndScatter) {
  Matrix a(3, 2, std::vector<float>{1, 2, 3, 4, 5, 6});
  Matrix g = GatherRows(a, {2, 0, 2});
  EXPECT_FLOAT_EQ(g.at(0, 0), 5.f);
  EXPECT_FLOAT_EQ(g.at(2, 1), 6.f);
  Matrix out(3, 2);
  ScatterAddRows(g, {0, 0, 1}, &out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 6.f);  // 5 + 1
  EXPECT_FLOAT_EQ(out.at(1, 1), 6.f);
}

TEST(InitTest, XavierBoundsAndNormalMoments) {
  Rng rng(77);
  Matrix m(200, 100);
  InitXavier(&m, &rng);
  const float bound = std::sqrt(6.f / (200 + 100));
  EXPECT_LE(MaxAbs(m), bound + 1e-6);
  Matrix n(400, 50);
  InitNormal(&n, &rng, 0.f, 0.1f);
  EXPECT_NEAR(MeanAll(n), 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(SquaredNorm(n) / n.size()), 0.1, 0.01);
}

TEST(FillNormalTest, MomentsAndTailsMatchStandardNormal) {
  Matrix m(1024, 1024);  // 2^20 draws
  FillNormal(&m, 0x243f6a8885a308d3ULL, 0.f, 1.f);
  const double n = static_cast<double>(m.size());
  double s1 = 0, s2 = 0, s4 = 0;
  int64_t beyond2 = 0, beyond3 = 0;
  for (int64_t i = 0; i < m.size(); ++i) {
    const double z = m[i];
    ASSERT_TRUE(std::isfinite(z)) << i;
    s1 += z;
    s2 += z * z;
    s4 += z * z * z * z;
    beyond2 += std::fabs(z) > 2;
    beyond3 += std::fabs(z) > 3;
  }
  // Tolerances are ~5 standard errors at n = 2^20.
  const double mean = s1 / n;
  const double var = s2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.005);
  EXPECT_NEAR(var, 1.0, 0.007);
  EXPECT_NEAR((s4 / n) / (var * var), 3.0, 0.03);  // kurtosis
  EXPECT_NEAR(beyond2 / n, 0.0455003, 0.001);
  EXPECT_NEAR(beyond3 / n, 0.0026998, 0.00025);
}

TEST(FillNormalTest, KeysAndNeighboursAreUncorrelated) {
  Matrix a(512, 512), b(512, 512);
  FillNormal(&a, 1, 0.f, 1.f);
  FillNormal(&b, 2, 0.f, 1.f);
  // Correlation of a with b, and of a with itself shifted by 1 (the two
  // halves of a Box-Muller pair) and by 8 (neighbouring lanes).
  auto corr = [](const Matrix& x, const Matrix& y, int64_t lag) {
    double sxy = 0, sxx = 0, syy = 0;
    for (int64_t i = 0; i + lag < x.size(); ++i) {
      sxy += static_cast<double>(x[i]) * y[i + lag];
      sxx += static_cast<double>(x[i]) * x[i];
      syy += static_cast<double>(y[i + lag]) * y[i + lag];
    }
    return sxy / std::sqrt(sxx * syy);
  };
  EXPECT_NEAR(corr(a, b, 0), 0.0, 0.01);
  EXPECT_NEAR(corr(a, a, 1), 0.0, 0.01);
  EXPECT_NEAR(corr(a, a, 8), 0.0, 0.01);
}

TEST(FillNormalTest, SubRangesReproduceTheFullFill) {
  const simd::KernelTable& kt = simd::ActiveKernels();
  const uint64_t key = 0xb7e151628aed2a6aULL;
  std::vector<float> full(1000);
  kt.normal_fill(key, 0, 1000, 0.5f, 2.f, full.data());
  const int64_t ranges[][2] = {{0, 1},    {1, 2},     {3, 4},     {7, 40},
                               {31, 33},  {32, 64},   {33, 97},   {101, 102},
                               {255, 999}, {999, 1000}, {500, 500}};
  for (const auto& r : ranges) {
    const int64_t b = r[0], e = r[1];
    std::vector<float> part(static_cast<size_t>(e - b) + 1, -7.f);
    kt.normal_fill(key, b, e, 0.5f, 2.f, part.data());
    EXPECT_EQ(0, std::memcmp(part.data(), full.data() + b,
                             static_cast<size_t>(e - b) * sizeof(float)))
        << "[" << b << ", " << e << ")";
    EXPECT_EQ(part.back(), -7.f) << "wrote past end, [" << b << ", " << e
                                 << ")";
  }
  // FillNormal over a matrix is the same stream.
  Matrix m(10, 100);
  FillNormal(&m, key, 0.5f, 2.f);
  EXPECT_EQ(0, std::memcmp(m.data(), full.data(), 1000 * sizeof(float)));
}

TEST(OpsTest, AllCloseDetectsDifferences) {
  Matrix a(2, 2, 1.f);
  Matrix b = a;
  EXPECT_TRUE(AllClose(a, b));
  b.at(1, 1) = 1.1f;
  EXPECT_FALSE(AllClose(a, b));
  EXPECT_FALSE(AllClose(a, Matrix(2, 3)));
}

}  // namespace
}  // namespace graphaug
