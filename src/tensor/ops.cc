#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "obs/scope.h"
#include "tensor/kernel_dispatch.h"

namespace graphaug {
namespace {

// Static-chunk grains for the parallel runtime (common/parallel.h). Chunk
// boundaries depend only on these constants and the problem size, so every
// kernel is bitwise reproducible at any thread count.
constexpr int64_t kElemGrain = 1 << 15;    // elementwise ops, elems/chunk
constexpr int64_t kReduceGrain = 1 << 16;  // full reductions, elems/chunk

// Rows per row-kernel chunk, sized so each chunk carries ~64K inner
// multiply-adds regardless of row width.
int64_t RowGrain(int64_t work_per_row) {
  return std::max<int64_t>(1, (int64_t{64} << 10) /
                                  std::max<int64_t>(1, work_per_row));
}

}  // namespace

Matrix Add(const Matrix& a, const Matrix& b) {
  GA_CHECK(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  Matrix out = Matrix::Uninit(a.rows(), a.cols());
  const simd::KernelTable& kt = simd::ActiveKernels();
  ParallelFor(0, a.size(), kElemGrain, [&](int64_t i0, int64_t i1) {
    kt.add(a.data() + i0, b.data() + i0, out.data() + i0, i1 - i0);
  });
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  GA_CHECK(a.SameShape(b));
  Matrix out = Matrix::Uninit(a.rows(), a.cols());
  const simd::KernelTable& kt = simd::ActiveKernels();
  ParallelFor(0, a.size(), kElemGrain, [&](int64_t i0, int64_t i1) {
    kt.sub(a.data() + i0, b.data() + i0, out.data() + i0, i1 - i0);
  });
  return out;
}

Matrix Mul(const Matrix& a, const Matrix& b) {
  GA_CHECK(a.SameShape(b));
  Matrix out = Matrix::Uninit(a.rows(), a.cols());
  const simd::KernelTable& kt = simd::ActiveKernels();
  ParallelFor(0, a.size(), kElemGrain, [&](int64_t i0, int64_t i1) {
    kt.mul(a.data() + i0, b.data() + i0, out.data() + i0, i1 - i0);
  });
  return out;
}

Matrix Scale(const Matrix& a, float s) {
  Matrix out = Matrix::Uninit(a.rows(), a.cols());
  const simd::KernelTable& kt = simd::ActiveKernels();
  ParallelFor(0, a.size(), kElemGrain, [&](int64_t i0, int64_t i1) {
    kt.scale(a.data() + i0, s, out.data() + i0, i1 - i0);
  });
  return out;
}

void AddInPlace(Matrix* a, const Matrix& b) {
  GA_CHECK(a->SameShape(b));
  const simd::KernelTable& kt = simd::ActiveKernels();
  ParallelFor(0, a->size(), kElemGrain, [&](int64_t i0, int64_t i1) {
    kt.add(a->data() + i0, b.data() + i0, a->data() + i0, i1 - i0);
  });
}

void Axpy(float s, const Matrix& b, Matrix* a) {
  GA_CHECK(a->SameShape(b));
  const simd::KernelTable& kt = simd::ActiveKernels();
  ParallelFor(0, a->size(), kElemGrain, [&](int64_t i0, int64_t i1) {
    kt.axpy(s, b.data() + i0, a->data() + i0, i1 - i0);
  });
}

double SumAll(const Matrix& a) {
  const simd::KernelTable& kt = simd::ActiveKernels();
  return ParallelReduce(0, a.size(), kReduceGrain,
                        [&](int64_t i0, int64_t i1) {
                          return kt.sum(a.data() + i0, i1 - i0);
                        });
}

double MeanAll(const Matrix& a) {
  return a.size() == 0 ? 0.0 : SumAll(a) / static_cast<double>(a.size());
}

float MaxAbs(const Matrix& a) {
  // max is order-independent, so a plain racy-free chunked max is exact.
  const simd::KernelTable& kt = simd::ActiveKernels();
  const int64_t n = a.size();
  const int64_t chunks = (n + kReduceGrain - 1) / kReduceGrain;
  if (chunks <= 1) return n == 0 ? 0.f : kt.maxabs(a.data(), n);
  std::vector<float> partial(static_cast<size_t>(chunks), 0.f);
  ParallelFor(0, n, kReduceGrain, [&](int64_t i0, int64_t i1) {
    partial[static_cast<size_t>(i0 / kReduceGrain)] =
        kt.maxabs(a.data() + i0, i1 - i0);
  });
  float m = 0.f;
  for (float p : partial) m = std::max(m, p);
  return m;
}

double SquaredNorm(const Matrix& a) {
  const simd::KernelTable& kt = simd::ActiveKernels();
  return ParallelReduce(0, a.size(), kReduceGrain,
                        [&](int64_t i0, int64_t i1) {
                          return kt.sqnorm(a.data() + i0, i1 - i0);
                        });
}

Matrix RowSum(const Matrix& a) {
  Matrix out(a.rows(), 1);
  const simd::KernelTable& kt = simd::ActiveKernels();
  ParallelFor(0, a.rows(), RowGrain(a.cols()), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      out[r] = static_cast<float>(kt.sum(a.row(r), a.cols()));
    }
  });
  return out;
}

Matrix RowMean(const Matrix& a) {
  Matrix out = RowSum(a);
  const float inv = a.cols() > 0 ? 1.f / static_cast<float>(a.cols()) : 0.f;
  for (int64_t r = 0; r < out.size(); ++r) out[r] *= inv;
  return out;
}

Matrix RowNorm(const Matrix& a, float eps) {
  Matrix out(a.rows(), 1);
  const simd::KernelTable& kt = simd::ActiveKernels();
  ParallelFor(0, a.rows(), RowGrain(a.cols()), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      out[r] = std::max(
          eps, static_cast<float>(std::sqrt(kt.sqnorm(a.row(r), a.cols()))));
    }
  });
  return out;
}

Matrix RowDot(const Matrix& a, const Matrix& b) {
  GA_CHECK(a.SameShape(b));
  Matrix out(a.rows(), 1);
  const simd::KernelTable& kt = simd::ActiveKernels();
  ParallelFor(0, a.rows(), RowGrain(a.cols()), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      out[r] = static_cast<float>(kt.dot(a.row(r), b.row(r), a.cols()));
    }
  });
  return out;
}

Matrix RowCosine(const Matrix& a, const Matrix& b, float eps) {
  Matrix dots = RowDot(a, b);
  Matrix na = RowNorm(a, eps);
  Matrix nb = RowNorm(b, eps);
  Matrix out(a.rows(), 1);
  for (int64_t r = 0; r < a.rows(); ++r) out[r] = dots[r] / (na[r] * nb[r]);
  return out;
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  ParallelFor(0, a.rows(), RowGrain(a.cols()), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      for (int64_t c = 0; c < a.cols(); ++c) out.at(c, r) = a.at(r, c);
    }
  });
  return out;
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  GA_CHECK_EQ(a.rows(), b.rows());
  Matrix out = Matrix::Uninit(a.rows(), a.cols() + b.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    std::copy(a.row(r), a.row(r) + a.cols(), out.row(r));
    std::copy(b.row(r), b.row(r) + b.cols(), out.row(r) + a.cols());
  }
  return out;
}

Matrix ConcatRows(const Matrix& a, const Matrix& b) {
  GA_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows() + b.rows(), a.cols());
  std::copy(a.data(), a.data() + a.size(), out.data());
  std::copy(b.data(), b.data() + b.size(), out.data() + a.size());
  return out;
}

Matrix SliceCols(const Matrix& a, int64_t start, int64_t len) {
  GA_CHECK_GE(start, 0);
  GA_CHECK_LE(start + len, a.cols());
  Matrix out = Matrix::Uninit(a.rows(), len);
  for (int64_t r = 0; r < a.rows(); ++r) {
    std::copy(a.row(r) + start, a.row(r) + start + len, out.row(r));
  }
  return out;
}

Matrix SliceRows(const Matrix& a, int64_t start, int64_t len) {
  GA_CHECK_GE(start, 0);
  GA_CHECK_LE(start + len, a.rows());
  Matrix out(len, a.cols());
  std::copy(a.row(start), a.row(start) + len * a.cols(), out.data());
  return out;
}

Matrix GatherRows(const Matrix& a, const std::vector<int32_t>& idx) {
  Matrix out = Matrix::Uninit(static_cast<int64_t>(idx.size()), a.cols());
  const int64_t n = static_cast<int64_t>(idx.size());
  ParallelFor(0, n, RowGrain(a.cols()), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      GA_DCHECK(idx[static_cast<size_t>(i)] >= 0 &&
                idx[static_cast<size_t>(i)] < a.rows());
      std::copy(a.row(idx[static_cast<size_t>(i)]),
                a.row(idx[static_cast<size_t>(i)]) + a.cols(), out.row(i));
    }
  });
  return out;
}

void ScatterAddRows(const Matrix& src, const std::vector<int32_t>& idx,
                    Matrix* out) {
  GA_CHECK_EQ(src.rows(), static_cast<int64_t>(idx.size()));
  GA_CHECK_EQ(src.cols(), out->cols());
  // Serial: idx may contain duplicates, so rows of `out` are not disjoint.
  for (size_t i = 0; i < idx.size(); ++i) {
    const float* srow = src.row(static_cast<int64_t>(i));
    float* orow = out->row(idx[i]);
    for (int64_t c = 0; c < src.cols(); ++c) orow[c] += srow[c];
  }
}

bool AllClose(const Matrix& a, const Matrix& b, float rtol, float atol) {
  if (!a.SameShape(b)) return false;
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > atol + rtol * std::fabs(b[i])) return false;
  }
  return true;
}

}  // namespace graphaug
