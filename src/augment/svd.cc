#include "augment/svd.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "tensor/init.h"
#include "tensor/ops.h"

namespace graphaug {
namespace {

/// In-place modified Gram-Schmidt on the columns of `m`, with a second
/// projection pass per column (the classical "twice is enough"
/// re-orthogonalization): a single MGS pass leaves columns that are
/// nearly in the span of their predecessors dominated by cancellation
/// noise, which after normalization is far from orthogonal and inflates
/// downstream Gram eigenvalues. Columns that collapse relative to their
/// pre-projection norm carry no new range direction and are zeroed —
/// downstream products treat them as absent.
void OrthonormalizeColumns(Matrix* m) {
  const int64_t rows = m->rows();
  const int64_t cols = m->cols();
  for (int64_t j = 0; j < cols; ++j) {
    double pre_norm2 = 0;
    for (int64_t i = 0; i < rows; ++i) {
      pre_norm2 += static_cast<double>(m->at(i, j)) * m->at(i, j);
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (int64_t k = 0; k < j; ++k) {
        double dot = 0;
        for (int64_t i = 0; i < rows; ++i) {
          dot += static_cast<double>(m->at(i, k)) * m->at(i, j);
        }
        const float d = static_cast<float>(dot);
        if (d == 0.f) continue;
        for (int64_t i = 0; i < rows; ++i) m->at(i, j) -= d * m->at(i, k);
      }
    }
    double norm2 = 0;
    for (int64_t i = 0; i < rows; ++i) {
      norm2 += static_cast<double>(m->at(i, j)) * m->at(i, j);
    }
    const double norm = std::sqrt(norm2);
    // Relative collapse test: what survived the projections is pure
    // rounding noise when it is ~1e-6 of the column's original length
    // (float eps is 1e-7; one spare decade of slack).
    if (norm <= 1e-6 * std::sqrt(pre_norm2) || norm < 1e-30) {
      for (int64_t i = 0; i < rows; ++i) m->at(i, j) = 0.f;
    } else {
      const float inv = static_cast<float>(1.0 / norm);
      for (int64_t i = 0; i < rows; ++i) m->at(i, j) *= inv;
    }
  }
}

using ApplyFn = std::function<void(const Matrix&, Matrix*)>;

/// Shared driver: `apply` computes A·x, `apply_t` computes Aᵀ·x.
SvdResult RandomizedSvdImpl(int64_t rows, int64_t cols, const ApplyFn& apply,
                            const ApplyFn& apply_t, int rank,
                            int power_iters, int oversample, Rng* rng) {
  GA_CHECK_GE(rank, 1);
  const int64_t q =
      std::min<int64_t>(rank + std::max(0, oversample), std::min(rows, cols));

  // Range probe Y = A G, G Gaussian.
  Matrix probe(cols, q);
  InitNormal(&probe, rng, 0.f, 1.f);
  Matrix range;  // rows x q
  apply(probe, &range);
  OrthonormalizeColumns(&range);

  // Subspace iteration sharpens the probe toward the dominant range.
  Matrix scratch;
  for (int it = 0; it < power_iters; ++it) {
    apply_t(range, &scratch);  // cols x q
    OrthonormalizeColumns(&scratch);
    apply(scratch, &range);  // rows x q
    OrthonormalizeColumns(&range);
  }

  // B = Qᵀ A is q x cols; its transpose Bt = Aᵀ Q is what the sparse
  // kernel produces directly. Gram C = B Bᵀ = Btᵀ Bt (q x q).
  Matrix bt;  // cols x q
  apply_t(range, &bt);
  Matrix gram;
  Gemm(bt, true, bt, false, 1.f, 0.f, &gram);  // q x q

  std::vector<float> eigenvalues;
  Matrix eigenvectors;
  JacobiEigh(gram, &eigenvalues, &eigenvectors);

  const int64_t keep = std::min<int64_t>(rank, q);
  SvdResult result;
  result.s.resize(static_cast<size_t>(keep));
  for (int64_t j = 0; j < keep; ++j) {
    result.s[static_cast<size_t>(j)] =
        std::sqrt(std::max(0.f, eigenvalues[static_cast<size_t>(j)]));
  }
  Matrix w = SliceCols(eigenvectors, 0, keep);  // q x keep
  Gemm(range, false, w, false, 1.f, 0.f, &result.u);  // rows x keep
  Gemm(bt, false, w, false, 1.f, 0.f, &result.v);     // cols x keep
  // V = Bt W diag(1/s); rank-deficient directions stay zero.
  for (int64_t j = 0; j < keep; ++j) {
    const float s = result.s[static_cast<size_t>(j)];
    const float inv = s > 1e-12f ? 1.f / s : 0.f;
    for (int64_t i = 0; i < cols; ++i) result.v.at(i, j) *= inv;
  }
  return result;
}

}  // namespace

void JacobiEigh(const Matrix& a, std::vector<float>* eigenvalues,
                Matrix* eigenvectors) {
  GA_CHECK_EQ(a.rows(), a.cols());
  const int64_t n = a.rows();
  Matrix d = a;  // working copy, driven to diagonal
  Matrix v(n, n);
  for (int64_t i = 0; i < n; ++i) v.at(i, i) = 1.f;

  constexpr int kMaxSweeps = 64;
  constexpr double kTol = 1e-12;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double off = 0;
    for (int64_t p = 0; p < n; ++p) {
      for (int64_t r = p + 1; r < n; ++r) {
        off += static_cast<double>(d.at(p, r)) * d.at(p, r);
      }
    }
    if (off < kTol) break;
    for (int64_t p = 0; p < n; ++p) {
      for (int64_t r = p + 1; r < n; ++r) {
        const double apq = d.at(p, r);
        if (std::abs(apq) < 1e-20) continue;
        const double app = d.at(p, p);
        const double aqq = d.at(r, r);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int64_t k = 0; k < n; ++k) {
          const double dkp = d.at(k, p);
          const double dkq = d.at(k, r);
          d.at(k, p) = static_cast<float>(c * dkp - s * dkq);
          d.at(k, r) = static_cast<float>(s * dkp + c * dkq);
        }
        for (int64_t k = 0; k < n; ++k) {
          const double dpk = d.at(p, k);
          const double dqk = d.at(r, k);
          d.at(p, k) = static_cast<float>(c * dpk - s * dqk);
          d.at(r, k) = static_cast<float>(s * dpk + c * dqk);
        }
        for (int64_t k = 0; k < n; ++k) {
          const double vkp = v.at(k, p);
          const double vkq = v.at(k, r);
          v.at(k, p) = static_cast<float>(c * vkp - s * vkq);
          v.at(k, r) = static_cast<float>(s * vkp + c * vkq);
        }
      }
    }
  }

  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
    return d.at(x, x) > d.at(y, y);
  });
  eigenvalues->resize(static_cast<size_t>(n));
  *eigenvectors = Matrix(n, n);
  for (int64_t j = 0; j < n; ++j) {
    const int64_t src = order[static_cast<size_t>(j)];
    (*eigenvalues)[static_cast<size_t>(j)] = d.at(src, src);
    for (int64_t i = 0; i < n; ++i) {
      eigenvectors->at(i, j) = v.at(i, src);
    }
  }
}

SvdResult RandomizedSvd(const CsrMatrix& a, int rank, int power_iters,
                        int oversample, Rng* rng) {
  return RandomizedSvdImpl(
      a.rows(), a.cols(),
      [&a](const Matrix& x, Matrix* out) { a.Spmm(x, out); },
      [&a](const Matrix& x, Matrix* out) { a.SpmmT(x, out); }, rank,
      power_iters, oversample, rng);
}

}  // namespace graphaug
