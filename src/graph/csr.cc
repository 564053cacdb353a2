#include "graph/csr.h"

#include <algorithm>
#include <mutex>

#include "common/parallel.h"
#include "obs/scope.h"
#include "tensor/kernel_dispatch.h"

namespace graphaug {
namespace {

/// Output rows per SpMM chunk, sized so each chunk carries roughly 32K
/// multiply-adds given the average row population.
int64_t SpmmGrain(int64_t rows, int64_t nnz, int64_t dense_cols) {
  const int64_t per_row =
      std::max<int64_t>(1, nnz / std::max<int64_t>(1, rows)) *
      std::max<int64_t>(1, dense_cols);
  return std::max<int64_t>(1, (int64_t{32} << 10) / per_row);
}

/// Mirror rows per SpmmT chunk: ~256K multiply-adds. The transposed
/// product is bandwidth-bound rather than compute-bound, so chunks are
/// coarser than Spmm's — fewer dispatches and a bigger contiguous output
/// slab per worker — while a Yelp-scale adjacency still decomposes into
/// dozens of chunks for load balance. (SpmmT accumulates strictly within
/// each output row, so unlike reductions its result is independent of the
/// grain; this is a pure throughput knob.)
int64_t SpmmTGrain(int64_t rows, int64_t nnz, int64_t dense_cols) {
  const int64_t per_row =
      std::max<int64_t>(1, nnz / std::max<int64_t>(1, rows)) *
      std::max<int64_t>(1, dense_cols);
  return std::max<int64_t>(1, (int64_t{256} << 10) / per_row);
}

}  // namespace

std::vector<float> CscMirror::PermuteValues(
    const std::vector<float>& values) const {
  std::vector<float> out(src.size());
  for (size_t k = 0; k < src.size(); ++k) {
    out[k] = values[static_cast<size_t>(src[k])];
  }
  return out;
}

void CscMirrorSpmm(const CscMirror& mirror, const float* pv,
                   const Matrix& dense, Matrix* out) {
  const int64_t m_rows = static_cast<int64_t>(mirror.col_ptr.size()) - 1;
  const int64_t d = dense.cols();
  GA_CHECK_EQ(out->rows(), m_rows);
  GA_CHECK_EQ(out->cols(), d);
  const simd::KernelTable& kt = simd::ActiveKernels();
  // Stream the contiguous mirror values and gather dense rows directly:
  // each output row is one spmm_segment call, the dispatch table's row
  // kernel.
  ParallelFor(0, m_rows, SpmmTGrain(m_rows, mirror.nnz(), d),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const int64_t k0 = mirror.col_ptr[r];
                  kt.spmm_segment(pv + k0, mirror.row_idx.data() + k0,
                                  mirror.col_ptr[r + 1] - k0, dense.data(), d,
                                  out->row(r));
                }
              });
}

CsrMatrix CsrMatrix::FromCoo(int64_t rows, int64_t cols,
                             std::vector<CooEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const CooEntry& a, const CooEntry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  // Merge duplicates.
  std::vector<CooEntry> merged;
  merged.reserve(entries.size());
  for (const CooEntry& e : entries) {
    GA_CHECK(e.row >= 0 && e.row < rows && e.col >= 0 && e.col < cols)
        << "entry (" << e.row << "," << e.col << ") out of bounds";
    if (!merged.empty() && merged.back().row == e.row &&
        merged.back().col == e.col) {
      merged.back().value += e.value;
    } else {
      merged.push_back(e);
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.resize(merged.size());
  m.values_.resize(merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    m.row_ptr_[merged[i].row + 1]++;
    m.col_idx_[i] = merged[i].col;
    m.values_[i] = merged[i].value;
  }
  for (int64_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

CsrMatrix CsrMatrix::Identity(int64_t n) {
  std::vector<CooEntry> entries;
  entries.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    entries.push_back({static_cast<int32_t>(i), static_cast<int32_t>(i), 1.f});
  }
  return FromCoo(n, n, std::move(entries));
}

namespace {
/// One global mutex for every instance's lazy caches: builds are rare
/// (once per pattern / value array) and the fast path takes the lock only
/// long enough to test a pointer.
std::mutex g_mirror_mu;
}  // namespace

std::vector<float>* CsrMatrix::mutable_values() {
  std::lock_guard<std::mutex> lock(g_mirror_mu);
  mirror_values_cache_.reset();
  return &values_;
}

CsrMatrix CsrMatrix::WithValues(std::vector<float> values) const {
  GA_CHECK_EQ(static_cast<int64_t>(values.size()), nnz());
  CsrMatrix m = *this;
  m.values_ = std::move(values);
  // The pattern cache transfers (value-independent); the permuted-values
  // cache belongs to the old value array and must not.
  m.mirror_values_cache_.reset();
  return m;
}

void CsrMatrix::Spmm(const Matrix& dense, Matrix* out, bool accumulate) const {
  GA_TRACE_SPAN("spmm");
  GA_CHECK_EQ(dense.rows(), cols_);
  if (!accumulate || out->rows() != rows_ || out->cols() != dense.cols()) {
    *out = Matrix(rows_, dense.cols());
  }
  const int64_t d = dense.cols();
  const simd::KernelTable& kt = simd::ActiveKernels();
  ParallelFor(0, rows_, SpmmGrain(rows_, nnz(), d),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const int64_t k0 = row_ptr_[r];
                  kt.spmm_segment(values_.data() + k0, col_idx_.data() + k0,
                                  row_ptr_[r + 1] - k0, dense.data(), d,
                                  out->row(r));
                }
              });
}

const CscMirror& CsrMatrix::Mirror() const {
  std::lock_guard<std::mutex> lock(g_mirror_mu);
  if (mirror_cache_ == nullptr) {
    auto mir = std::make_shared<CscMirror>();
    const int64_t n = nnz();
    mir->col_ptr.assign(cols_ + 1, 0);
    for (int64_t k = 0; k < n; ++k) mir->col_ptr[col_idx_[k] + 1]++;
    for (int64_t c = 0; c < cols_; ++c) mir->col_ptr[c + 1] += mir->col_ptr[c];
    mir->row_idx.resize(n);
    mir->src.resize(n);
    std::vector<int64_t> fill(mir->col_ptr.begin(), mir->col_ptr.end() - 1);
    // Walking nonzeros in (row, col) order makes each mirror row sorted
    // by original row — the accumulation order of the serial scatter.
    for (int64_t r = 0; r < rows_; ++r) {
      for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        const int64_t pos = fill[col_idx_[k]]++;
        mir->row_idx[pos] = static_cast<int32_t>(r);
        mir->src[pos] = k;
      }
    }
    mirror_cache_ = std::move(mir);
  }
  return *mirror_cache_;
}

const std::vector<float>& CsrMatrix::MirrorValues() const {
  const CscMirror& mir = Mirror();  // ensure the pattern exists first
  std::lock_guard<std::mutex> lock(g_mirror_mu);
  if (mirror_values_cache_ == nullptr) {
    mirror_values_cache_ = std::make_shared<const std::vector<float>>(
        mir.PermuteValues(values_));
  }
  return *mirror_values_cache_;
}

void CsrMatrix::SpmmT(const Matrix& dense, Matrix* out,
                      bool accumulate) const {
  GA_TRACE_SPAN("spmm_t");
  GA_CHECK_EQ(dense.rows(), rows_);
  if (!accumulate || out->rows() != cols_ || out->cols() != dense.cols()) {
    *out = Matrix(cols_, dense.cols());
  }
  CscMirrorSpmm(Mirror(), MirrorValues().data(), dense, out);
}

CsrMatrix CsrMatrix::Transpose() const {
  std::vector<CooEntry> entries;
  entries.reserve(nnz());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      entries.push_back({col_idx_[k], static_cast<int32_t>(r), values_[k]});
    }
  }
  return FromCoo(cols_, rows_, std::move(entries));
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out.at(r, col_idx_[k]) += values_[k];
    }
  }
  return out;
}

std::vector<int64_t> CsrMatrix::RowDegrees() const {
  std::vector<int64_t> deg(rows_);
  for (int64_t r = 0; r < rows_; ++r) deg[r] = row_ptr_[r + 1] - row_ptr_[r];
  return deg;
}

}  // namespace graphaug
