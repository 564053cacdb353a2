#include "graph/csr.h"

#include <algorithm>
#include <cstring>

#include "common/parallel.h"
#include "obs/scope.h"
#include "tensor/kernel_dispatch.h"

namespace graphaug {

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
  auto t = std::make_shared<const CsrMatrix>(m.CountingSortTranspose());
  m.symmetric_ = t->row_ptr_ == m.row_ptr_ && t->col_idx_ == m.col_idx_ &&
                 (m.values_.empty() ||
                  std::memcmp(t->values_.data(), m.values_.data(),
                              sizeof(float) * m.values_.size()) == 0);
  if (!m.symmetric_) m.transpose_ = std::move(t);
  return m;
}

CsrMatrix CsrMatrix::CountingSortTranspose() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.symmetric_ = false;
  const int64_t n = nnz();
  t.row_ptr_.assign(cols_ + 1, 0);
  for (int64_t k = 0; k < n; ++k) t.row_ptr_[col_idx_[k] + 1]++;
  for (int64_t c = 0; c < cols_; ++c) t.row_ptr_[c + 1] += t.row_ptr_[c];
  t.col_idx_.resize(n);
  t.values_.resize(n);
  std::vector<int64_t> fill(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  // Walking nonzeros in (row, col) order leaves each transposed row
  // sorted by original row, the accumulation order of a serial scatter.
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const int64_t pos = fill[col_idx_[k]]++;
      t.col_idx_[pos] = static_cast<int32_t>(r);
      t.values_[pos] = values_[k];
    }
  }
  return t;
}

CsrMatrix CsrMatrix::Identity(int64_t n) {
  std::vector<CooEntry> entries;
  entries.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    entries.push_back({static_cast<int32_t>(i), static_cast<int32_t>(i), 1.f});
  }
  return FromCoo(n, n, std::move(entries));
}

int64_t CsrMatrix::RowGrain(int64_t dense_cols) const {
  const int64_t per_row =
      std::max<int64_t>(1, nnz() / std::max<int64_t>(1, rows_)) *
      std::max<int64_t>(1, dense_cols);
  return std::max<int64_t>(1, (int64_t{32} << 10) / per_row);
}

void CsrMatrix::Spmm(const Matrix& dense, Matrix* out, bool accumulate) const {
  GA_TRACE_SPAN("spmm");
  GA_CHECK_EQ(dense.rows(), cols_);
  if (!accumulate || out->rows() != rows_ || out->cols() != dense.cols()) {
    *out = Matrix(rows_, dense.cols());
  }
  SpmmValues(values_.data(), dense, out);
}

void CsrMatrix::SpmmValues(const float* values, const Matrix& dense,
                           Matrix* out) const {
  const int64_t d = dense.cols();
  GA_CHECK_EQ(dense.rows(), cols_);
  GA_CHECK_EQ(out->rows(), rows_);
  GA_CHECK_EQ(out->cols(), d);
  const simd::KernelTable& kt = simd::ActiveKernels();
  ParallelFor(0, rows_, RowGrain(d), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t k0 = row_ptr_[r];
      kt.spmm_segment(values + k0, col_idx_.data() + k0, row_ptr_[r + 1] - k0,
                      dense.data(), d, out->row(r));
    }
  });
}

void CsrMatrix::SpmmT(const Matrix& dense, Matrix* out,
                      bool accumulate) const {
  GA_CHECK(symmetric_ || transpose_ != nullptr) << "no stored transpose";
  (symmetric_ ? *this : *transpose_).Spmm(dense, out, accumulate);
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
