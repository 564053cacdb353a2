#ifndef GRAPHAUG_GRAPH_CSR_H_
#define GRAPHAUG_GRAPH_CSR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace graphaug {

/// One nonzero of a sparse matrix in coordinate form.
struct CooEntry {
  int32_t row = 0;
  int32_t col = 0;
  float value = 0.f;
};

/// Compressed-sparse-row float matrix, immutable after construction.
/// FromCoo also derives the transpose once: when it equals the matrix
/// bit for bit (every normalized adjacency; see DESIGN.md §6) nothing
/// more is stored and SpmmT is Spmm, otherwise the transpose is kept as
/// a second CSR and SpmmT runs Spmm over it.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from COO entries; duplicates are summed. O(nnz log nnz).
  static CsrMatrix FromCoo(int64_t rows, int64_t cols,
                           std::vector<CooEntry> entries);

  /// Identity matrix of size n.
  static CsrMatrix Identity(int64_t n);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// True when the matrix equals its transpose: same pattern and values
  /// equal by their bits (so +0/-0 or NaN pairs do not count).
  bool symmetric() const { return symmetric_; }

  /// Output rows per parallel chunk of a row-wise product against a
  /// dense operand with `dense_cols` columns: ~32K multiply-adds at the
  /// average row population.
  int64_t RowGrain(int64_t dense_cols) const;

  /// Sparse-dense product: out = this * dense. dense.rows() must equal
  /// cols(). If `accumulate` is false, out is resized/zeroed first.
  /// Row-parallel over the shared runtime; bitwise deterministic at any
  /// thread count.
  void Spmm(const Matrix& dense, Matrix* out, bool accumulate = false) const;

  /// The row kernel behind every sparse product: out->row(r) +=
  /// values[k] * dense.row(col_idx[k]) over row r's nonzeros, in
  /// ascending column order. `values` holds nnz() floats in this
  /// matrix's nonzero order (values().data() or a reweighted copy over
  /// the same pattern); `out` must already be (rows() x dense.cols()).
  void SpmmValues(const float* values, const Matrix& dense,
                  Matrix* out) const;

  /// Transposed sparse-dense product: out = this^T * dense. Spmm over
  /// this matrix when symmetric, else over the stored transpose. Row j
  /// of the transpose lists column j's nonzeros in ascending row order,
  /// so the result is bitwise identical to a serial scatter over the
  /// rows of this matrix, at any thread count.
  void SpmmT(const Matrix& dense, Matrix* out, bool accumulate = false) const;

  /// Transposed copy (pattern + values).
  CsrMatrix Transpose() const;

  /// Densifies (test/debug helper; use only for small matrices).
  Matrix ToDense() const;

  /// Per-row nonzero count.
  std::vector<int64_t> RowDegrees() const;

 private:
  /// The transpose by counting sort, without a transpose of its own.
  CsrMatrix CountingSortTranspose() const;

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_;   // size rows_+1
  std::vector<int32_t> col_idx_;   // size nnz
  std::vector<float> values_;      // size nnz
  bool symmetric_ = true;
  /// Set by FromCoo for a non-symmetric matrix; shared by copies.
  std::shared_ptr<const CsrMatrix> transpose_;
};

}  // namespace graphaug

#endif  // GRAPHAUG_GRAPH_CSR_H_
