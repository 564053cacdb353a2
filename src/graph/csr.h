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

/// Materialized CSC mirror of a CSR matrix — the transpose viewed as its
/// own compressed structure. Row j of the mirror lists the original
/// nonzeros whose column is j, in ascending original-row order, with
/// `src[k]` pointing back at the original nonzero index. The pattern
/// (col_ptr / row_idx / src) is value-independent, so one build serves
/// every value array sharing the sparsity (WithValues copies); transposed
/// products additionally stream a *permuted contiguous* value array
/// (values in mirror order) so the inner loop pays one indirection — the
/// dense-row gather — instead of two. The ascending-original-row order
/// per mirror row reproduces the serial scatter's accumulation order
/// exactly, which is what keeps the product bitwise identical to it.
struct CscMirror {
  std::vector<int64_t> col_ptr;  ///< size cols+1
  std::vector<int32_t> row_idx;  ///< original row of each nonzero
  std::vector<int64_t> src;      ///< original nonzero index (permutation)

  int64_t nnz() const { return static_cast<int64_t>(row_idx.size()); }

  /// Applies the src permutation to a value array given in original
  /// nonzero order: out[k] = values[src[k]]. O(nnz).
  std::vector<float> PermuteValues(const std::vector<float>& values) const;
};

/// Shared transposed-product kernel: out->row(j) += pv[k] * dense.row(
/// row_idx[k]) for k in [col_ptr[j], col_ptr[j+1]), where `pv` holds nnz
/// values already in mirror (permuted) order. `out` must be pre-sized to
/// (mirror rows x dense.cols()); existing contents are accumulated into.
/// Row-parallel over the shared runtime; bitwise deterministic at any
/// thread count. Also used by the edge-weighted SpMM backward, whose
/// gradient merge streams sampled edge values through the same mirror.
void CscMirrorSpmm(const CscMirror& mirror, const float* pv,
                   const Matrix& dense, Matrix* out);

/// Compressed-sparse-row float matrix. The pattern is immutable after
/// construction; the value array may be swapped out (see WithValues) or
/// mutated in place (see mutable_values), which is how sampled edge
/// weights are injected without rebuilding the pattern.
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

  /// In-place access to the value array. Every call invalidates this
  /// instance's cached mirror values (the permuted copy is rebuilt on the
  /// next transposed product); callers must not stash the pointer across
  /// products. The shared pattern cache is value-independent and stays.
  std::vector<float>* mutable_values();

  /// Returns a copy of this matrix with the same pattern but new values
  /// (size must equal nnz()). The copy shares this matrix's cached CSC
  /// mirror *pattern* — value-independent, so swapping the value array
  /// never invalidates it — but drops the permuted mirror-values cache,
  /// which is rebuilt lazily for the new values.
  CsrMatrix WithValues(std::vector<float> values) const;

  /// Sparse-dense product: out = this * dense. dense.rows() must equal
  /// cols(). If `accumulate` is false, out is resized/zeroed first.
  /// Row-parallel over the shared runtime; bitwise deterministic at any
  /// thread count.
  void Spmm(const Matrix& dense, Matrix* out, bool accumulate = false) const;

  /// Transposed sparse-dense product: out = this^T * dense. Streams the
  /// materialized CSC mirror (built and cached on first use), bitwise
  /// identical to the serial scatter formulation at any thread count.
  void SpmmT(const Matrix& dense, Matrix* out, bool accumulate = false) const;

  /// Lazily built, thread-safe CSC mirror pattern; shared by all
  /// value-copies of this matrix (the pattern is immutable after
  /// construction).
  const CscMirror& Mirror() const;

  /// Lazily built permuted contiguous value array (values in mirror
  /// order), cached per value-array: invalidated by mutable_values() and
  /// dropped by WithValues copies. Thread-safe.
  const std::vector<float>& MirrorValues() const;

  /// Transposed copy (pattern + values).
  CsrMatrix Transpose() const;

  /// Densifies (test/debug helper; use only for small matrices).
  Matrix ToDense() const;

  /// Per-row nonzero count.
  std::vector<int64_t> RowDegrees() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_;   // size rows_+1
  std::vector<int32_t> col_idx_;   // size nnz
  std::vector<float> values_;      // size nnz
  /// Lazy mirror-pattern cache (see Mirror()). Copied pointer-wise with
  /// the matrix: any copy shares the same immutable pattern, so the
  /// cached mirror stays valid for it.
  mutable std::shared_ptr<const CscMirror> mirror_cache_;
  /// Lazy permuted-values cache (see MirrorValues()). Valid only for the
  /// exact value array it was built from: copies made by the implicit
  /// copy constructor carry identical values so the shared pointer stays
  /// consistent, while WithValues and mutable_values() reset it.
  mutable std::shared_ptr<const std::vector<float>> mirror_values_cache_;
};

}  // namespace graphaug

#endif  // GRAPHAUG_GRAPH_CSR_H_
