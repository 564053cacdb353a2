#ifndef GRAPHAUG_TENSOR_MATRIX_H_
#define GRAPHAUG_TENSOR_MATRIX_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/memory.h"

namespace graphaug {

/// Dense row-major float matrix. This is the single tensor type used by the
/// whole library: vectors are (n x 1) or (1 x n) matrices, scalars are
/// (1 x 1). Copyable and movable; copies are deep.
///
/// Storage is an obs::TrackedFloatVec, so every tensor buffer feeds the
/// byte-level memory accounting (obs/memory.h) — a few relaxed atomic ops
/// per allocation, zero in GRAPHAUG_NO_OBS builds where the allocator
/// degenerates to std::allocator.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows * cols), 0.f) {
    GA_CHECK_GE(rows, 0);
    GA_CHECK_GE(cols, 0);
  }

  /// rows x cols matrix whose elements are left unwritten, for outputs
  /// that the caller overwrites in full before any read. Saves the zero
  /// pass over the buffer. Builds without NDEBUG fill it with quiet NaN,
  /// so a read-before-write surfaces as NaN in the Debug test suite.
  static Matrix Uninit(int64_t rows, int64_t cols) {
    GA_CHECK_GE(rows, 0);
    GA_CHECK_GE(cols, 0);
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(static_cast<size_t>(rows * cols));  // default-init
#ifndef NDEBUG
    m.Fill(std::numeric_limits<float>::quiet_NaN());
#endif
    return m;
  }

  /// rows x cols matrix filled with `fill`.
  Matrix(int64_t rows, int64_t cols, float fill)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), fill) {}

  /// Builds from explicit data (row-major); data.size() must equal
  /// rows * cols. The data is copied into tracked storage.
  Matrix(int64_t rows, int64_t cols, const std::vector<float>& data)
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    GA_CHECK_EQ(static_cast<int64_t>(data_.size()), rows * cols);
  }

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& at(int64_t r, int64_t c) {
    GA_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  float at(int64_t r, int64_t c) const {
    GA_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

  /// Pointer to the beginning of row r.
  float* row(int64_t r) { return data_.data() + r * cols_; }
  const float* row(int64_t r) const { return data_.data() + r * cols_; }

  /// Sets every element to `v`.
  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Sets every element to zero.
  void Zero() { Fill(0.f); }

  /// True when shapes match.
  bool SameShape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  /// Scalar accessor; requires a 1x1 matrix.
  float scalar() const {
    GA_CHECK_EQ(size(), 1);
    return data_[0];
  }

  /// Human-readable shape, e.g. "[3x4]".
  std::string ShapeString() const;

  /// Debug dump (small matrices only).
  std::string ToString(int max_rows = 8, int max_cols = 8) const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  obs::TrackedFloatVec data_;
};

}  // namespace graphaug

#endif  // GRAPHAUG_TENSOR_MATRIX_H_
