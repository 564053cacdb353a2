#ifndef GRAPHAUG_TENSOR_OPS_H_
#define GRAPHAUG_TENSOR_OPS_H_

#include "tensor/matrix.h"

namespace graphaug {

/// Dense kernels used by the autograd engine and by models directly.
/// Everything works on row-major float matrices; outputs are written into
/// caller-provided matrices (resized on demand) or returned by value.

/// out = alpha * op(a) * op(b) + beta * out, where op is optional transpose.
/// Shapes are checked. The inner loop is blocked for cache friendliness.
void Gemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
          float alpha, float beta, Matrix* out);

/// Returns a * b (no transposes), convenience wrapper.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// out[i] = a[i] + b[i].
Matrix Add(const Matrix& a, const Matrix& b);
/// out[i] = a[i] - b[i].
Matrix Sub(const Matrix& a, const Matrix& b);
/// out[i] = a[i] * b[i] (Hadamard product).
Matrix Mul(const Matrix& a, const Matrix& b);
/// out[i] = a[i] * s.
Matrix Scale(const Matrix& a, float s);
/// a += b (in place).
void AddInPlace(Matrix* a, const Matrix& b);
/// a += s * b (axpy, in place).
void Axpy(float s, const Matrix& b, Matrix* a);

/// Sum of all elements.
double SumAll(const Matrix& a);
/// Mean of all elements.
double MeanAll(const Matrix& a);
/// Maximum absolute element (0 for empty matrices).
float MaxAbs(const Matrix& a);
/// Squared Frobenius norm.
double SquaredNorm(const Matrix& a);

/// Row-wise sums: returns (rows x 1).
Matrix RowSum(const Matrix& a);
/// Row-wise means: returns (rows x 1).
Matrix RowMean(const Matrix& a);
/// Row-wise L2 norms: returns (rows x 1); entries are >= eps.
Matrix RowNorm(const Matrix& a, float eps = 1e-12f);

/// Dot product of matching rows: returns (rows x 1) with out[r] = a_r . b_r.
Matrix RowDot(const Matrix& a, const Matrix& b);

/// Cosine similarity of matching rows of a and b: (rows x 1).
Matrix RowCosine(const Matrix& a, const Matrix& b, float eps = 1e-12f);

/// Transposed copy.
Matrix Transpose(const Matrix& a);

/// Horizontal concatenation [a | b].
Matrix ConcatCols(const Matrix& a, const Matrix& b);
/// Vertical concatenation [a ; b].
Matrix ConcatRows(const Matrix& a, const Matrix& b);
/// Column slice a[:, start : start+len].
Matrix SliceCols(const Matrix& a, int64_t start, int64_t len);
/// Row slice a[start : start+len, :].
Matrix SliceRows(const Matrix& a, int64_t start, int64_t len);

/// Gathers rows by index: out[i] = a[idx[i]].
Matrix GatherRows(const Matrix& a, const std::vector<int32_t>& idx);
/// Scatter-add: for each i, out->row(idx[i]) += src.row(i). `out` must be
/// preallocated with the right number of columns.
void ScatterAddRows(const Matrix& src, const std::vector<int32_t>& idx,
                    Matrix* out);

/// True if all elements of a and b differ by at most atol + rtol*|b|.
bool AllClose(const Matrix& a, const Matrix& b, float rtol = 1e-4f,
              float atol = 1e-5f);

}  // namespace graphaug

#endif  // GRAPHAUG_TENSOR_OPS_H_
