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

/// Two-layer perceptron over a pair of row blocks, without forming their
/// concatenation:
///   hidden = LeakyRelu_slope(xu·W_u + xv·W_v + b1),  logits = hidden·w2 + b2
/// where W_u / W_v are the top xu.cols() / bottom xv.cols() rows of w1
/// ((du + dv) x n), b1 is 1 x n, w2 n x 1 and b2 1 x 1; slope >= 0. The
/// first layer is a K-split GEMM whose bias + LeakyRelu epilogue and d -> 1
/// layer run per row block. Bitwise equal to Gemm(ConcatCols(xu, xv), w1),
/// + b1, LeakyRelu, Gemm(hidden, w2), + b2 at any thread count and on
/// either kernel table (DESIGN.md §11).
void PairMlpForward(const Matrix& xu, const Matrix& xv, const Matrix& w1,
                    const Matrix& b1, const Matrix& w2, const Matrix& b2,
                    float slope, Matrix* hidden, Matrix* logits);

/// Gradients of PairMlpForward's logits. PairMlpBackward forms only the
/// entries whose need_* flag is set and leaves the others empty.
struct PairMlpGrads {
  bool need_xu = true, need_xv = true, need_w1 = true;
  bool need_b1 = true, need_w2 = true, need_b2 = true;
  Matrix dxu, dxv, dw1, db1, dw2, db2;
};

/// Backward of PairMlpForward given d(loss)/d(logits) (m x 1) and the
/// forward's `hidden`; every gradient is bitwise the composed graph's.
void PairMlpBackward(const Matrix& dlogits, const Matrix& xu,
                     const Matrix& xv, const Matrix& w1, const Matrix& w2,
                     const Matrix& hidden, float slope, PairMlpGrads* g);

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
