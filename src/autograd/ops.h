#ifndef GRAPHAUG_AUTOGRAD_OPS_H_
#define GRAPHAUG_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/tape.h"
#include "common/rng.h"
#include "graph/bipartite_graph.h"
#include "graph/csr.h"

namespace graphaug::ag {

/// Differentiable operations. Every function appends one node to the tape
/// of its first Var argument and returns a handle to it. Sparse matrices
/// and index vectors are captured by pointer/copy and must outlive the
/// tape's Backward call.

// ---------------------------------------------------------------- leaves
/// Trainable leaf (gradient accumulates into the parameter).
Var Leaf(Tape* tape, Parameter* param);
/// Non-trainable constant.
Var Constant(Tape* tape, Matrix value);

// ----------------------------------------------------------- elementwise
Var Add(Var a, Var b);
Var Sub(Var a, Var b);
Var Mul(Var a, Var b);  ///< Hadamard product.
Var Neg(Var a);
Var Scale(Var a, float s);
Var AddScalar(Var a, float s);
Var Sigmoid(Var a);
Var Tanh(Var a);
Var Relu(Var a);
Var LeakyRelu(Var a, float slope);
Var Exp(Var a);
/// log(x + eps); eps guards against log(0).
Var Log(Var a, float eps = 1e-10f);
/// log(1 + e^x), numerically stable.
Var Softplus(Var a);
Var Square(Var a);
/// Inverted dropout: scales kept entries by 1/(1-p). Pass-through when
/// p == 0. Mask is drawn once at forward time from `rng`.
Var Dropout(Var a, float p, Rng* rng);

// ------------------------------------------------------- linear algebra
/// Dense product with optional transposes: op(a) * op(b).
Var MatMul(Var a, Var b, bool trans_a = false, bool trans_b = false);
/// Two-layer perceptron over a row pair as one node (the edge scorer's
/// Eq. 4 MLP): logits = LeakyRelu_slope(xu·W_u + xv·W_v + b1)·w2 + b2,
/// where W_u / W_v are the top / bottom rows of `w1`. Bitwise equal, in
/// the logits and all six gradients, to MatMul → AddRowBroadcast →
/// LeakyRelu → MatMul → AddRowBroadcast over ConcatCols(xu, xv), without
/// the (n x 2d) concat or the pre-activations on the tape. Requires
/// slope >= 0.
Var PairMlp(Var xu, Var xv, Var w1, Var b1, Var w2, Var b2, float slope);
/// Sparse-dense product: csr * dense. The sparse matrix is constant.
Var Spmm(const CsrMatrix* csr, Var dense);
/// Sparse-dense product whose nonzero values are differentiable functions
/// of per-interaction weights `edge_w` ((E x 1) column vector):
///   value[k] = adj->base_values[k] * edge_w[adj->nnz_to_edge[k]]
/// (self-loops use weight 1). Gradient flows to both `dense` and `edge_w`.
/// This is the op that makes GraphAug's sampled graphs differentiable.
Var EdgeWeightedSpmm(const NormalizedAdjacency* adj, Var edge_w, Var dense);

// ------------------------------------------------------ shape / indexing
/// out[i] = a[idx[i]] (rows); backward scatter-adds.
Var GatherRows(Var a, std::vector<int32_t> idx);
Var ConcatCols(Var a, Var b);
Var SliceCols(Var a, int64_t start, int64_t len);

// ----------------------------------------------------------- broadcasts
/// Adds a (1 x d) row vector to every row of a (n x d) matrix.
Var AddRowBroadcast(Var a, Var row);
/// Multiplies every row of a (n x d) matrix by a (1 x d) row vector.
Var MulRowBroadcast(Var a, Var row);
/// Multiplies row r of a (n x d) matrix by scalar col[r] of a (n x 1) vector.
Var MulColBroadcast(Var a, Var col);
/// Mixes a (n x d) matrix with constant noise under a (1 x d) mask:
///   y = h ⊙ m + ε ⊙ (1 − m),  m broadcast over the rows.
/// One node with one (n x d) output; the op owns `eps`. Bitwise equal to
/// Add(MulRowBroadcast(h, m),
///     MulRowBroadcast(Constant(ε), AddScalar(Neg(m), 1))),
/// values and gradients alike — the edge scorer's disturb step (Eq. 4).
Var MaskedNoiseMix(Var h, Var mask, Matrix eps);

// ------------------------------------------------------------ reductions
/// Mean over all elements -> (1 x 1).
Var MeanAll(Var a);
/// Sum over all elements -> (1 x 1).
Var SumAll(Var a);
/// Row-wise sum -> (n x 1).
Var RowSum(Var a);
/// Row-wise dot products of two same-shape matrices -> (n x 1).
Var RowDot(Var a, Var b);
/// Row-wise log-sum-exp -> (n x 1), numerically stable.
Var LogSumExpRows(Var a);
/// Row-wise L2 normalization: y_r = x_r / max(||x_r||, eps).
Var RowL2Normalize(Var a, float eps = 1e-12f);

// ------------------------------------------------------- composite losses
/// BPR loss (Eq. 15): mean softplus(neg_score - pos_score) over rows of the
/// two (n x 1) score vectors.
Var BprLoss(Var pos_scores, Var neg_scores);

/// InfoNCE (Eq. 14) between matching rows of two (n x d) views; both are
/// L2-normalized internally; all other rows in the batch act as negatives.
Var InfoNceLoss(Var view_a, Var view_b, float temperature);

/// KL(N(mu, sigma) || N(0, 1)) averaged over rows, with sigma derived from
/// `raw_sigma` through softplus for positivity. Used by the GIB bound
/// (Eq. 9).
Var GaussianKl(Var mu, Var raw_sigma);

}  // namespace graphaug::ag

#endif  // GRAPHAUG_AUTOGRAD_OPS_H_
