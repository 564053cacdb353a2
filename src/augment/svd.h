#ifndef GRAPHAUG_AUGMENT_SVD_H_
#define GRAPHAUG_AUGMENT_SVD_H_

#include <vector>

#include "common/rng.h"
#include "graph/csr.h"
#include "tensor/matrix.h"

namespace graphaug {

/// Rank-q truncated SVD A ≈ U diag(s) Vᵀ.
struct SvdResult {
  Matrix u;              ///< rows x q, orthonormal columns
  std::vector<float> s;  ///< q singular values, descending
  Matrix v;              ///< cols x q, orthonormal columns
};

/// Randomized truncated SVD via subspace (power) iteration
/// (Halko-Martinsson-Tropp): a Gaussian range probe Y = A·G is
/// orthonormalized and refined with `power_iters` rounds of
/// Z = orth(Aᵀ Q), Q = orth(A Z); the q x q Gram matrix QᵀA AᵀQ is then
/// eigendecomposed with a cyclic Jacobi sweep. All sparse products run
/// through CsrMatrix::Spmm / SpmmT (bitwise deterministic at any thread
/// count); the dense tail is serial, so the whole factorization is
/// deterministic given `rng`'s state. `oversample` extra probes beyond
/// `rank` sharpen the subspace; the result is truncated back to `rank`.
SvdResult RandomizedSvd(const CsrMatrix& a, int rank, int power_iters,
                        int oversample, Rng* rng);

/// Symmetric eigendecomposition of a small dense matrix by cyclic Jacobi
/// rotations: returns eigenvalues (descending) and the matching
/// eigenvector columns. Exposed for the SVD accuracy test's dense
/// reference path. `a` must be symmetric.
void JacobiEigh(const Matrix& a, std::vector<float>* eigenvalues,
                Matrix* eigenvectors);

}  // namespace graphaug

#endif  // GRAPHAUG_AUGMENT_SVD_H_
