// Symmetric eigendecomposition — the heart of the Eigen-Design algorithm,
// which uses the eigenvectors of W^T W as its design queries (Def. 6 of the
// paper). Implementation is the classic EISPACK pair: Householder
// tridiagonalization (tred2) followed by implicit-shift QL iteration (tql2),
// O(n^3) with transform accumulation.
#ifndef DPMM_LINALG_EIGEN_SYM_H_
#define DPMM_LINALG_EIGEN_SYM_H_

#include "linalg/matrix.h"
#include "util/status.h"

namespace dpmm {
namespace linalg {

/// Eigendecomposition A = V diag(values) V^T of a symmetric matrix.
/// `values` are sorted ascending; column j of `vectors` is the unit
/// eigenvector for values[j].
struct SymmetricEigenResult {
  Vector values;
  Matrix vectors;
};

/// Computes the full eigendecomposition of a symmetric matrix via
/// tridiagonalization + QL. Fails with NotConverged only on pathological
/// input (more than 50 QL sweeps for one eigenvalue).
Result<SymmetricEigenResult> SymmetricEigen(const Matrix& a);

/// Eigendecomposition of a Kronecker product from the decompositions of its
/// factors: eigenvalues are products, eigenvectors are Kronecker products of
/// the factor eigenvectors. Turns the O(n^3) eigenproblem of a structured
/// n = prod(n_i) workload (multi-dimensional ranges, marginals) into
/// independent O(n_i^3) problems.
SymmetricEigenResult KronEigen(const std::vector<SymmetricEigenResult>& parts);

/// The *nonzero* eigenpairs of W^T W computed through the small side
/// (Sec. 4.1 of the paper: low-rank workloads): eigendecompose the m x m
/// matrix W W^T, then map eigenvectors back as v = W^T u / sqrt(sigma).
/// Returns values ascending with `vectors` of shape n x r, r = rank.
/// O(m^2 n + m^3) instead of O(n^3) — decisive when m << n (e.g. a handful
/// of predicate queries over thousands of cells).
Result<SymmetricEigenResult> LowRankGramEigen(const Matrix& w,
                                              double rank_rel_tol = 1e-12);

}  // namespace linalg
}  // namespace dpmm

#endif  // DPMM_LINALG_EIGEN_SYM_H_
