// Moore-Penrose pseudo-inverse, built on the symmetric
// eigensolver (the paper's machinery only ever needs A^+ and the spectrum of
// W^T W, so a full bidiagonal SVD is unnecessary).
#ifndef DPMM_LINALG_SVD_H_
#define DPMM_LINALG_SVD_H_

#include "linalg/matrix.h"

namespace dpmm {
namespace linalg {

/// Moore-Penrose pseudo-inverse. Singular values below rel_tol * max are
/// treated as zero (the default matches the numerical noise floor of the
/// Gram-eigendecomposition route: eigenvalue noise ~1e-15 relative implies
/// singular-value noise ~3e-8 relative). For full-rank square matrices this
/// equals the inverse.
Matrix PseudoInverse(const Matrix& a, double rel_tol = 1e-7);

}  // namespace linalg
}  // namespace dpmm

#endif  // DPMM_LINALG_SVD_H_
