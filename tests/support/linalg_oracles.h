// Independent dense references for the linear-algebra suites: a cyclic-Jacobi
// eigensolver to cross-check SymmetricEigen, and a pseudo-inverse row-space
// residual to check that a workload is answerable from a strategy.
#ifndef DPMM_TESTS_SUPPORT_LINALG_ORACLES_H_
#define DPMM_TESTS_SUPPORT_LINALG_ORACLES_H_

#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace dpmm {
namespace linalg {

/// Reference cyclic-Jacobi eigensolver; slower but independently derived,
/// used to validate SymmetricEigen in tests.
Result<SymmetricEigenResult> JacobiEigen(const Matrix& a, int max_sweeps = 100);

/// Frobenius-norm residual of the least-squares fit of each row of `w` in the
/// row space of `a` — zero iff W is exactly representable as X * A.
double RowSpaceResidual(const Matrix& w, const Matrix& a);

}  // namespace linalg
}  // namespace dpmm

#endif  // DPMM_TESTS_SUPPORT_LINALG_ORACLES_H_
