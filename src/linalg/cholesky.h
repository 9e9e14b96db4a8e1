// Cholesky factorization for symmetric positive-definite systems — the
// mechanism's least-squares inference solves (A^T A) x = A^T y, and the
// analytic error formula needs trace(W^T W (A^T A)^{-1}).
#ifndef DPMM_LINALG_CHOLESKY_H_
#define DPMM_LINALG_CHOLESKY_H_

#include "linalg/matrix.h"
#include "util/status.h"

namespace dpmm {
namespace linalg {

/// Lower-triangular Cholesky factor of an SPD matrix, with solve helpers.
class Cholesky {
 public:
  /// Factors `spd` = L L^T. Fails with NumericalError if the matrix is not
  /// (numerically) positive definite.
  static Result<Cholesky> Factor(const Matrix& spd);

  /// As Factor(), but adds `jitter * I` before factoring — used when the
  /// caller knows the matrix is PSD up to rounding (e.g. Gram matrices of
  /// full-rank strategies).
  static Result<Cholesky> FactorWithJitter(const Matrix& spd, double jitter);

  /// Solves (L L^T) x = b.
  Vector Solve(const Vector& b) const;

  const Matrix& lower() const { return l_; }

 private:
  Cholesky(Matrix l, Matrix lt) : l_(std::move(l)), lt_(std::move(lt)) {}
  Matrix l_;
  Matrix lt_;  // L^T, so back substitution reads rows contiguously
};

}  // namespace linalg
}  // namespace dpmm

#endif  // DPMM_LINALG_CHOLESKY_H_
