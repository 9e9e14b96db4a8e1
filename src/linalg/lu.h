// Partially pivoted LU decomposition for general square systems (design-
// basis inversion in Program 1 when the basis is not orthogonal).
#ifndef DPMM_LINALG_LU_H_
#define DPMM_LINALG_LU_H_

#include "linalg/matrix.h"
#include "util/status.h"

namespace dpmm {
namespace linalg {

/// LU factorization with partial pivoting: P A = L U.
class Lu {
 public:
  /// Factors a square matrix; fails with NumericalError when singular.
  static Result<Lu> Factor(const Matrix& a);

  Vector Solve(const Vector& b) const;
  Matrix Solve(const Matrix& b) const;

 private:
  Lu(Matrix lu, std::vector<std::size_t> perm)
      : lu_(std::move(lu)), perm_(std::move(perm)) {}

  Matrix lu_;                      // packed L (unit diag) and U
  std::vector<std::size_t> perm_;  // row permutation
};

}  // namespace linalg
}  // namespace dpmm

#endif  // DPMM_LINALG_LU_H_
