#include "linalg/svd.h"

#include <algorithm>

#include "linalg/blas.h"
#include "linalg/eigen_sym.h"

namespace dpmm {
namespace linalg {

Matrix PseudoInverse(const Matrix& a, double rel_tol) {
  // A^+ = V S^{-2} V^T A^T where A^T A = V S^2 V^T. Using the Gram side with
  // fewer columns keeps the eigenproblem as small as possible.
  if (a.rows() < a.cols()) {
    // A^+ = (A^T)^{+T}.
    return PseudoInverse(a.Transposed(), rel_tol).Transposed();
  }
  Matrix g = Gram(a);
  SymmetricEigenResult eig = SymmetricEigen(g).ValueOrDie();
  const std::size_t n = g.rows();
  double max_ev = 0;
  for (double v : eig.values) max_ev = std::max(max_ev, v);
  const double cut = rel_tol * rel_tol * max_ev;  // tolerance on sigma^2
  // M = V diag(1/ev where ev > cut) V^T  ==  (A^T A)^+.
  Matrix scaled(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const double ev = eig.values[j];
    const double inv = (ev > cut && ev > 0) ? 1.0 / ev : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      scaled(i, j) = eig.vectors(i, j) * inv;
    }
  }
  Matrix gram_pinv = MatMulNT(scaled, eig.vectors);
  return MatMulNT(gram_pinv, a);
}

}  // namespace linalg
}  // namespace dpmm
