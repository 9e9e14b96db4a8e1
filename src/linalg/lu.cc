#include "linalg/lu.h"

#include <cmath>

#include "util/threading.h"

namespace dpmm {
namespace linalg {

Result<Lu> Lu::Factor(const Matrix& a) {
  DPMM_DCHECK_EQ(a.rows(), a.cols());
  const std::size_t n = a.rows();
  Matrix lu = a;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    double best = std::fabs(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(lu(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best == 0.0 || !std::isfinite(best)) {
      return Status::NumericalError("singular matrix in LU at column " +
                                    std::to_string(k));
    }
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(piv, j));
      std::swap(perm[k], perm[piv]);
    }
    const double inv_piv = 1.0 / lu(k, k);
    for (std::size_t i = k + 1; i < n; ++i) lu(i, k) *= inv_piv;
    ParallelFor(k + 1, n, 256, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const double lik = lu(i, k);
        if (lik == 0.0) continue;
        double* li = lu.RowPtr(i);
        const double* lk = lu.RowPtr(k);
        for (std::size_t j = k + 1; j < n; ++j) li[j] -= lik * lk[j];
      }
    });
  }
  return Lu(std::move(lu), std::move(perm));
}

Vector Lu::Solve(const Vector& b) const {
  const std::size_t n = lu_.rows();
  DPMM_DCHECK_EQ(b.size(), n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[perm_[i]];
  // L y' = y (unit lower).
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = lu_.RowPtr(i);
    double s = y[i];
    for (std::size_t j = 0; j < i; ++j) s -= li[j] * y[j];
    y[i] = s;
  }
  // U x = y'.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    const double* li = lu_.RowPtr(i);
    double s = y[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= li[j] * y[j];
    y[i] = s / li[i];
  }
  return y;
}

Matrix Lu::Solve(const Matrix& b) const {
  const std::size_t n = lu_.rows();
  DPMM_DCHECK_EQ(b.rows(), n);
  Matrix x(n, b.cols());
  ParallelFor(0, b.cols(), 8, [&](std::size_t lo, std::size_t hi) {
    Vector col(n);
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
      Vector sol = Solve(col);
      for (std::size_t i = 0; i < n; ++i) x(i, j) = sol[i];
    }
  });
  return x;
}

}  // namespace linalg
}  // namespace dpmm
