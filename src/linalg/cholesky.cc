#include "linalg/cholesky.h"

#include <cmath>

#include "util/threading.h"

namespace dpmm {
namespace linalg {

Result<Cholesky> Cholesky::Factor(const Matrix& spd) {
  return FactorWithJitter(spd, 0.0);
}

Result<Cholesky> Cholesky::FactorWithJitter(const Matrix& spd, double jitter) {
  DPMM_DCHECK_EQ(spd.rows(), spd.cols());
  const std::size_t n = spd.rows();
  Matrix l = spd;
  if (jitter > 0) {
    for (std::size_t i = 0; i < n; ++i) l(i, i) += jitter;
  }
  // Right-looking factorization; the trailing update is the hot loop and is
  // parallelized for the n >= 1024 systems arising in the experiments.
  for (std::size_t k = 0; k < n; ++k) {
    double d = l(k, k);
    if (d <= 0.0 || !std::isfinite(d)) {
      return Status::NumericalError("matrix not positive definite at pivot " +
                                    std::to_string(k));
    }
    d = std::sqrt(d);
    l(k, k) = d;
    const double inv_d = 1.0 / d;
    for (std::size_t i = k + 1; i < n; ++i) l(i, k) *= inv_d;
    ParallelFor(k + 1, n, 256, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const double lik = l(i, k);
        if (lik == 0.0) continue;
        double* li = l.RowPtr(i);
        for (std::size_t j = k + 1; j <= i; ++j) li[j] -= lik * l(j, k);
      }
    });
  }
  // Zero the strictly upper triangle so lower() is clean.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
  }
  Matrix lt = l.Transposed();
  return Cholesky(std::move(l), std::move(lt));
}

Vector Cholesky::Solve(const Vector& b) const {
  const std::size_t n = l_.rows();
  DPMM_DCHECK_EQ(b.size(), n);
  Vector y(b);
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l_.RowPtr(i);
    double s = y[i];
    for (std::size_t j = 0; j < i; ++j) s -= li[j] * y[j];
    y[i] = s / li[i];
  }
  // Back substitution L^T x = y.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    const double* lti = lt_.RowPtr(i);
    double s = y[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= lti[j] * y[j];
    y[i] = s / lti[i];
  }
  return y;
}

}  // namespace linalg
}  // namespace dpmm
