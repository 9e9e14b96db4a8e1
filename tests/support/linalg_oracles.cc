#include "support/linalg_oracles.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/blas.h"
#include "linalg/svd.h"

namespace dpmm {
namespace linalg {

namespace {

SymmetricEigenResult SortAscending(Vector d, Matrix z) {
  const std::size_t n = d.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return d[a] < d[b]; });
  SymmetricEigenResult out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = z(i, order[j]);
  }
  return out;
}

}  // namespace

Result<SymmetricEigenResult> JacobiEigen(const Matrix& a, int max_sweeps) {
  DPMM_DCHECK_EQ(a.rows(), a.cols());
  const std::size_t n = a.rows();
  Matrix m = a;
  Matrix v = Matrix::Identity(n);
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) off += m(p, q) * m(p, q);
    }
    if (off < 1e-24 * (1.0 + m.FrobeniusNorm())) {
      Vector d(n);
      for (std::size_t i = 0; i < n; ++i) d[i] = m(i, i);
      return SortAscending(std::move(d), std::move(v));
    }
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        if (std::fabs(m(p, q)) < 1e-300) continue;
        const double theta = (m(q, q) - m(p, p)) / (2.0 * m(p, q));
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t i = 0; i < n; ++i) {
          const double mip = m(i, p);
          const double miq = m(i, q);
          m(i, p) = c * mip - s * miq;
          m(i, q) = s * mip + c * miq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double mpi = m(p, i);
          const double mqi = m(q, i);
          m(p, i) = c * mpi - s * mqi;
          m(q, i) = s * mpi + c * mqi;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = v(i, p);
          const double viq = v(i, q);
          v(i, p) = c * vip - s * viq;
          v(i, q) = s * vip + c * viq;
        }
      }
    }
  }
  return Status::NotConverged("Jacobi eigensolver exceeded max sweeps");
}

double RowSpaceResidual(const Matrix& w, const Matrix& a) {
  // Residual of min_X ||X A - W||_F computed via the pseudo-inverse:
  // X = W A^+, residual = ||W A^+ A - W||_F.
  Matrix apinv = PseudoInverse(a);
  Matrix proj = MatMul(MatMul(w, apinv), a);
  double s = 0;
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) {
      const double d = proj(i, j) - w(i, j);
      s += d * d;
    }
  }
  return std::sqrt(s);
}

}  // namespace linalg
}  // namespace dpmm
