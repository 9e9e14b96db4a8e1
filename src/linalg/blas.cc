#include "linalg/blas.h"

#include <algorithm>

#include "util/threading.h"

namespace dpmm {
namespace linalg {

namespace {

// Serial i-k-j kernel over an output row range [r0, r1): streams B rows,
// accumulating into C rows; vectorizes well and is cache-friendly without
// explicit packing.
void MatMulRows(const Matrix& a, const Matrix& b, Matrix* c, std::size_t r0,
                std::size_t r1) {
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t i = r0; i < r1; ++i) {
    double* ci = c->RowPtr(i);
    const double* ai = a.RowPtr(i);
    for (std::size_t k = 0; k < k_dim; ++k) {
      const double aik = ai[k];
      if (aik == 0.0) continue;  // workloads/strategies are often sparse
      const double* bk = b.RowPtr(k);
      for (std::size_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  DPMM_DCHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  const std::size_t flop_rows_grain =
      std::max<std::size_t>(1, (1u << 22) / (a.cols() * b.cols() + 1));
  ParallelFor(0, a.rows(), flop_rows_grain,
              [&](std::size_t lo, std::size_t hi) {
                MatMulRows(a, b, &c, lo, hi);
              });
  return c;
}

Matrix MatMulNT(const Matrix& a, const Matrix& b) {
  DPMM_DCHECK_EQ(a.cols(), b.cols());
  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t kk = a.cols();
  Matrix c(m, n);
  const std::size_t grain = std::max<std::size_t>(1, (1u << 22) / (kk * n + 1));
  ParallelFor(0, m, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double* ai = a.RowPtr(i);
      double* ci = c.RowPtr(i);
      for (std::size_t j = 0; j < n; ++j) {
        const double* bj = b.RowPtr(j);
        double s = 0;
        for (std::size_t k = 0; k < kk; ++k) s += ai[k] * bj[k];
        ci[j] = s;
      }
    }
  });
  return c;
}

Matrix Gram(const Matrix& a) {
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  Matrix g(n, n);
  // Compute the upper triangle by rank-1 accumulation, then mirror.
  const std::size_t grain = std::max<std::size_t>(1, (1u << 21) / (m + 1));
  ParallelFor(0, n, grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = 0; k < m; ++k) {
      const double* ak = a.RowPtr(k);
      for (std::size_t i = lo; i < hi; ++i) {
        const double aki = ak[i];
        if (aki == 0.0) continue;
        double* gi = g.RowPtr(i);
        for (std::size_t j = i; j < n; ++j) gi[j] += aki * ak[j];
      }
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) g(j, i) = g(i, j);
  }
  return g;
}

Vector MatVec(const Matrix& a, const Vector& x) {
  DPMM_DCHECK_EQ(a.cols(), x.size());
  Vector y(a.rows(), 0.0);
  // Grain in rows, sized by row cost: a wide matrix (the dual solver's
  // n x n constraint matvec) should parallelize even at modest row counts.
  const std::size_t grain =
      std::max<std::size_t>(1, (std::size_t{1} << 15) / (a.cols() + 1));
  ParallelFor(0, a.rows(), grain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double* ai = a.RowPtr(i);
      double s = 0;
      for (std::size_t j = 0; j < a.cols(); ++j) s += ai[j] * x[j];
      y[i] = s;
    }
  });
  return y;
}

Vector MatTVec(const Matrix& a, const Vector& x) {
  DPMM_DCHECK_EQ(a.rows(), x.size());
  Vector y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const double* ai = a.RowPtr(i);
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * ai[j];
  }
  return y;
}

}  // namespace linalg
}  // namespace dpmm
