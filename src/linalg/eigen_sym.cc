#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/blas.h"
#include "linalg/kronecker.h"
#include "util/threading.h"

namespace dpmm {
namespace linalg {

namespace {

// Householder reduction of a real symmetric matrix to tridiagonal form with
// accumulation of the orthogonal transform (the classic tred2 computation,
// restructured so every inner loop walks matrix rows — column-strided
// access made the textbook formulation memory-bound — and the O(n^2) kernels
// are threaded). On exit `z` holds the accumulated transform, `d` the
// diagonal and `e` the subdiagonal (e[0] unused).
void Tred2(Matrix* z_mat, Vector* d_vec, Vector* e_vec) {
  Matrix& a = *z_mat;  // full symmetric storage; v_i stored in row i after step i
  Vector& d = *d_vec;
  Vector& e = *e_vec;
  const std::size_t n = a.rows();
  Vector h_of(n, 0.0);  // Householder h per step (0 = step skipped)
  Vector v(n), p(n), q(n);

  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t m = i;  // active block is m x m, v has length m
    double scale = 0.0;
    const double* arow = a.RowPtr(i);
    for (std::size_t k = 0; k < m; ++k) scale += std::fabs(arow[k]);
    if (m == 1 || scale == 0.0) {
      // 1x1 active block or zero row: already tridiagonal at this step.
      e[i] = arow[m - 1];
      h_of[i] = 0.0;
      continue;
    }
    double h = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      v[k] = arow[k] / scale;
      h += v[k] * v[k];
    }
    double f = v[m - 1];
    const double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
    e[i] = scale * g;
    h -= f * g;
    v[m - 1] = f - g;

    // p = A[0..m) v / h using full (symmetric) rows.
    ParallelFor(0, m, 128, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t j = lo; j < hi; ++j) {
        const double* aj = a.RowPtr(j);
        double s = 0;
        for (std::size_t k = 0; k < m; ++k) s += aj[k] * v[k];
        p[j] = s / h;
      }
    });
    double vp = 0;
    for (std::size_t k = 0; k < m; ++k) vp += v[k] * p[k];
    const double kk = vp / (2.0 * h);
    for (std::size_t k = 0; k < m; ++k) q[k] = p[k] - kk * v[k];

    // Rank-2 update A <- A - v q^T - q v^T on the active block (full rows).
    ParallelFor(0, m, 128, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t j = lo; j < hi; ++j) {
        double* aj = a.RowPtr(j);
        const double vj = v[j];
        const double qj = q[j];
        for (std::size_t k = 0; k < m; ++k) {
          aj[k] -= vj * q[k] + qj * v[k];
        }
      }
    });

    // Stash v in row i (untouched by later, smaller steps) and h.
    double* stash = a.RowPtr(i);
    for (std::size_t k = 0; k < m; ++k) stash[k] = v[k];
    h_of[i] = h;
  }
  e[0] = 0.0;
  for (std::size_t j = 0; j < n; ++j) d[j] = a(j, j);

  // Accumulate Z = H_{n-1} ... H_1 I by successive left-multiplication:
  // Z <- Z - (v/h) (v^T Z), with v_i supported on rows [0, i). Z is built in
  // a separate matrix because `a` still stores the Householder vectors.
  Vector w(n);
  Matrix zq = Matrix::Identity(n);
  for (std::size_t i = 1; i < n; ++i) {
    const double h = h_of[i];
    if (h == 0.0) continue;
    const double* vi = a.RowPtr(i);
    // w = v^T Z over rows [0, i): parallel over column blocks.
    std::fill(w.begin(), w.end(), 0.0);
    ParallelFor(0, n, 512, [&](std::size_t c0, std::size_t c1) {
      for (std::size_t k = 0; k < i; ++k) {
        const double vk = vi[k];
        if (vk == 0.0) continue;
        const double* zk = zq.RowPtr(k);
        for (std::size_t j = c0; j < c1; ++j) w[j] += vk * zk[j];
      }
    });
    const double inv_h = 1.0 / h;
    ParallelFor(0, i, 128, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) {
        const double f2 = vi[k] * inv_h;
        if (f2 == 0.0) continue;
        double* zk = zq.RowPtr(k);
        for (std::size_t j = 0; j < n; ++j) zk[j] -= f2 * w[j];
      }
    });
  }
  a = std::move(zq);
}

// Implicit-shift QL iteration on the tridiagonal (d, e) with accumulation
// into z (EISPACK tql2). Rotation coefficients for each QL step are
// recorded first, then the column updates are applied across all rows in
// parallel — the coefficient recurrence is sequential but cheap (O(n) per
// step), while the O(n^2) vector update parallelizes cleanly.
Status Tql2(Matrix* z_mat, Vector* d_vec, Vector* e_vec) {
  Matrix& z = *z_mat;
  Vector& d = *d_vec;
  Vector& e = *e_vec;
  const int n = static_cast<int>(z.rows());
  if (n == 1) return Status::OK();

  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  // Deflation threshold: relative to the neighbouring diagonals plus an
  // absolute floor at overall matrix scale. The absolute term matters for
  // matrices with large zero-eigenvalue clusters (e.g. normalized marginal
  // Gram matrices), where both d[m] and d[m+1] sit at roundoff level and a
  // purely relative test never fires.
  constexpr double kEps = 2.3e-16;
  double anorm = 0.0;
  for (int i = 0; i < n; ++i) {
    anorm = std::max(anorm, std::fabs(d[i]) + std::fabs(e[i]));
  }
  const double abs_tol = kEps * anorm + 1e-300;

  // Rotation batches: (s, c) per inner index, applied to columns i, i+1.
  std::vector<double> rot_s(n), rot_c(n);

  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= kEps * dd + abs_tol) break;
      }
      if (m != l) {
        if (iter++ == 50) {
          // Diagnostics: NaNs in the tridiagonal indicate an upstream
          // reduction problem; a stuck finite e[m] indicates deflation
          // trouble.
          int nan_d = 0, nan_e = 0;
          for (int i = 0; i < n; ++i) {
            if (std::isnan(d[i])) ++nan_d;
            if (std::isnan(e[i])) ++nan_e;
          }
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "tql2: eigenvalue %d did not converge in 50 "
                        "iterations (|e[m]|=%.3e, dd=%.3e, abs_tol=%.3e, "
                        "NaN d=%d e=%d)",
                        l, std::fabs(e[m]), std::fabs(d[m]) + std::fabs(d[m + 1]),
                        abs_tol, nan_d, nan_e);
          return Status::NotConverged(buf);
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0 ? std::fabs(r) : -std::fabs(r)));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int first_applied = l;  // rotations recorded for i in [first_applied, m-1]
        bool early_break = false;
        for (int i = m - 1; i >= l; --i) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            first_applied = i + 1;
            early_break = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          rot_s[i] = s;
          rot_c[i] = c;
        }
        // Apply the recorded rotation chain to every row of z.
        const int lo = first_applied;
        if (lo <= m - 1) {
          ParallelFor(0, static_cast<std::size_t>(n), 64,
                      [&](std::size_t k0, std::size_t k1) {
                        for (std::size_t k = k0; k < k1; ++k) {
                          for (int i = m - 1; i >= lo; --i) {
                            const double f = z(k, i + 1);
                            z(k, i + 1) = rot_s[i] * z(k, i) + rot_c[i] * f;
                            z(k, i) = rot_c[i] * z(k, i) - rot_s[i] * f;
                          }
                        }
                      });
        }
        if (early_break) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return Status::OK();
}

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

Result<SymmetricEigenResult> SymmetricEigen(const Matrix& a) {
  DPMM_DCHECK_EQ(a.rows(), a.cols());
  const std::size_t n = a.rows();
  if (n == 0) return Status::InvalidArgument("empty matrix");
  Matrix z = a;
  Vector d(n, 0.0);
  Vector e(n, 0.0);
  Tred2(&z, &d, &e);
  Status st = Tql2(&z, &d, &e);
  if (!st.ok()) return st;
  return SortAscending(std::move(d), std::move(z));
}

SymmetricEigenResult KronEigen(const std::vector<SymmetricEigenResult>& parts) {
  DPMM_DCHECK_GT(parts.size(), 0u);
  std::size_t n = 1;
  for (const auto& p : parts) n *= p.values.size();
  // Eigenvalues: products over the multi-index (row-major over parts).
  Vector values(n, 1.0);
  std::size_t block = n;
  for (const auto& p : parts) {
    const std::size_t d = p.values.size();
    block /= d;
    for (std::size_t col = 0; col < n; ++col) {
      values[col] *= p.values[(col / block) % d];
    }
  }
  // Eigenvectors: Kronecker product of the factor eigenvector matrices
  // (the row-major Kron convention matches the eigenvalue indexing above).
  std::vector<Matrix> vecs;
  vecs.reserve(parts.size());
  for (const auto& p : parts) vecs.push_back(p.vectors);
  return SortAscending(std::move(values), KronList(vecs));
}

Result<SymmetricEigenResult> LowRankGramEigen(const Matrix& w,
                                              double rank_rel_tol) {
  const std::size_t m = w.rows();
  const std::size_t n = w.cols();
  DPMM_DCHECK_GT(m, 0u);
  // Small-side eigenproblem: W W^T is m x m.
  Matrix wwt = Gram(w.Transposed());
  auto small = SymmetricEigen(wwt);
  if (!small.ok()) return small.status();
  const SymmetricEigenResult& s = small.ValueOrDie();
  double max_ev = 0;
  for (double v : s.values) max_ev = std::max(max_ev, v);
  if (max_ev <= 0) {
    return Status::InvalidArgument("zero workload in LowRankGramEigen");
  }
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < m; ++i) {
    if (s.values[i] > rank_rel_tol * max_ev) kept.push_back(i);
  }
  SymmetricEigenResult out;
  out.values.resize(kept.size());
  out.vectors = Matrix(n, kept.size());
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const std::size_t i = kept[k];
    out.values[k] = s.values[i];
    // v = W^T u / sqrt(sigma); unit norm by construction.
    const double inv_root = 1.0 / std::sqrt(s.values[i]);
    Vector u = s.vectors.Col(i);
    Vector v = MatTVec(w, u);
    for (std::size_t j = 0; j < n; ++j) out.vectors(j, k) = v[j] * inv_root;
  }
  return out;
}

}  // namespace linalg
}  // namespace dpmm
