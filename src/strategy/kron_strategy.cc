#include "strategy/kron_strategy.h"

#include <algorithm>
#include <cmath>

#include "linalg/kronecker.h"

namespace dpmm {

using linalg::Vector;

KronStrategy::KronStrategy(linalg::KronEigenBasis basis,
                           std::vector<std::size_t> kept, Vector weights,
                           Vector completion, std::string name)
    : basis_(std::move(basis)),
      kept_(std::move(kept)),
      weights_(std::move(weights)),
      completion_(std::move(completion)),
      name_(std::move(name)) {
  DPMM_CHECK_GT(kept_.size(), 0u);
  DPMM_CHECK_EQ(kept_.size(), weights_.size());
  DPMM_CHECK(std::is_sorted(kept_.begin(), kept_.end()));
  u_full_.assign(basis_.dim(), 0.0);
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    DPMM_CHECK_LT(kept_[i], basis_.dim());
    u_full_[kept_[i]] = weights_[i] * weights_[i];
  }
  if (!completion_.empty()) {
    DPMM_CHECK_EQ(completion_.size(), basis_.dim());
    for (std::size_t j = 0; j < completion_.size(); ++j) {
      if (completion_[j] > 0.0) completion_cells_.push_back(j);
    }
  }
}

Vector KronStrategy::Apply(const Vector& x) const {
  DPMM_CHECK_EQ(x.size(), num_cells());
  const Vector z = basis_.ApplyT(x);
  Vector out;
  out.reserve(num_queries());
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    out.push_back(weights_[i] * z[kept_[i]]);
  }
  for (std::size_t j : completion_cells_) out.push_back(completion_[j] * x[j]);
  return out;
}

Vector KronStrategy::ApplyT(const Vector& y) const {
  // The packed layout of one vector is the vector itself.
  return ApplyTBatchPacked({y});
}

Vector KronStrategy::ApplyTBatchPacked(const std::vector<Vector>& ys) const {
  const std::size_t batch = ys.size();
  DPMM_CHECK_GT(batch, 0u);
  const std::size_t n = num_cells();
  // Weight scatter and completion add are per-column elementwise, the basis
  // apply is one shared batched pass: per column this is exactly A^T y.
  Vector full(n * batch, 0.0);
  for (std::size_t b = 0; b < batch; ++b) {
    DPMM_CHECK_EQ(ys[b].size(), num_queries());
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      full[kept_[i] * batch + b] = weights_[i] * ys[b][i];
    }
  }
  Vector packed = basis_.Apply(full, batch);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t k = 0; k < completion_cells_.size(); ++k) {
      const std::size_t j = completion_cells_[k];
      packed[j * batch + b] += completion_[j] * ys[b][kept_.size() + k];
    }
  }
  return packed;
}

Vector KronStrategy::ColumnNormsSquared() const {
  Vector col2 = basis_.ApplySquared(u_full_);
  for (std::size_t j : completion_cells_) {
    col2[j] += completion_[j] * completion_[j];
  }
  return col2;
}

double KronStrategy::L2Sensitivity() const {
  double mx = 0;
  for (double v : ColumnNormsSquared()) mx = std::max(mx, v);
  return std::sqrt(std::max(0.0, mx));
}

double KronStrategy::L1Sensitivity() const {
  Vector lam_full(num_cells(), 0.0);
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    lam_full[kept_[i]] = weights_[i];
  }
  Vector abs_sum = basis_.ApplyAbs(lam_full);
  for (std::size_t j : completion_cells_) abs_sum[j] += completion_[j];
  double mx = 0;
  for (double v : abs_sum) mx = std::max(mx, v);
  return mx;
}

namespace {

// Per-column BLAS-1 kernels over the interleaved block layout. All of them
// run row-major (j outer, column inner) so one pass streams the whole block
// contiguously, while each column's arithmetic keeps the ascending-j order
// of linalg::Dot/Axpy at any width — so a column's bits never depend on the
// batch it was solved in.

// acc[b] = sum_j a[j*B+b] * c[j*B+b] (Dot's accumulation order per column).
void ColDots(const Vector& a, const Vector& c, std::size_t batch,
             std::vector<double>* acc) {
  acc->assign(batch, 0.0);
  double* s = acc->data();
  const std::size_t n = a.size() / batch;
  for (std::size_t j = 0; j < n; ++j) {
    const double* aj = a.data() + j * batch;
    const double* cj = c.data() + j * batch;
    for (std::size_t b = 0; b < batch; ++b) s[b] += aj[b] * cj[b];
  }
}

// dst[j*B+b] += coef[b] * src[j*B+b] (Axpy's update order per column).
void ColAxpy(const std::vector<double>& coef, const Vector& src,
             std::size_t batch, Vector* dst) {
  const std::size_t n = dst->size() / batch;
  for (std::size_t j = 0; j < n; ++j) {
    double* dj = dst->data() + j * batch;
    const double* sj = src.data() + j * batch;
    for (std::size_t b = 0; b < batch; ++b) dj[b] += coef[b] * sj[b];
  }
}

// p[j*B+b] = z[j*B+b] + beta[b] * p[j*B+b] (the CG direction update).
void ColUpdateDirection(const std::vector<double>& beta, const Vector& z,
                        std::size_t batch, Vector* p) {
  const std::size_t n = p->size() / batch;
  for (std::size_t j = 0; j < n; ++j) {
    double* pj = p->data() + j * batch;
    const double* zj = z.data() + j * batch;
    for (std::size_t b = 0; b < batch; ++b) pj[b] = zj[b] + beta[b] * pj[b];
  }
}

// Copies the selected columns of src into dst (both interleaved blocks).
void ColCopy(const std::vector<char>& select, const Vector& src,
             std::size_t batch, Vector* dst) {
  const std::size_t n = src.size() / batch;
  for (std::size_t j = 0; j < n; ++j) {
    const double* sj = src.data() + j * batch;
    double* dj = dst->data() + j * batch;
    for (std::size_t b = 0; b < batch; ++b) {
      if (select[b]) dj[b] = sj[b];
    }
  }
}

Vector ExtractColumn(const Vector& packed, std::size_t batch, std::size_t b) {
  const std::size_t n = packed.size() / batch;
  Vector out(n);
  for (std::size_t j = 0; j < n; ++j) out[j] = packed[j * batch + b];
  return out;
}

}  // namespace

std::vector<Vector> KronStrategy::SolveNormalBatchImpl(
    const std::vector<Vector>& bs, double rel_tol) const {
  DPMM_CHECK_GT(bs.size(), 0u);
  for (const auto& b : bs) DPMM_CHECK_EQ(b.size(), num_cells());
  return SolveNormalBatchPacked(linalg::PackBatch(bs), bs.size(), rel_tol);
}

std::vector<Vector> KronStrategy::LeastSquaresBatchImpl(
    const std::vector<Vector>& ys, double rel_tol) const {
  DPMM_CHECK_GT(ys.size(), 0u);
  return SolveNormalBatchPacked(ApplyTBatchPacked(ys), ys.size(), rel_tol);
}

std::vector<Vector> KronStrategy::SolveNormalBatchPacked(Vector packed,
                                                         std::size_t batch,
                                                         double rel_tol) const {
  DPMM_CHECK_GT(batch, 0u);
  const std::size_t n = num_cells();
  DPMM_CHECK_EQ(packed.size(), n * batch);
  if (completion_cells_.empty()) {
    // A^T A = Q diag(u) Q^T: invert on the kept spectrum, zero elsewhere
    // (minimum-norm solution for truncated designs) — two basis passes.
    Vector z = basis_.ApplyT(packed, batch);
    for (std::size_t j = 0; j < n; ++j) {
      const double u = u_full_[j];
      double* zj = z.data() + j * batch;
      for (std::size_t b = 0; b < batch; ++b) {
        zj[b] = u > 0.0 ? zj[b] / u : 0.0;
      }
    }
    return linalg::UnpackBatch(basis_.Apply(z, batch), batch);
  }

  // Block preconditioned CG on M = Q diag(u) Q^T + D^2 with preconditioner
  // P = Q diag(u + tau) Q^T, tau = mean completion mass — exact when the
  // completion diagonal is uniform, a strong approximation otherwise. tau
  // and the iteration budget depend only on the strategy, so all columns
  // share them; everything else (alpha, beta, residual norms, stagnation
  // windows, stopping decisions) is per column.
  double tau = 0;
  for (std::size_t j : completion_cells_) {
    tau += completion_[j] * completion_[j];
  }
  tau /= static_cast<double>(n);
  double u_max = 0;
  for (double u : u_full_) u_max = std::max(u_max, u);
  tau = std::max(tau, 1e-14 * u_max);

  // The interleaved block narrows as columns converge: retired columns are
  // compacted out (see compact below), so after the fastest columns finish
  // the shared axis passes stream only the live ones instead of dragging
  // the full batch until the slowest column converges. `width` is the
  // current block width and slot_col maps live slots back to original batch
  // columns. Per-column arithmetic never crosses columns and the batched
  // basis passes are bit-identical per column at any width, so compaction
  // changes which lanes are computed, never their values.
  std::size_t width = batch;
  std::vector<std::size_t> slot_col(batch);
  for (std::size_t b = 0; b < batch; ++b) slot_col[b] = b;

  // The basis passes of every iteration run through two persistent scratch
  // buffers (plus a persistent intermediate), so the block solve allocates
  // its working set once instead of re-faulting ~n*batch*8-byte buffers
  // four times per iteration. Results are bitwise-unchanged.
  Vector scratch, basis_tmp;
  auto precond_into = [&](const Vector& r, Vector* z) {
    basis_.ApplyTInto(r, width, &basis_tmp, &scratch);
    for (std::size_t j = 0; j < n; ++j) {
      const double d = u_full_[j] + tau;
      double* tj = basis_tmp.data() + j * width;
      for (std::size_t b = 0; b < width; ++b) tj[b] /= d;
    }
    basis_.ApplyInto(basis_tmp, width, z, &scratch);
  };
  auto normal_matvec_into = [&](const Vector& v, Vector* out) {
    basis_.ApplyTInto(v, width, &basis_tmp, &scratch);
    for (std::size_t j = 0; j < n; ++j) {
      const double u = u_full_[j];
      double* tj = basis_tmp.data() + j * width;
      for (std::size_t b = 0; b < width; ++b) tj[b] *= u;
    }
    basis_.ApplyInto(basis_tmp, width, out, &scratch);
    for (std::size_t j : completion_cells_) {
      double* oj = out->data() + j * width;
      const double* vj = v.data() + j * width;
      for (std::size_t b = 0; b < width; ++b) {
        oj[b] += completion_[j] * completion_[j] * vj[b];
      }
    }
  };

  Vector x(n * batch, 0.0);
  Vector r = std::move(packed);
  Vector z;
  precond_into(r, &z);
  Vector p = z;
  Vector best_x(n * batch, 0.0);
  std::vector<double> rz(batch), tol2(batch), best_r2(batch), r2(batch);
  ColDots(r, r, batch, &best_r2);  // |b|^2 per column
  ColDots(r, z, batch, &rz);
  for (std::size_t b = 0; b < batch; ++b) {
    tol2[b] = rel_tol * rel_tol * std::max(best_r2[b], 1e-300);
  }
  const int max_iter = static_cast<int>(std::min<std::size_t>(8 * n, 20000));
  // Stagnation guard: when rounding noise keeps a column's residual above
  // the requested floor, retire it once a window of iterations brings no
  // improvement instead of burning the full budget.
  constexpr int kStagnationWindow = 50;
  std::vector<int> since_improvement(batch, 0);
  std::vector<char> active(batch, 1);
  std::vector<Vector> out(batch);
  std::size_t num_active = batch;
  std::size_t retired_pending = 0;
  // Finalizes a column: its last iterate, unless the residual norm there
  // (`final_r2`, the column's current |r|^2) is worse than the best seen,
  // in which case the best iterate.
  auto finalize = [&](std::size_t b, double final_r2) {
    out[slot_col[b]] = final_r2 <= best_r2[b] ? ExtractColumn(x, width, b)
                                              : ExtractColumn(best_x, width, b);
    active[b] = 0;
    --num_active;
    ++retired_pending;
  };

  // Removes retired slots from the interleaved state blocks and per-slot
  // scalars. The block narrows to the next power of two >= the live count —
  // never to an arbitrary width — because the batched axis passes vectorize
  // over batch-contiguous spans, and an odd width costs more per live lane
  // than a properly padded one (measured: 16 -> 15 was a net loss, 16 -> 8
  // halves the pass cost). Lanes kept as padding stay frozen exactly as
  // before (alpha = beta = 0), so the arithmetic of live columns is
  // untouched either way. The forward in-place repack is safe: every write
  // position is <= the position it reads from.
  auto compact = [&]() {
    retired_pending = 0;
    std::size_t target = 1;
    while (target < num_active) target <<= 1;
    if (target >= width) return;  // nothing to gain at this granularity
    std::vector<char> keep(width, 0);
    std::size_t pad = target - num_active;
    for (std::size_t b = 0; b < width; ++b) {
      if (active[b]) {
        keep[b] = 1;
      } else if (pad > 0) {
        keep[b] = 1;
        --pad;
      }
    }
    auto pack_block = [&](Vector* v) {
      double* data = v->data();
      std::size_t dst = 0;
      for (std::size_t j = 0; j < n; ++j) {
        const double* src = data + j * width;
        for (std::size_t b = 0; b < width; ++b) {
          if (keep[b]) data[dst++] = src[b];
        }
      }
      v->resize(n * target);
    };
    pack_block(&x);
    pack_block(&r);
    pack_block(&p);
    pack_block(&best_x);
    std::size_t w = 0;
    for (std::size_t b = 0; b < width; ++b) {
      if (!keep[b]) continue;
      slot_col[w] = slot_col[b];
      rz[w] = rz[b];
      tol2[w] = tol2[b];
      best_r2[w] = best_r2[b];
      r2[w] = r2[b];
      since_improvement[w] = since_improvement[b];
      active[w] = active[b];
      ++w;
    }
    width = target;
  };

  std::vector<double> alpha(batch), beta(batch), p_mp(batch), rz_next(batch);
  std::vector<char> improved(batch);
  Vector mp;
  for (int it = 0; it < max_iter && num_active > 0; ++it) {
    // Columns retired on the p_mp branch last iteration leave the block
    // before this iteration's passes touch them.
    if (retired_pending > 0) compact();
    ColDots(r, r, width, &r2);
    bool any_improved = false;
    for (std::size_t b = 0; b < width; ++b) {
      improved[b] = 0;
      if (!active[b]) continue;
      if (r2[b] < best_r2[b]) {
        best_r2[b] = r2[b];
        improved[b] = 1;
        any_improved = true;
        since_improvement[b] = 0;
      } else if (++since_improvement[b] >= kStagnationWindow) {
        finalize(b, r2[b]);
        continue;
      }
      if (r2[b] <= tol2[b]) finalize(b, r2[b]);
    }
    if (any_improved) ColCopy(improved, x, width, &best_x);
    if (num_active == 0) break;
    // Tolerance/stagnation retirements compact immediately: the expensive
    // passes below only ever see live columns.
    if (retired_pending > 0) compact();
    normal_matvec_into(p, &mp);
    ColDots(p, mp, width, &p_mp);
    for (std::size_t b = 0; b < width; ++b) {
      if (!active[b]) {
        alpha[b] = 0.0;  // frozen padding lane (output already taken)
        continue;
      }
      if (p_mp[b] <= 0.0) {  // hit the (numerical) null space
        finalize(b, r2[b]);
        alpha[b] = 0.0;  // freeze until the next compaction
        continue;
      }
      alpha[b] = rz[b] / p_mp[b];
    }
    if (num_active == 0) break;
    ColAxpy(alpha, p, width, &x);
    for (std::size_t b = 0; b < width; ++b) alpha[b] = -alpha[b];
    ColAxpy(alpha, mp, width, &r);
    precond_into(r, &z);
    ColDots(r, z, width, &rz_next);
    for (std::size_t b = 0; b < width; ++b) {
      beta[b] = active[b] ? rz_next[b] / rz[b] : 0.0;
      if (active[b]) rz[b] = rz_next[b];
    }
    ColUpdateDirection(beta, z, width, &p);
  }
  // Columns that exhausted the budget: same epilogue, fresh residual norm.
  if (num_active > 0) {
    ColDots(r, r, width, &r2);
    for (std::size_t b = 0; b < width; ++b) {
      if (active[b]) finalize(b, r2[b]);
    }
  }
  return out;
}

Strategy KronStrategy::Materialize() const {
  const std::size_t n = num_cells();
  linalg::Matrix a(num_queries(), n);
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Vector q = basis_.Column(kept_[i]);
    double* row = a.RowPtr(i);
    for (std::size_t j = 0; j < n; ++j) row[j] = weights_[i] * q[j];
  }
  for (std::size_t k = 0; k < completion_cells_.size(); ++k) {
    const std::size_t j = completion_cells_[k];
    a(kept_.size() + k, j) = completion_[j];
  }
  return Strategy(std::move(a), name_);
}

}  // namespace dpmm
