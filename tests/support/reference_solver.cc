#include "support/reference_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/blas.h"
#include "linalg/cholesky.h"

namespace dpmm {
namespace optimize {

namespace {

// Barrier objective t * sum c_i/x_i^q - sum_j log(1 - g_j^T x) - sum_i log x_i.
// Returns +inf outside the interior.
double BarrierValue(const WeightingProblem& p, const linalg::Vector& x,
                    double t) {
  const std::size_t nv = p.num_vars();
  const std::size_t nc = p.num_constraints();
  double val = 0;
  for (std::size_t i = 0; i < nv; ++i) {
    if (x[i] <= 0) return std::numeric_limits<double>::infinity();
    val += t * p.c[i] / std::pow(x[i], p.exponent);
    val -= std::log(x[i]);
  }
  for (std::size_t j = 0; j < nc; ++j) {
    const double* row = p.constraints.RowPtr(j);
    double gx = 0;
    for (std::size_t i = 0; i < nv; ++i) gx += row[i] * x[i];
    const double slack = 1.0 - gx;
    if (slack <= 0) return std::numeric_limits<double>::infinity();
    val -= std::log(slack);
  }
  return val;
}

}  // namespace

Result<BarrierSolution> SolveWeightingBarrier(const WeightingProblem& p,
                                              const BarrierOptions& options) {
  const std::size_t nv = p.num_vars();
  const std::size_t nc = p.num_constraints();
  const int q = p.exponent;
  DPMM_CHECK(q == 1 || q == 2);
  DPMM_CHECK_LE(nv, 512u);  // reference solver: dense Newton only

  // Strictly feasible start: x = beta * 1 with beta under every constraint.
  double row_max = 0;
  for (std::size_t j = 0; j < nc; ++j) {
    double s = 0;
    for (std::size_t i = 0; i < nv; ++i) s += p.constraints(j, i);
    row_max = std::max(row_max, s);
  }
  DPMM_CHECK_GT(row_max, 0.0);
  linalg::Vector x(nv, 0.5 / row_max);

  double t = options.initial_t;
  // Path following: barrier parameter grows until the duality-gap proxy
  // (nc + nv)/t is below tol * objective scale.
  for (int outer = 0; outer < 64; ++outer) {
    // Newton iterations at fixed t.
    for (int step = 0; step < options.max_newton_steps; ++step) {
      // Gradient and Hessian.
      linalg::Vector grad(nv, 0.0);
      linalg::Matrix hess(nv, nv);
      for (std::size_t i = 0; i < nv; ++i) {
        grad[i] = -t * q * p.c[i] / std::pow(x[i], q + 1) - 1.0 / x[i];
        hess(i, i) = t * q * (q + 1) * p.c[i] / std::pow(x[i], q + 2) +
                     1.0 / (x[i] * x[i]);
      }
      for (std::size_t j = 0; j < nc; ++j) {
        const double* row = p.constraints.RowPtr(j);
        double gx = 0;
        for (std::size_t i = 0; i < nv; ++i) gx += row[i] * x[i];
        const double slack = 1.0 - gx;
        DPMM_CHECK_GT(slack, 0.0);
        const double inv = 1.0 / slack;
        const double inv2 = inv * inv;
        for (std::size_t i = 0; i < nv; ++i) {
          if (row[i] == 0.0) continue;
          grad[i] += row[i] * inv;
          for (std::size_t k = 0; k < nv; ++k) {
            hess(i, k) += row[i] * row[k] * inv2;
          }
        }
      }
      auto chol = linalg::Cholesky::FactorWithJitter(hess, 1e-12);
      if (!chol.ok()) return chol.status();
      linalg::Vector dir = chol.ValueOrDie().Solve(grad);
      for (auto& d : dir) d = -d;

      // Newton decrement as the stopping criterion at this t.
      double decrement2 = 0;
      for (std::size_t i = 0; i < nv; ++i) decrement2 += -dir[i] * grad[i];
      if (decrement2 < 1e-18) break;

      // Backtracking line search on the barrier value.
      const double f0 = BarrierValue(p, x, t);
      double alpha = 1.0;
      bool moved = false;
      for (int bt = 0; bt < 60; ++bt) {
        linalg::Vector trial(nv);
        for (std::size_t i = 0; i < nv; ++i) trial[i] = x[i] + alpha * dir[i];
        const double f1 = BarrierValue(p, trial, t);
        if (f1 < f0 - 1e-18) {
          x = std::move(trial);
          moved = true;
          break;
        }
        alpha *= 0.5;
      }
      if (!moved) break;
      if (decrement2 < 1e-14) break;
    }
    const double gap_proxy = static_cast<double>(nc + nv) / t;
    if (gap_proxy < options.tol * std::max(1.0, BarrierValue(p, x, 0.0))) {
      break;
    }
    t *= options.t_multiplier;
  }

  // Push the interior point onto the feasible boundary (objective is
  // monotone decreasing in every coordinate, so scaling up only helps).
  double alpha = 0;
  for (std::size_t j = 0; j < nc; ++j) {
    double gx = 0;
    for (std::size_t i = 0; i < nv; ++i) gx += p.constraints(j, i) * x[i];
    alpha = std::max(alpha, gx);
  }
  DPMM_CHECK_GT(alpha, 0.0);
  for (auto& v : x) v /= alpha;

  BarrierSolution sol;
  sol.x = x;
  sol.objective = 0;
  for (std::size_t i = 0; i < nv; ++i) {
    sol.objective += p.c[i] / std::pow(x[i], q);
  }
  return sol;
}

}  // namespace optimize
}  // namespace dpmm
