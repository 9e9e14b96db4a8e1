#include "optimize/eigen_separation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace dpmm {
namespace optimize {

Result<SeparationResult> EigenSeparationDesign(
    const linalg::SymmetricEigenResult& eigen, std::size_t group_size,
    const DesignOptions& options) {
  DPMM_CHECK_GT(group_size, 0u);
  const std::size_t n = eigen.values.size();
  // Kept eigen-queries (the shared Sec. 4.1 rule), ordered by descending
  // eigenvalue so principal vectors share groups.
  std::vector<std::size_t> kept =
      KeptSpectrum(eigen.values, options.rank_rel_tol);
  DPMM_CHECK_GT(kept.size(), 0u);
  std::sort(kept.begin(), kept.end(), [&](std::size_t a, std::size_t b) {
    return eigen.values[a] > eigen.values[b];
  });
  const std::size_t r = kept.size();
  const std::size_t num_groups = (r + group_size - 1) / group_size;

  // Stage 1: per-group weighting.
  linalg::Vector u(r, 0.0);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t lo = g * group_size;
    const std::size_t hi = std::min(r, lo + group_size);
    WeightingProblem p;
    p.exponent = 1;
    p.c.resize(hi - lo);
    p.constraints = linalg::Matrix(n, hi - lo);
    for (std::size_t v = lo; v < hi; ++v) {
      p.c[v - lo] = eigen.values[kept[v]];
      for (std::size_t j = 0; j < n; ++j) {
        const double q = eigen.vectors(j, kept[v]);
        p.constraints(j, v - lo) = q * q;
      }
    }
    auto solved = SolveWeighting(p, options.solver);
    if (!solved.ok()) return solved.status();
    for (std::size_t v = lo; v < hi; ++v) {
      u[v] = solved.ValueOrDie().x[v - lo];
    }
  }

  // Stage 2: one scale factor per group. In u-space the combined strategy
  // has u_i = t_g * u_i, so the problem is again linear-constrained with
  // c2_g = sum_{i in g} c_i / u_i and constraint row entries
  // sum_{i in g} u_i Q_ji^2.
  WeightingProblem combine;
  combine.exponent = 1;
  combine.c.assign(num_groups, 0.0);
  combine.constraints = linalg::Matrix(n, num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t lo = g * group_size;
    const std::size_t hi = std::min(r, lo + group_size);
    for (std::size_t v = lo; v < hi; ++v) {
      DPMM_CHECK_GT(u[v], 0.0);
      combine.c[g] += eigen.values[kept[v]] / u[v];
      for (std::size_t j = 0; j < n; ++j) {
        const double q = eigen.vectors(j, kept[v]);
        combine.constraints(j, g) += u[v] * q * q;
      }
    }
  }
  auto combined = SolveWeighting(combine, options.solver);
  if (!combined.ok()) return combined.status();
  const linalg::Vector& t = combined.ValueOrDie().x;

  linalg::Vector weights(r);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t lo = g * group_size;
    const std::size_t hi = std::min(r, lo + group_size);
    for (std::size_t v = lo; v < hi; ++v) {
      weights[v] = std::sqrt(std::max(0.0, t[g] * u[v]));
    }
  }

  SeparationResult out;
  out.num_groups = num_groups;
  out.predicted_objective = combined.ValueOrDie().objective;
  out.strategy =
      AssembleWeightedStrategy(eigen.vectors, kept, weights,
                               options.complete_columns, "EigenSeparation");
  return out;
}

}  // namespace optimize
}  // namespace dpmm
