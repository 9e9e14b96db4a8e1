#include "optimize/principal_vectors.h"

#include <algorithm>
#include <cmath>

namespace dpmm {
namespace optimize {

Result<PrincipalVectorsResult> PrincipalVectorsDesign(
    const linalg::SymmetricEigenResult& eigen, std::size_t num_principal,
    const DesignOptions& options) {
  const std::size_t n = eigen.values.size();
  // Kept eigen-queries (the shared Sec. 4.1 rule), by descending eigenvalue.
  std::vector<std::size_t> kept =
      KeptSpectrum(eigen.values, options.rank_rel_tol);
  DPMM_CHECK_GT(kept.size(), 0u);
  std::sort(kept.begin(), kept.end(), [&](std::size_t a, std::size_t b) {
    return eigen.values[a] > eigen.values[b];
  });
  const std::size_t r = kept.size();
  const std::size_t k = std::min(num_principal, r);
  const bool has_tail = k < r;
  const std::size_t nv = k + (has_tail ? 1 : 0);

  // Variables: u_1..u_k for the principal eigen-queries plus one shared u
  // for the tail. Constraint row j: sum_{i<=k} u_i Q_ji^2
  //                                + u_tail * sum_{i>k} Q_ji^2 <= 1.
  WeightingProblem p;
  p.exponent = 1;
  p.c.assign(nv, 0.0);
  p.constraints = linalg::Matrix(n, nv);
  for (std::size_t v = 0; v < k; ++v) {
    p.c[v] = eigen.values[kept[v]];
    for (std::size_t j = 0; j < n; ++j) {
      const double q = eigen.vectors(j, kept[v]);
      p.constraints(j, v) = q * q;
    }
  }
  if (has_tail) {
    for (std::size_t v = k; v < r; ++v) {
      p.c[k] += eigen.values[kept[v]];
      for (std::size_t j = 0; j < n; ++j) {
        const double q = eigen.vectors(j, kept[v]);
        p.constraints(j, k) += q * q;
      }
    }
  }
  auto solved = SolveWeighting(p, options.solver);
  if (!solved.ok()) return solved.status();
  const linalg::Vector& u = solved.ValueOrDie().x;

  linalg::Vector weights(r);
  for (std::size_t v = 0; v < r; ++v) {
    const double uv = (v < k) ? u[v] : u[k];
    weights[v] = std::sqrt(std::max(0.0, uv));
  }

  PrincipalVectorsResult out;
  out.num_principal = k;
  out.predicted_objective = solved.ValueOrDie().objective;
  out.strategy =
      AssembleWeightedStrategy(eigen.vectors, kept, weights,
                               options.complete_columns, "PrincipalVectors");
  return out;
}

}  // namespace optimize
}  // namespace dpmm
