#include "release/release.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "linalg/blas.h"
#include "mechanism/matrix_mechanism.h"
#include "util/trace.h"

namespace dpmm {
namespace release {

linalg::Vector NonNegativeIntegral(const linalg::Vector& x_hat) {
  const std::size_t n = x_hat.size();
  linalg::Vector clipped(n);
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    clipped[i] = std::max(0.0, x_hat[i]);
    total += clipped[i];
  }
  const double target = std::floor(total + 0.5);

  // Largest-remainder rounding: floor everything, then distribute the
  // missing units to the cells with the largest fractional parts.
  linalg::Vector out(n);
  double floored_total = 0;
  std::vector<std::pair<double, std::size_t>> fractions(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::floor(clipped[i]);
    floored_total += out[i];
    fractions[i] = {clipped[i] - out[i], i};
  }
  auto missing = static_cast<long long>(target - floored_total);
  std::sort(fractions.begin(), fractions.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (long long k = 0; k < missing && k < static_cast<long long>(n); ++k) {
    out[fractions[static_cast<std::size_t>(k)].second] += 1.0;
  }
  return out;
}

DataVector SyntheticData(const Domain& domain, const linalg::Vector& x_hat) {
  return DataVector(domain, NonNegativeIntegral(x_hat));
}

std::vector<PrivacyParams> SplitBudget(const PrivacyParams& total,
                                       const std::vector<double>& weights) {
  DPMM_CHECK_GT(weights.size(), 0u);
  double sum = 0;
  for (double w : weights) {
    DPMM_CHECK_GT(w, 0.0);
    sum += w;
  }
  std::vector<PrivacyParams> parts;
  parts.reserve(weights.size());
  for (double w : weights) {
    parts.push_back({total.epsilon * w / sum, total.delta * w / sum});
  }
  return parts;
}

linalg::Vector QueryErrorProfile(const ExplicitWorkload& workload,
                                 const LinearStrategy& strategy,
                                 const PrivacyParams& privacy) {
  const linalg::Matrix& w = *workload.matrix();
  DPMM_CHECK_EQ(w.cols(), strategy.num_cells());
  const double sigma = GaussianNoiseScale(privacy, strategy.L2Sensitivity());
  // Var(q) = sigma^2 * w_q (A^T A)^+ w_q^T, solved through the strategy's
  // engine so rank-deficient strategies are handled uniformly (minimum-norm
  // semantics on both engines).
  linalg::Vector out(w.rows());
  for (std::size_t q = 0; q < w.rows(); ++q) {
    const linalg::Vector wq = w.Row(q);
    const linalg::Vector z = strategy.SolveNormal(wq);
    out[q] = sigma * std::sqrt(std::max(0.0, linalg::Dot(wq, z)));
  }
  return out;
}

BatchReleaseResult ReleaseBatch(const LinearStrategy& strategy,
                                const linalg::Vector& data,
                                const std::vector<PrivacyParams>& budgets,
                                Rng* rng,
                                const ExplicitWorkload* workload) {
  const std::size_t batch = budgets.size();
  DPMM_CHECK_GT(batch, 0u);
  DPMM_CHECK_EQ(data.size(), strategy.num_cells());
  TraceSpan span("ReleaseBatch", "release");
  const double sensitivity = strategy.L2Sensitivity();

  // Per-release noise scales from the budget split; the assembly itself
  // (shared A x, release-major noise order, batched inference) is the
  // mechanism layer's, so it cannot drift from Mechanism::Release.
  std::vector<double> sigmas(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    sigmas[b] = GaussianNoiseScale(budgets[b], sensitivity);
  }
  BatchReleaseResult out;
  out.x_hats = ReleaseEstimates(strategy, data, Mechanism::NoiseKind::kGaussian,
                                sigmas, rng);

  if (workload != nullptr) {
    const linalg::Matrix& w = *workload->matrix();
    DPMM_CHECK_EQ(w.cols(), strategy.num_cells());
    // The roots sqrt(w_q (A^T A)^+ w_q^T) do not depend on the budget:
    // block-solve them once, then scale per release. Rows go through the
    // block solve in bounded chunks — each live block buffer is
    // n * chunk doubles, so an unbounded query count cannot balloon the
    // solver's working set. Chunking cannot change results: every column's
    // solve is bit-identical to its solo SolveNormal regardless of which
    // batch it rides in.
    constexpr std::size_t kProfileChunk = 32;
    linalg::Vector roots(w.rows());
    for (std::size_t q0 = 0; q0 < w.rows(); q0 += kProfileChunk) {
      const std::size_t q1 = std::min(w.rows(), q0 + kProfileChunk);
      std::vector<linalg::Vector> rows(q1 - q0);
      for (std::size_t q = q0; q < q1; ++q) rows[q - q0] = w.Row(q);
      const std::vector<linalg::Vector> solves =
          strategy.SolveNormalBatch(rows);
      for (std::size_t q = q0; q < q1; ++q) {
        roots[q] = std::sqrt(
            std::max(0.0, linalg::Dot(rows[q - q0], solves[q - q0])));
      }
    }
    out.error_profiles.resize(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      linalg::Vector profile(w.rows());
      for (std::size_t q = 0; q < w.rows(); ++q) {
        profile[q] = sigmas[b] * roots[q];
      }
      out.error_profiles[b] = std::move(profile);
    }
  }
  return out;
}

}  // namespace release
}  // namespace dpmm
