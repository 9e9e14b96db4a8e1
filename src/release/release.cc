#include "release/release.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mechanism/error.h"
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
  linalg::Vector out =
      QueryRoots(strategy, w.rows(), [&](std::size_t q) { return w.Row(q); });
  for (double& sd : out) sd *= sigma;
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
    // solve them once, then scale per release.
    const linalg::Vector roots = QueryRoots(
        strategy, w.rows(), [&](std::size_t q) { return w.Row(q); });
    out.error_profiles.assign(batch, roots);
    for (std::size_t b = 0; b < batch; ++b) {
      for (double& sd : out.error_profiles[b]) sd *= sigmas[b];
    }
  }
  return out;
}

}  // namespace release
}  // namespace dpmm
