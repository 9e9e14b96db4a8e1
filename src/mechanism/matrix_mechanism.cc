#include "mechanism/matrix_mechanism.h"

#include <algorithm>
#include <cmath>

#include "util/metrics.h"
#include "util/trace.h"

namespace dpmm {

using linalg::Vector;

std::vector<Vector> ReleaseEstimates(const LinearStrategy& strategy,
                                     const Vector& x,
                                     Mechanism::NoiseKind noise,
                                     const std::vector<double>& noise_scales,
                                     Rng* rng) {
  const std::size_t batch = noise_scales.size();
  DPMM_CHECK_GT(batch, 0u);
  DPMM_CHECK_EQ(x.size(), strategy.num_cells());
  // Every private estimate counts exactly once, whichever layer asked.
  static Counter* releases = MetricsRegistry::Global().GetCounter(
      "dpmm.mechanism.matrix_mechanism.releases");
  releases->Add(batch);
  // A x is release-independent: compute it once. Noise is drawn in the
  // exact order sequential releases draw it (release-major), so a shared
  // rng reaches the same state either way.
  const Vector y0 = strategy.Apply(x);
  std::vector<Vector> ys(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    Vector y = y0;
    if (noise == Mechanism::NoiseKind::kGaussian) {
      for (auto& v : y) v += rng->Gaussian(noise_scales[b]);
    } else {
      for (auto& v : y) v += rng->Laplace(noise_scales[b]);
    }
    ys[b] = std::move(y);
  }
  return strategy.LeastSquaresBatch(ys);
}

Result<Mechanism> Mechanism::Prepare(
    std::shared_ptr<const LinearStrategy> strategy, PrivacyParams privacy,
    NoiseKind noise) {
  if (strategy == nullptr) {
    return Status::InvalidArgument("Mechanism::Prepare: null strategy");
  }
  const double sigma =
      noise == NoiseKind::kGaussian
          ? GaussianNoiseScale(privacy, strategy->L2Sensitivity())
          : LaplaceNoiseScale(privacy.epsilon, strategy->L1Sensitivity());
  return Mechanism(std::move(strategy), noise, sigma);
}

Vector Mechanism::Release(const Vector& x, Rng* rng) const {
  TraceSpan span("Mechanism::Release", "mechanism");
  return std::move(ReleaseEstimates(*strategy_, x, noise_, {sigma_}, rng)[0]);
}

Vector Mechanism::Run(const Workload& workload, const Vector& x,
                      Rng* rng) const {
  return workload.Answer(Release(x, rng));
}

std::vector<Vector> Mechanism::ReleaseBatch(const Vector& x, std::size_t batch,
                                            Rng* rng) const {
  TraceSpan span("Mechanism::ReleaseBatch", "mechanism");
  return ReleaseEstimates(*strategy_, x, noise_,
                          std::vector<double>(batch, sigma_), rng);
}

double MeanRelativeError(const Workload& workload, const Mechanism& mech,
                         const DataVector& data,
                         const RelativeErrorOptions& opts) {
  DPMM_CHECK_EQ(workload.num_cells(), data.size());
  const Vector truth = workload.Answer(data.counts);
  Rng rng(opts.seed);
  double sum = 0;
  for (std::size_t t = 0; t < opts.trials; ++t) {
    const Vector est = mech.Run(workload, data.counts, &rng);
    DPMM_CHECK_EQ(est.size(), truth.size());
    double trial = 0;
    for (std::size_t q = 0; q < truth.size(); ++q) {
      trial += std::fabs(est[q] - truth[q]) /
               std::max(std::fabs(truth[q]), opts.floor);
    }
    sum += trial / static_cast<double>(truth.size());
  }
  return sum / static_cast<double>(opts.trials);
}

}  // namespace dpmm
