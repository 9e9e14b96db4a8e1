// The (eps, delta)-matrix mechanism (Prop. 3): answer the strategy queries
// with the Gaussian mechanism, infer the least-squares estimate x_hat of the
// data vector, and answer the workload as W x_hat. Answers are mutually
// consistent because they derive from the single estimate x_hat.
//
// The mechanism is one formula for every engine — y = A x + noise, then
// x_hat = (A^T A)^+ A^T y — so it runs entirely through the LinearStrategy
// interface: Apply for A x, the sensitivities for the noise scale, and
// LeastSquaresBatch for the inference. Rank-deficient strategies (legal when
// the workload lies in the strategy's row space — e.g. the paper's Fig. 2
// adaptive output for the rank-4 Fig. 1 workload) get the minimum-norm
// estimate through the interface's normal-solve semantics.
#ifndef DPMM_MECHANISM_MATRIX_MECHANISM_H_
#define DPMM_MECHANISM_MATRIX_MECHANISM_H_

#include <memory>
#include <vector>

#include "data/data_vector.h"
#include "mechanism/privacy.h"
#include "strategy/linear_strategy.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/workload.h"

namespace dpmm {

/// A prepared matrix mechanism: a strategy plus the noise scale of one
/// budget. Copies share the strategy (and with it any lazily cached
/// factorization).
class Mechanism {
 public:
  enum class NoiseKind {
    kGaussian,  // (eps, delta)-DP, scale from L2 sensitivity (Prop. 2/3)
    kLaplace,   // eps-DP, scale from L1 sensitivity (Sec. 3.5)
  };

  /// Derives the noise scale from the budget through the strategy's
  /// sensitivity (L2 for Gaussian, L1 for Laplace). Null strategies are
  /// InvalidArgument.
  static Result<Mechanism> Prepare(
      std::shared_ptr<const LinearStrategy> strategy, PrivacyParams privacy,
      NoiseKind noise = NoiseKind::kGaussian);

  StrategyEngine engine() const { return strategy_->engine(); }
  const LinearStrategy& strategy() const { return *strategy_; }
  double noise_scale() const { return sigma_; }

  /// One private release: the least-squares estimate x_hat of the data
  /// vector (all workload answers derive from it by post-processing).
  linalg::Vector Release(const linalg::Vector& x, Rng* rng) const;

  /// One private release of the workload answers W x_hat.
  linalg::Vector Run(const Workload& workload, const linalg::Vector& x,
                     Rng* rng) const;

  /// `batch` private releases of this mechanism's budget each, sharing A x
  /// and the engine's batched inference. Entry b is byte-identical to the
  /// b-th of `batch` sequential Release calls.
  std::vector<linalg::Vector> ReleaseBatch(const linalg::Vector& x,
                                           std::size_t batch, Rng* rng) const;

 private:
  Mechanism(std::shared_ptr<const LinearStrategy> strategy, NoiseKind noise,
            double sigma)
      : strategy_(std::move(strategy)), noise_(noise), sigma_(sigma) {}

  std::shared_ptr<const LinearStrategy> strategy_;
  NoiseKind noise_;
  double sigma_;  // noise scale for the strategy queries
};

/// The release assembly behind every private estimate: y_b = A x + noise at
/// noise_scales[b], then x_hat_b = (A^T A)^+ A^T y_b through the strategy's
/// LeastSquaresBatch. A x is computed once for the whole batch and noise is
/// drawn release-major, so with the same starting rng state entry b is
/// bit-identical to the b-th of noise_scales.size() single-scale calls — and
/// the rng ends in the same state. Mechanism::Release / ReleaseBatch and
/// release::ReleaseBatch all run through here, so the bitwise
/// batched == sequential contract cannot drift between the layers.
std::vector<linalg::Vector> ReleaseEstimates(
    const LinearStrategy& strategy, const linalg::Vector& x,
    Mechanism::NoiseKind noise, const std::vector<double>& noise_scales,
    Rng* rng);

/// Options for Monte-Carlo relative-error evaluation (Sec. 3.4 / Fig. 3b,d).
struct RelativeErrorOptions {
  std::size_t trials = 20;
  /// Relative error of a query is |est - true| / max(|true|, floor); the
  /// floor guards near-empty queries as in prior evaluations.
  double floor = 1.0;
  std::uint64_t seed = 7;
};

/// Mean relative error over all workload queries and trials, running the
/// prepared mechanism on the given data vector.
double MeanRelativeError(const Workload& workload, const Mechanism& mech,
                         const DataVector& data,
                         const RelativeErrorOptions& opts);

}  // namespace dpmm

#endif  // DPMM_MECHANISM_MATRIX_MECHANISM_H_
