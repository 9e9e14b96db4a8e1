// Post-processing and budgeting utilities around the mechanism:
//  * synthetic-data release — the paper notes (Sec. 1) that the mechanism's
//    output "can often be treated as a synthetic data set"; this module
//    turns the least-squares estimate x_hat into nonnegative integral
//    counts (post-processing, so privacy is unaffected);
//  * sequential composition — splitting one (eps, delta) budget across
//    several batch releases;
//  * per-query error profiles — the analytic standard deviation of each
//    individual workload query under a strategy (Def. 5 query error);
//  * batched releases — many private releases over one strategy in a
//    single pass, sharing the strategy answers, the engine's batched
//    inference and the profile roots across the batch.
#ifndef DPMM_RELEASE_RELEASE_H_
#define DPMM_RELEASE_RELEASE_H_

#include <vector>

#include "data/data_vector.h"
#include "mechanism/privacy.h"
#include "strategy/linear_strategy.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace dpmm {
namespace release {

/// Projects an estimate x_hat to nonnegative integral counts: negatives are
/// clipped to zero, then largest-remainder rounding preserves the (rounded,
/// clipped) total. Pure post-processing of private output.
linalg::Vector NonNegativeIntegral(const linalg::Vector& x_hat);

/// A synthetic DataVector from a private estimate over `domain`.
DataVector SyntheticData(const Domain& domain, const linalg::Vector& x_hat);

/// Splits a privacy budget across k releases proportionally to `weights`
/// (basic sequential composition: the eps and delta of the parts sum to the
/// whole). Weights must be positive.
std::vector<PrivacyParams> SplitBudget(const PrivacyParams& total,
                                       const std::vector<double>& weights);

/// Standard deviation of each query of an explicit workload under the
/// matrix mechanism with the given strategy (any engine):
/// sd_q = sigma * sqrt(w_q (A^T A)^+ w_q^T) (Def. 5 / Prop. 4 per-query
/// error): sigma times QueryRoots (mechanism/error.h), the one chunked
/// solve loop, whose every root is bit-identical to a solo normal solve —
/// the dense path solves against its cached factorization, the implicit
/// path never forms an n x n matrix at all.
linalg::Vector QueryErrorProfile(const ExplicitWorkload& workload,
                                 const LinearStrategy& strategy,
                                 const PrivacyParams& privacy);

/// A batch of Gaussian-mechanism releases over one strategy, with one
/// privacy budget per release (e.g. from SplitBudget).
struct BatchReleaseResult {
  /// Least-squares estimate of the data vector, one per release.
  std::vector<linalg::Vector> x_hats;
  /// Per-release QueryErrorProfile (empty when no workload was passed).
  std::vector<linalg::Vector> error_profiles;
};

/// Runs budgets.size() private releases in one pass (through
/// ReleaseEstimates, the mechanism's own assembly). The work every release
/// shares is paid once: the noiseless strategy answers A x, the engine's
/// batched inference (for the implicit engine the eigenbasis passes and the
/// preconditioner of the block normal solve; for the dense engine the
/// strategy's one cached factorization), and — when `workload` is non-null
/// — the budget-independent per-query roots sqrt(w_q (A^T A)^+ w_q^T) behind
/// the error profiles, which each release then only rescales by its own
/// noise level. Noise is drawn release by release in sequential order, so
/// with the same starting rng state x_hats[b] is bit-identical to preparing
/// a Mechanism with budgets[b] and releasing once, and error_profiles[b] to
/// QueryErrorProfile(workload, strategy, budgets[b]).
BatchReleaseResult ReleaseBatch(const LinearStrategy& strategy,
                                const linalg::Vector& data,
                                const std::vector<PrivacyParams>& budgets,
                                Rng* rng,
                                const ExplicitWorkload* workload = nullptr);

}  // namespace release
}  // namespace dpmm

#endif  // DPMM_RELEASE_RELEASE_H_
