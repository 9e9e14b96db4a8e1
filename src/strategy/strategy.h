// Strategy matrices (Sec. 2.3): the set of queries actually submitted to the
// Gaussian mechanism, from which workload answers are derived by least
// squares. A Strategy is an explicit p x n matrix plus a display name — the
// dense engine behind the LinearStrategy interface, with the one lazily
// cached factorization of A^T A that every normal solve uses.
#ifndef DPMM_STRATEGY_STRATEGY_H_
#define DPMM_STRATEGY_STRATEGY_H_

#include <memory>
#include <string>

#include "linalg/matrix.h"
#include "strategy/linear_strategy.h"
#include "util/mutex.h"

namespace dpmm {

/// An explicit strategy matrix with a display name.
class Strategy : public LinearStrategy {
 public:
  Strategy() : cache_(MakeNormalCache()) {}
  Strategy(linalg::Matrix a, std::string name)
      : a_(std::move(a)), name_(std::move(name)), cache_(MakeNormalCache()) {}

  const linalg::Matrix& matrix() const { return a_; }
  const std::string& name() const override { return name_; }
  std::size_t num_queries() const override { return a_.rows(); }
  std::size_t num_cells() const override { return a_.cols(); }
  StrategyEngine engine() const override { return StrategyEngine::kDense; }

  /// A x / A^T y as plain dense matvecs.
  linalg::Vector Apply(const linalg::Vector& x) const override;
  linalg::Vector ApplyT(const linalg::Vector& y) const override;

  /// L2 sensitivity ||A||_2 (max column norm, Prop. 1).
  double L2Sensitivity() const override { return a_.MaxColNorm(); }

  /// L1 sensitivity ||A||_1 (max column absolute sum).
  double L1Sensitivity() const override { return a_.MaxColAbsSum(); }

  Strategy Materialize() const override { return *this; }

  /// Gram matrix A^T A.
  linalg::Matrix Gram() const;

 protected:
  // Normal-equation solves, the one dense factorization behind releases,
  // per-query error profiles (Def. 5 / Prop. 4) and the serve engine:
  // Cholesky of A^T A when it factors, otherwise (rank-deficient strategies,
  // e.g. the paper's Fig. 2 output) the minimum-norm solution through
  // (A^T A)^+ = A^+ (A^+)^T. Factored once on first use (thread-safe; copies
  // share the cache); rel_tol is ignored — the solve is direct. The batch
  // solves its columns independently and in parallel, so a column's answer
  // does not depend on the batch (SolveNormal is this at width 1).
  std::vector<linalg::Vector> SolveNormalBatchImpl(
      const std::vector<linalg::Vector>& bs, double rel_tol) const override;

 private:
  /// Lazily computed factorization of A^T A, shared by copies. The
  /// once_flag makes the first SolveNormal race-free under concurrent
  /// serving readers.
  struct NormalCache;
  static std::shared_ptr<NormalCache> MakeNormalCache();

  // Lock-discipline audit (call_once site 1/3): the factorization (Cholesky
  // factor or Gram pseudo-inverse) is written exactly once inside
  // std::call_once and only read after the call_once returns, which
  // synchronizes-with the winning initializer — a Mutex would serialize
  // nothing the once_flag doesn't already. The analyzer cannot model
  // once_flag, hence the suppression.
  const NormalCache& Factorization() const DPMM_NO_THREAD_SAFETY_ANALYSIS;

  /// One column of SolveNormalBatchImpl against the cached factorization.
  linalg::Vector SolveColumn(const NormalCache& f,
                             const linalg::Vector& b) const;

  linalg::Matrix a_;
  std::string name_;
  std::shared_ptr<NormalCache> cache_;
};

/// The identity strategy (noisy cell counts).
Strategy IdentityStrategy(std::size_t n);

}  // namespace dpmm

#endif  // DPMM_STRATEGY_STRATEGY_H_
