// The engine-agnostic strategy interface. The adaptive mechanism is one
// algorithm — eigen-design -> weighted strategy -> noisy release — but its
// strategies come in two physical representations: an explicit p x n matrix
// (Strategy) and an implicit diag-weights-over-a-Kronecker-eigenbasis form
// (KronStrategy) that never materializes the matrix. Everything downstream
// of strategy selection (the mechanism's release step, per-query error
// profiles, the artifact store, the serve engine) needs only a handful of
// operations that both forms provide; LinearStrategy is that contract, so
// one Mechanism / one artifact format / one answer engine serves both
// representations, none of them dispatching on the concrete type. Adding a
// third engine (e.g. sum-of-Kronecker) means implementing this interface
// and extending the artifact codec (which rejects unknown engine tags),
// nothing else.
#ifndef DPMM_STRATEGY_LINEAR_STRATEGY_H_
#define DPMM_STRATEGY_LINEAR_STRATEGY_H_

#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.h"

namespace dpmm {

class Strategy;

/// Physical representation of a strategy — the dispatch tag for the
/// artifact format (payload layout), the store, and CLI reporting.
enum class StrategyEngine {
  kDense,  // explicit p x n matrix
  kKron,   // implicit Kronecker-eigenbasis form
};

/// "dense" | "kron" (stable: used in CLI output and bench JSON).
const char* StrategyEngineName(StrategyEngine engine);

/// Abstract strategy of linear queries: everything the matrix mechanism and
/// the serving stack need from a strategy A, independent of how A is
/// represented. Implementations must be safe for concurrent readers on a
/// const instance (lazy caches behind call_once or equivalent) — the serve
/// answer engine shares one strategy across threads.
class LinearStrategy {
 public:
  virtual ~LinearStrategy() = default;

  /// Number of strategy queries p (rows of A).
  virtual std::size_t num_queries() const = 0;
  /// Domain size n (columns of A).
  virtual std::size_t num_cells() const = 0;
  /// Display name for reports.
  virtual const std::string& name() const = 0;
  /// The physical representation this strategy uses.
  virtual StrategyEngine engine() const = 0;

  /// A x (length num_queries()).
  virtual linalg::Vector Apply(const linalg::Vector& x) const = 0;
  /// A^T y (length num_cells()).
  virtual linalg::Vector ApplyT(const linalg::Vector& y) const = 0;

  /// L2 sensitivity ||A||_2 (max column norm, Prop. 1).
  virtual double L2Sensitivity() const = 0;
  /// L1 sensitivity ||A||_1 (max column absolute sum).
  virtual double L1Sensitivity() const = 0;

  /// The explicit p x n matrix form (a copy for the dense engine; O(p n)
  /// memory, so small domains only) — what standalone strategy files hold.
  virtual Strategy Materialize() const = 0;

  // The normal-equation solves behind least-squares inference and the
  // per-query error roots sqrt(w_q (A^T A)^+ w_q^T). Non-virtual entry
  // points so the rel_tol default lives in exactly one place (defaults on
  // virtuals bind to the static type); each engine implements two hooks,
  // SolveNormalBatchImpl and (optionally) LeastSquaresBatchImpl, and a
  // single solve is the batch hook at width 1 — one code path per engine.
  // Semantics: minimum-norm solution of (A^T A) z = b when A^T A is
  // singular. `rel_tol` bounds the iterative engines' relative residual;
  // direct engines (dense) ignore it.

  linalg::Vector SolveNormal(const linalg::Vector& b,
                             double rel_tol = 1e-12) const {
    return std::move(SolveNormalBatchImpl({b}, rel_tol)[0]);
  }

  /// Solves B right-hand sides; entry i is bit-identical to
  /// SolveNormal(bs[i], rel_tol) on every engine — answers never depend on
  /// how queries were grouped.
  std::vector<linalg::Vector> SolveNormalBatch(
      const std::vector<linalg::Vector>& bs, double rel_tol = 1e-12) const {
    return SolveNormalBatchImpl(bs, rel_tol);
  }

  /// Least-squares inference for B noisy answer vectors: entry i is
  /// (A^T A)^+ A^T ys[i], bit-identical to SolveNormal(ApplyT(ys[i]),
  /// rel_tol) on every engine — the matrix mechanism's inference step.
  std::vector<linalg::Vector> LeastSquaresBatch(
      const std::vector<linalg::Vector>& ys, double rel_tol = 1e-12) const {
    return LeastSquaresBatchImpl(ys, rel_tol);
  }

 protected:
  virtual std::vector<linalg::Vector> SolveNormalBatchImpl(
      const std::vector<linalg::Vector>& bs, double rel_tol) const = 0;
  /// Column by column through ApplyT and SolveNormal; engines that can share
  /// work across the batch override it.
  virtual std::vector<linalg::Vector> LeastSquaresBatchImpl(
      const std::vector<linalg::Vector>& ys, double rel_tol) const {
    std::vector<linalg::Vector> out;
    out.reserve(ys.size());
    for (const auto& y : ys) out.push_back(SolveNormal(ApplyT(y), rel_tol));
    return out;
  }
};

}  // namespace dpmm

#endif  // DPMM_STRATEGY_LINEAR_STRATEGY_H_
