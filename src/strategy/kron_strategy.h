// Implicit strategy over a Kronecker eigenbasis: the eigen-design output
//
//   A = [ diag(lambda) Q_kept^T ]        (weighted eigen-queries)
//       [ D                     ]        (Steps 4-5 completion, diagonal)
//
// held as the per-dimension basis factors, the kept column indices, the
// weights, and the completion diagonal — never as a dense p x n matrix.
// Every quantity the mechanism needs (matvecs with A and A^T, sensitivity,
// the normal-equation solve behind least-squares inference) runs in
// O(n sum d_i) through the vec-trick, which is what lets eigen-designed
// strategies operate at domain sizes (n >= 2^18) where the dense n x n
// representation does not fit in memory. A^T and the normal solve have one
// implementation each, over column-interleaved blocks: a single vector is
// a block of width 1, so single and batched calls run the same code.
#ifndef DPMM_STRATEGY_KRON_STRATEGY_H_
#define DPMM_STRATEGY_KRON_STRATEGY_H_

#include <string>
#include <vector>

#include "linalg/kron_operator.h"
#include "strategy/strategy.h"

namespace dpmm {

/// An implicit strategy: diagonal weights over the columns of a Kronecker
/// eigenbasis, plus an optional diagonal block of completion rows. Query
/// order: the kept eigen-queries (in ascending natural Kronecker index),
/// then one scaled unit row per completed cell (ascending cell index).
/// The kron engine behind the LinearStrategy interface.
class KronStrategy : public LinearStrategy {
 public:
  KronStrategy() = default;
  /// `completion` is either empty (no completion rows) or length
  /// num_cells(); entries are the scales of the unit rows (0 = no row for
  /// that cell).
  KronStrategy(linalg::KronEigenBasis basis, std::vector<std::size_t> kept,
               linalg::Vector weights, linalg::Vector completion,
               std::string name);

  std::size_t num_cells() const override { return basis_.dim(); }
  std::size_t num_queries() const override {
    return kept_.size() + completion_cells_.size();
  }
  const std::string& name() const override { return name_; }
  StrategyEngine engine() const override { return StrategyEngine::kKron; }

  const linalg::KronEigenBasis& basis() const { return basis_; }
  const std::vector<std::size_t>& kept() const { return kept_; }
  const linalg::Vector& weights() const { return weights_; }
  bool has_completion() const { return !completion_cells_.empty(); }
  std::size_t num_completion_rows() const { return completion_cells_.size(); }
  const linalg::Vector& completion() const { return completion_; }

  /// A x (length num_queries()).
  linalg::Vector Apply(const linalg::Vector& x) const override;

  /// A^T y (length num_cells()): the batched A^T at width 1.
  linalg::Vector ApplyT(const linalg::Vector& y) const override;

  /// Squared column norms of A (the diagonal of A^T A), in O(n sum d_i).
  linalg::Vector ColumnNormsSquared() const;

  /// L2 sensitivity = max column norm.
  double L2Sensitivity() const override;

  /// L1 sensitivity = max column absolute sum.
  double L1Sensitivity() const override;

  Strategy Materialize() const override;

 protected:
  /// The one normal-equation solver (SolveNormal is this at width 1).
  /// Without completion rows A^T A is diagonal in the eigenbasis and the
  /// solve is two basis passes (minimum-norm / pseudo-inverse semantics
  /// when columns were truncated). With completion rows it runs a block
  /// preconditioned conjugate gradient with the eigenbasis diagonal as
  /// preconditioner, down to a relative residual of `rel_tol` per column
  /// (or stagnation, whichever comes first — an unreachable floor never
  /// burns the full iteration budget). The interface default keeps
  /// inference within the 1e-8 dense-agreement contract; the trace-term
  /// validation path requests ~1e-14. The eigenbasis applies and the
  /// preconditioner run as shared passes over the interleaved block
  /// (linalg::KronMatVec), while the CG scalars (alpha, beta, residual
  /// norms, stagnation windows) and stopping decisions stay per column, so
  /// every column's result is bit-identical whatever batch it was solved
  /// in — and B systems cost a fraction of B separate solves (the shared
  /// passes stream batch-contiguous spans instead of degenerate stride-1
  /// inner loops).
  std::vector<linalg::Vector> SolveNormalBatchImpl(
      const std::vector<linalg::Vector>& bs, double rel_tol) const override;

  /// LeastSquaresBatch: the interleaved block flows straight from A^T into
  /// the block solve — no unpack/repack between the stages — so a batch of
  /// releases shares every eigenbasis pass of its inference.
  std::vector<linalg::Vector> LeastSquaresBatchImpl(
      const std::vector<linalg::Vector>& ys, double rel_tol) const override;

 private:
  /// A^T applied to B query-answer vectors through one shared eigenbasis
  /// pass, returned as the column-interleaved block (layout of
  /// linalg::PackBatch) — feed it straight into SolveNormalBatchPacked to
  /// skip an unpack/repack round-trip between the two stages. Width 1 is
  /// ApplyT.
  linalg::Vector ApplyTBatchPacked(
      const std::vector<linalg::Vector>& ys) const;

  /// SolveNormalBatch over an already column-interleaved right-hand-side
  /// block of `batch` vectors (consumed as the initial residual).
  std::vector<linalg::Vector> SolveNormalBatchPacked(
      linalg::Vector packed, std::size_t batch,
      double rel_tol) const;

  linalg::KronEigenBasis basis_;
  std::vector<std::size_t> kept_;
  linalg::Vector weights_;         // lambda_i over kept_
  linalg::Vector u_full_;          // lambda^2 scattered to natural order
  linalg::Vector completion_;      // length n or empty
  std::vector<std::size_t> completion_cells_;  // cells with completion > 0
  std::string name_;
};

}  // namespace dpmm

#endif  // DPMM_STRATEGY_KRON_STRATEGY_H_
