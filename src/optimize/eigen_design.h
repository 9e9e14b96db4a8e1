// The Eigen-Design algorithm (Program 2, Sec. 3.3) — the paper's primary
// contribution. Steps:
//   1. eigendecompose W^T W = Q^T D Q (the eigen-queries, Def. 6);
//   2. solve the optimal query-weighting problem (Program 1) with the
//      eigen-queries as the design set and c_i = sigma_i;
//   3. form A' = diag(lambda) Q;
//   4/5. complete deficient columns with scaled unit rows, which raises no
//      sensitivity but adds information (Steps 4-5 of Program 2).
// Zero eigenvalues are dropped (Sec. 4.1 rank reduction); the completion
// rows restore full rank so the mechanism's least-squares step is unique.
#ifndef DPMM_OPTIMIZE_EIGEN_DESIGN_H_
#define DPMM_OPTIMIZE_EIGEN_DESIGN_H_

#include <memory>
#include <optional>
#include <string>

#include "linalg/eigen_sym.h"
#include "linalg/kron_operator.h"
#include "optimize/dual_solver.h"
#include "strategy/kron_strategy.h"
#include "strategy/linear_strategy.h"
#include "strategy/strategy.h"
#include "util/status.h"
#include "workload/workload.h"

namespace dpmm {
namespace optimize {

struct EigenDesignOptions {
  /// Eigenvalues below rank_rel_tol * max are treated as zero.
  double rank_rel_tol = 1e-10;
  SolverOptions solver;
  /// Steps 4-5 (column completion). Disabled only in ablation benches.
  bool complete_columns = true;
};

struct EigenDesignResult {
  Strategy strategy;                 // A, sensitivity normalized to 1
  linalg::Vector weights;            // lambda_i for the kept eigen-queries
  std::vector<std::size_t> kept;     // indices into the eigendecomposition
  /// Spectrum of W^T W (ascending); truncated to the nonzero part when the
  /// low-rank path was taken.
  linalg::Vector eigenvalues;
  /// Predicted trace term sum c_i/u_i at sensitivity 1 (before completion):
  /// total-convention error = sqrt(P * predicted_objective).
  double predicted_objective = 0;
  double duality_gap = 0;
  int solver_iterations = 0;
  std::size_t rank = 0;
  /// Program-1 convergence diagnostics (method, phase switches, restarts,
  /// optional gap trajectory when options.solver.record_trajectory is set).
  SolverReport solver_report;
};

/// Runs Program 2 given a precomputed eigendecomposition of W^T W (use this
/// with MarginalsWorkload::AnalyticEigen, or to share one decomposition
/// across several designs).
Result<EigenDesignResult> EigenDesignFromEigen(
    const linalg::SymmetricEigenResult& eigen,
    const EigenDesignOptions& options = {});

/// Runs Program 2 on a workload Gram matrix (numeric eigendecomposition).
Result<EigenDesignResult> EigenDesign(const linalg::Matrix& workload_gram,
                                      const EigenDesignOptions& options = {});

/// Convenience: eigen-design for a workload (absolute error objective).
/// Explicit workloads with m queries over n cells and m << n take the
/// Sec. 4.1 low-rank path: the nonzero spectrum of W^T W is computed from
/// the m x m side in O(m^2 n) instead of a dense O(n^3) eigensolve.
Result<EigenDesignResult> EigenDesignForWorkload(
    const Workload& workload, const EigenDesignOptions& options = {});

/// Program 2 through the Kronecker fast path: same algorithm, no dense
/// matrices anywhere. The spectrum comes factored (natural Kronecker order),
/// the weighting problem runs against the implicit squared-eigenbasis
/// constraint operator, and the result is an implicit KronStrategy.
struct KronEigenDesignResult {
  KronStrategy strategy;
  linalg::Vector weights;          // lambda_i for the kept eigen-queries
  std::vector<std::size_t> kept;   // natural Kronecker indices, ascending
  /// Full spectrum of W^T W in natural Kronecker order (length n).
  linalg::Vector eigenvalues;
  /// Predicted trace term sum c_i/u_i at sensitivity 1 (before completion).
  double predicted_objective = 0;
  double duality_gap = 0;
  int solver_iterations = 0;
  std::size_t rank = 0;
  /// Program-1 convergence diagnostics (see EigenDesignResult).
  SolverReport solver_report;
};

/// Runs Program 2 given a factored eigendecomposition (use with
/// Workload::ImplicitEigen or linalg::FactorKronEigen). Total cost
/// O(sum d_i^3 + iters * n sum d_i) against the dense path's O(n^3).
Result<KronEigenDesignResult> EigenDesignFromKronEigen(
    const linalg::KronEigenResult& eigen,
    const EigenDesignOptions& options = {});

/// Runs Program 2 on a Kronecker-factored workload Gram.
Result<KronEigenDesignResult> EigenDesignKron(
    const linalg::KronGram& workload_gram,
    const EigenDesignOptions& options = {});

/// Kronecker eigen-design for a structured workload; fails with
/// InvalidArgument when the workload exposes no Kronecker eigenstructure
/// (use EigenDesignForWorkload for the dense path in that case).
Result<KronEigenDesignResult> EigenDesignKronForWorkload(
    const Workload& workload, const EigenDesignOptions& options = {});

// ---- The unified entry point. Design() runs Program 2 for any workload and
// returns the strategy behind the engine-agnostic LinearStrategy interface;
// EigenDesignForWorkload / EigenDesignKronForWorkload remain as the
// per-engine layers underneath it (Design adds only the engine decision and
// the polymorphic wrapping — the arithmetic per engine is identical).

/// Which engine Design() selects. kAuto encodes the ROADMAP decision rule:
/// implicit (Kronecker) whenever the workload exposes Kronecker
/// eigenstructure — it is strictly faster from n ~ 500 up and the only
/// option past n ~ 2^14 — dense fallback for unstructured/explicit
/// workloads (which keep the Sec. 4.1 low-rank m << n shortcut).
enum class EngineSelection {
  kAuto,
  kDense,  // force the dense pipeline
  kKron,   // require the implicit pipeline (error when unavailable)
};

/// "auto" | "dense" | "kron" (the CLI's --engine vocabulary); nullopt for
/// anything else — callers decide whether that is a hard error.
std::optional<EngineSelection> ParseEngineSelection(const std::string& name);
const char* EngineSelectionName(EngineSelection selection);

struct DesignOptions : EigenDesignOptions {
  EngineSelection engine = EngineSelection::kAuto;
};

/// The engine-agnostic design result: the common subset of
/// EigenDesignResult / KronEigenDesignResult, with the strategy behind the
/// interface. `strategy` is shared (immutable) so a StrategyArtifact, a
/// Mechanism and concurrent serving readers can hold it without copies.
struct DesignResult {
  std::shared_ptr<const LinearStrategy> strategy;
  StrategyEngine engine = StrategyEngine::kDense;
  /// Predicted trace term sum c_i/u_i at sensitivity 1 (before completion).
  double predicted_objective = 0;
  double duality_gap = 0;
  int solver_iterations = 0;
  std::size_t rank = 0;
  SolverReport solver_report;
};

/// Runs Program 2 for the workload through the engine the options select
/// (kAuto applies the decision rule above). EngineSelection::kKron on a
/// workload without Kronecker eigenstructure is InvalidArgument. The
/// per-engine results are bit-identical to calling the corresponding
/// EigenDesign*ForWorkload directly.
Result<DesignResult> Design(const Workload& workload,
                            const DesignOptions& options = {});

/// Steps 4-5 completion scales from the squared column norms of the
/// weighted design: entry j is sqrt(max(col2) - col2[j]) where the deficit
/// exceeds the shared threshold, 0 otherwise; an empty vector when no
/// column is deficient. The single source of the completion rule for both
/// the dense and the implicit assembly paths.
linalg::Vector CompletionScales(const linalg::Vector& col2);

/// Builds the strategy diag(weights) * basis_rows(kept) with optional column
/// completion — shared by the eigen-design and the Sec. 4 optimizations.
Strategy AssembleWeightedStrategy(const linalg::Matrix& eigenvectors,
                                  const std::vector<std::size_t>& kept,
                                  const linalg::Vector& weights,
                                  bool complete_columns, std::string name);

/// The strategy A_l of Thm. 2: eigen-queries weighted by sqrt(sigma_i). It
/// underlies the singular value bound, is the dual solver's starting point,
/// and serves as the ablation baseline for the optimal weighting step.
Strategy SqrtEigenvalueStrategy(const linalg::SymmetricEigenResult& eigen,
                                double rank_rel_tol = 1e-10,
                                bool complete_columns = true);

}  // namespace optimize
}  // namespace dpmm

#endif  // DPMM_OPTIMIZE_EIGEN_DESIGN_H_
