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
// One overload set of Design() is the whole design API: over a workload
// (which runs step 1 and picks the engine), a dense or a factored
// eigendecomposition; every overload returns the one DesignResult.
#ifndef DPMM_OPTIMIZE_EIGEN_DESIGN_H_
#define DPMM_OPTIMIZE_EIGEN_DESIGN_H_

#include <memory>
#include <optional>
#include <string>

#include "linalg/eigen_sym.h"
#include "linalg/kron_operator.h"
#include "optimize/dual_solver.h"
#include "strategy/linear_strategy.h"
#include "strategy/strategy.h"
#include "util/status.h"
#include "workload/workload.h"

namespace dpmm {
namespace optimize {

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

struct DesignOptions {
  /// Eigenvalues below rank_rel_tol * max are treated as zero.
  double rank_rel_tol = 1e-10;
  SolverOptions solver;
  /// Steps 4-5 (column completion). Disabled only in ablation benches.
  bool complete_columns = true;
  /// Engine for Design(workload); the spectrum overloads accept kAuto and
  /// their own engine.
  EngineSelection engine = EngineSelection::kAuto;
};

/// The design result of every engine, with the strategy behind the
/// interface. `strategy` is shared (immutable) so a StrategyArtifact, a
/// Mechanism and concurrent serving readers can hold it without copies.
/// The kept eigen-queries and their weights live in the strategy.
struct DesignResult {
  std::shared_ptr<const LinearStrategy> strategy;
  StrategyEngine engine = StrategyEngine::kDense;
  /// Predicted trace term sum c_i/u_i at sensitivity 1 (before completion):
  /// total-convention error = sqrt(P * predicted_objective).
  double predicted_objective = 0;
  double duality_gap = 0;
  int solver_iterations = 0;
  std::size_t rank = 0;  // number of kept (nonzero) eigen-queries
  /// Program-1 convergence diagnostics (method, phase switches, restarts,
  /// optional gap trajectory when options.solver.record_trajectory is set).
  SolverReport solver_report;
};

/// Runs Program 2 for the workload through the engine the options select
/// (kAuto applies the decision rule above). The kron engine uses the
/// factored Workload::ImplicitEigen; EngineSelection::kKron on a workload
/// without Kronecker eigenstructure is InvalidArgument (a failed factor
/// eigensolve reports its own error). The dense engine eigendecomposes
/// W^T W numerically, except that explicit workloads with m queries over n
/// cells and m << n take the Sec. 4.1 low-rank path: the nonzero spectrum
/// comes from the m x m side in O(m^2 n) instead of O(n^3).
Result<DesignResult> Design(const Workload& workload,
                            const DesignOptions& options = {});

/// Program 2 from a dense eigendecomposition of W^T W (e.g.
/// linalg::SymmetricEigen of a Gram, MarginalsWorkload::AnalyticEigen, or
/// one decomposition shared by several designs). The result is an explicit
/// Strategy named "EigenDesign"; options.engine == kKron is
/// InvalidArgument.
Result<DesignResult> Design(const linalg::SymmetricEigenResult& eigen,
                            const DesignOptions& options = {});

/// Program 2 from a factored eigendecomposition (Workload::ImplicitEigen or
/// linalg::FactorKronEigen): the spectrum is in natural Kronecker order,
/// Program 1 runs against the implicit squared-eigenbasis constraint
/// operator, and the result is a KronStrategy named "EigenDesign(Kron)" —
/// no dense matrix anywhere, O(sum d_i^3 + iters * n sum d_i) in total.
/// options.engine == kDense is InvalidArgument.
Result<DesignResult> Design(const linalg::KronEigenResult& eigen,
                            const DesignOptions& options = {});

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
