#include "optimize/eigen_design.h"

#include <cmath>

#include "linalg/eigen_sym.h"
#include "strategy/kron_strategy.h"

namespace dpmm {
namespace optimize {

using linalg::Matrix;
using linalg::Vector;

namespace {

/// Steps 4-5 completion scales from the squared column norms of the
/// weighted design: entry j is sqrt(max(col2) - col2[j]) where the deficit
/// exceeds the shared threshold, 0 otherwise; an empty vector when no
/// column is deficient. The one completion rule of both engines' assembly.
Vector CompletionScales(const Vector& col2) {
  double max2 = 0;
  for (double v : col2) max2 = std::max(max2, v);
  Vector completion(col2.size(), 0.0);
  bool any = false;
  for (std::size_t j = 0; j < col2.size(); ++j) {
    const double deficit = max2 - col2[j];
    if (deficit > 1e-12 * std::max(1.0, max2)) {
      completion[j] = std::sqrt(deficit);
      any = true;
    }
  }
  if (!any) completion.clear();
  return completion;
}

/// The certificate fields every engine copies from its Program-1 solution.
DesignResult CertifiedResult(const WeightingSolution& sol, std::size_t rank) {
  DesignResult out;
  out.rank = rank;
  out.predicted_objective = sol.objective;
  out.duality_gap = sol.relative_gap;
  out.solver_iterations = sol.iterations;
  out.solver_report = sol.report;
  return out;
}

/// lambda_i = sqrt(u_i): the eigen-query weights from the Program-1 point.
Vector WeightsFromSolution(const Vector& u) {
  Vector weights(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    weights[i] = std::sqrt(std::max(0.0, u[i]));
  }
  return weights;
}

}  // namespace

Strategy AssembleWeightedStrategy(const Matrix& eigenvectors,
                                  const std::vector<std::size_t>& kept,
                                  const Vector& weights, bool complete_columns,
                                  std::string name) {
  DPMM_CHECK_EQ(kept.size(), weights.size());
  const std::size_t n = eigenvectors.rows();
  const std::size_t r = kept.size();

  // A' = diag(lambda) * Q_kept (rows are weighted eigen-queries).
  Matrix a(r, n);
  for (std::size_t i = 0; i < r; ++i) {
    const double lam = weights[i];
    double* row = a.RowPtr(i);
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = lam * eigenvectors(j, kept[i]);
    }
  }
  if (!complete_columns) return Strategy(std::move(a), std::move(name));

  // Steps 4-5: bring every column up to the maximum column norm by
  // appending scaled unit rows. Sensitivity is unchanged; the extra queries
  // only add information.
  Vector col2(n, 0.0);
  for (std::size_t i = 0; i < r; ++i) {
    const double* row = a.RowPtr(i);
    for (std::size_t j = 0; j < n; ++j) col2[j] += row[j] * row[j];
  }
  const Vector completion = CompletionScales(col2);
  if (completion.empty()) return Strategy(std::move(a), std::move(name));
  std::size_t num_rows = 0;
  for (double v : completion) num_rows += v > 0.0 ? 1 : 0;
  Matrix d(num_rows, n);
  std::size_t k = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (completion[j] > 0.0) d(k++, j) = completion[j];
  }
  return Strategy(a.VStack(d), std::move(name));
}

Strategy SqrtEigenvalueStrategy(const linalg::SymmetricEigenResult& eigen,
                                double rank_rel_tol, bool complete_columns) {
  Vector kept_values;
  std::vector<std::size_t> kept =
      KeptSpectrum(eigen.values, rank_rel_tol, &kept_values);
  DPMM_CHECK_GT(kept.size(), 0u);
  Vector weights;
  weights.reserve(kept_values.size());
  for (double v : kept_values) {
    weights.push_back(std::pow(v, 0.25));  // lambda = sigma^(1/4)
  }
  // Normalize to unit sensitivity for comparability.
  Strategy raw = AssembleWeightedStrategy(eigen.vectors, kept, weights,
                                          complete_columns, "SqrtEigenvalue");
  linalg::Matrix a = raw.matrix();
  const double sens = a.MaxColNorm();
  DPMM_CHECK_GT(sens, 0.0);
  a.Scale(1.0 / sens);
  return Strategy(std::move(a), "SqrtEigenvalue");
}

Result<DesignResult> Design(const linalg::SymmetricEigenResult& eigen,
                            const DesignOptions& options) {
  if (options.engine == EngineSelection::kKron) {
    return Status::InvalidArgument(
        "a dense eigendecomposition cannot yield a kron strategy");
  }
  std::vector<std::size_t> kept;
  WeightingProblem problem =
      MakeEigenProblem(eigen, options.rank_rel_tol, &kept);
  auto solved = SolveWeighting(problem, options.solver);
  if (!solved.ok()) return solved.status();
  const WeightingSolution& sol = solved.ValueOrDie();

  DesignResult out = CertifiedResult(sol, kept.size());
  out.engine = StrategyEngine::kDense;
  out.strategy = std::make_shared<Strategy>(AssembleWeightedStrategy(
      eigen.vectors, kept, WeightsFromSolution(sol.x),
      options.complete_columns, "EigenDesign"));
  return out;
}

namespace {

// For a genuinely Kronecker-product spectrum with the full rank kept, the
// q = 1 weighting problem *separates per axis*: with c = (x) c_ax and
// G = (x) (Q_ax o Q_ax)^T, the Kronecker product of the per-axis inner
// minimizers is the joint inner minimizer, so the product of per-axis
// dual optima satisfies the joint KKT system (up to one uniform rescale,
// which the joint solver's warm start applies in closed form). Solving k
// tiny d_ax-dim problems and certifying the composition at the full scale
// replaces thousands of O(n sum d_i) joint iterations with a handful —
// the difference between a ~1e-6 and a ~1e-11 certified gap at n = 64^3.
// Returns an empty vector when the instance is not separable (partial
// spectrum, non-product values such as marginals' summed spectra, or a
// failed per-axis solve); the caller then takes the generic path.
Vector SeparableWarmStart(const linalg::KronEigenResult& eigen,
                          const std::vector<std::size_t>& kept,
                          const DesignOptions& options,
                          int* axis_iterations, double* axis_seconds) {
  const std::size_t n = eigen.basis.dim();
  const auto& factors = eigen.basis.factors();
  if (factors.size() < 2 || kept.size() != n) return Vector();
  const double v0 = eigen.values[0];
  if (!(v0 > 0.0)) return Vector();

  // Per-axis spectra from the axis-aligned slices of the product values.
  // Any positive per-axis scale yields the same per-axis optimizer, so the
  // slices' embedded constants are harmless.
  const std::size_t k = factors.size();
  std::vector<Vector> axis_c(k);
  {
    std::size_t stride = 1;
    for (std::size_t ax = k; ax-- > 0;) {
      const std::size_t d = factors[ax].rows();
      axis_c[ax].resize(d);
      for (std::size_t a = 0; a < d; ++a) {
        const double v = eigen.values[a * stride];
        if (!(v > 0.0)) return Vector();
        axis_c[ax][a] = v;
      }
      stride *= d;
    }
  }
  // Product-structure check: marginals-style summed spectra share the
  // factored basis but are not products of their slices.
  {
    const double slice_norm = std::pow(1.0 / v0, static_cast<double>(k - 1));
    for (std::size_t j = 0; j < n; ++j) {
      double pred = slice_norm;
      std::size_t rest = j;
      for (std::size_t ax = k; ax-- > 0;) {
        const std::size_t d = factors[ax].rows();
        pred *= axis_c[ax][rest % d];
        rest /= d;
      }
      if (std::fabs(pred - eigen.values[j]) >
          1e-9 * std::max(std::fabs(eigen.values[j]), v0)) {
        return Vector();
      }
    }
  }

  // Solve each axis and compose the dual points (row-major natural order).
  // The composed gap is roughly the sum of the per-axis gaps, so each axis
  // runs well past the joint tolerance — the axis problems are d_ax-dim,
  // so even a 10k-iteration budget costs ~a second against thousands of
  // O(n sum d_i) joint iterations saved.
  SolverOptions axis_options = options.solver;
  // The axis solves are internal machinery, not the user's joint-method
  // choice: always run the strongest pipeline so the composition is as
  // deep as the axis problems allow.
  axis_options.method = SolverMethod::kLbfgs;
  axis_options.relative_gap_tol = std::min(
      1e-11, options.solver.relative_gap_tol / (4.0 * static_cast<double>(k)));
  axis_options.max_iterations = std::max(options.solver.max_iterations, 10000);
  axis_options.record_trajectory = false;
  Vector warm(n, 1.0);
  std::size_t stride = 1;
  for (std::size_t ax = k; ax-- > 0;) {
    const std::size_t d = factors[ax].rows();
    linalg::KronEigenBasis axis_basis({factors[ax]});
    std::vector<std::size_t> axis_kept(d);
    for (std::size_t a = 0; a < d; ++a) axis_kept[a] = a;
    const KronEigenConstraintOperator axis_op(&axis_basis, axis_kept);
    auto solved =
        SolveWeighting(axis_c[ax], axis_op, /*exponent=*/1, axis_options);
    if (!solved.ok() || solved.ValueOrDie().dual_point.size() != d) {
      return Vector();
    }
    *axis_iterations += solved.ValueOrDie().iterations;
    *axis_seconds += solved.ValueOrDie().report.seconds;
    const Vector& mu_ax = solved.ValueOrDie().dual_point;
    for (std::size_t j = 0; j < n; ++j) {
      warm[j] *= mu_ax[(j / stride) % d];
    }
    stride *= d;
  }
  return warm;
}

}  // namespace

Result<DesignResult> Design(const linalg::KronEigenResult& eigen,
                            const DesignOptions& options) {
  if (options.engine == EngineSelection::kDense) {
    return Status::InvalidArgument(
        "a factored eigendecomposition cannot yield a dense strategy");
  }
  const std::size_t n = eigen.basis.dim();
  DPMM_CHECK_EQ(eigen.values.size(), n);
  // Sec. 4.1 rank reduction through the shared threshold rule.
  Vector c;
  std::vector<std::size_t> kept =
      KeptSpectrum(eigen.values, options.rank_rel_tol, &c);
  if (kept.empty()) {
    return Status::InvalidArgument("zero spectrum in kron Design");
  }

  const KronEigenConstraintOperator op(&eigen.basis, kept);
  // The accelerated methods exploit per-axis separability of product
  // spectra (see SeparableWarmStart); the default ascent keeps its exact
  // legacy behavior.
  Vector warm;
  int axis_iterations = 0;
  double axis_seconds = 0;
  if (options.solver.method != SolverMethod::kAscent) {
    warm = SeparableWarmStart(eigen, kept, options, &axis_iterations,
                              &axis_seconds);
  }
  auto solved = SolveWeighting(c, op, /*exponent=*/1, options.solver,
                               warm.empty() ? nullptr : &warm);
  if (!solved.ok()) return solved.status();
  WeightingSolution sol = std::move(solved).ValueOrDie();
  if (!warm.empty()) {
    // The warm start's per-axis solves are real solver work: fold their
    // cost into the report so "iterations=0, 0 s" can never be read as a
    // free certificate. The joint trajectory's clock starts after the axis
    // solves ran, so its samples shift by the same amount — report.seconds
    // and the trajectory stay mutually consistent.
    sol.iterations += axis_iterations;
    sol.report.iterations += axis_iterations;
    sol.report.seconds += axis_seconds;
    for (SolverGapSample& sample : sol.report.trajectory) {
      sample.seconds += axis_seconds;
    }
  }

  DesignResult out = CertifiedResult(sol, kept.size());
  out.engine = StrategyEngine::kKron;

  // Steps 4-5 without forming A: squared column norms are one squared-basis
  // apply of u = lambda^2; deficits become the diagonal completion block
  // (CompletionScales — the same rule as the dense assembly).
  Vector completion;
  if (options.complete_columns) {
    Vector u_full(n, 0.0);
    for (std::size_t i = 0; i < kept.size(); ++i) {
      u_full[kept[i]] = std::max(0.0, sol.x[i]);
    }
    completion = CompletionScales(eigen.basis.ApplySquared(u_full));
  }
  out.strategy = std::make_shared<KronStrategy>(
      eigen.basis, std::move(kept), WeightsFromSolution(sol.x),
      std::move(completion), "EigenDesign(Kron)");
  return out;
}

std::optional<EngineSelection> ParseEngineSelection(const std::string& name) {
  if (name == "auto") return EngineSelection::kAuto;
  if (name == "dense") return EngineSelection::kDense;
  if (name == "kron") return EngineSelection::kKron;
  return std::nullopt;
}

const char* EngineSelectionName(EngineSelection selection) {
  switch (selection) {
    case EngineSelection::kAuto:
      return "auto";
    case EngineSelection::kDense:
      return "dense";
    case EngineSelection::kKron:
      return "kron";
  }
  return "auto";
}

Result<DesignResult> Design(const Workload& workload,
                            const DesignOptions& options) {
  if (options.engine != EngineSelection::kDense) {
    // The factored eigendecomposition is uncached (O(sum d_i^3)): compute
    // it once and design straight from it.
    std::optional<linalg::KronEigenResult> keig = workload.ImplicitEigen();
    if (keig.has_value()) return Design(*keig, options);
    if (options.engine == EngineSelection::kKron) {
      // nullopt conflates "no structure" with a failed factor eigensolve;
      // re-run the latter so the caller sees the real error.
      auto kron = workload.KronGramFactors();
      if (kron.has_value()) {
        auto factored = linalg::FactorKronEigen(*kron);
        if (!factored.ok()) return factored.status();
      }
      return Status::InvalidArgument("workload '" + workload.Name() +
                                     "' exposes no Kronecker eigenstructure");
    }
  }
  // Low-rank shortcut (Sec. 4.1): for explicit workloads with many fewer
  // queries than cells, the nonzero spectrum of W^T W comes from the small
  // m x m side — O(m^2 n) instead of the O(n^3) dense eigensolve.
  const linalg::Matrix* w = workload.matrix();
  if (w != nullptr && w->rows() * 2 < w->cols()) {
    auto eig = linalg::LowRankGramEigen(*w, options.rank_rel_tol);
    if (!eig.ok()) return eig.status();
    return Design(eig.ValueOrDie(), options);
  }
  // The Gram lives until the design returns: freeing it first measured a
  // higher peak RSS (perfbench adhoc, +1.2 MB) through allocator reuse.
  const linalg::Matrix gram = workload.Gram();
  auto eig = linalg::SymmetricEigen(gram);
  if (!eig.ok()) return eig.status();
  return Design(eig.ValueOrDie(), options);
}

}  // namespace optimize
}  // namespace dpmm
