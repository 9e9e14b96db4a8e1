// Convergence regressions for the accelerated Program-1 solvers: golden-gap
// bounds (gap <= tol within an iteration budget) for ascent / FISTA /
// L-BFGS on small dense and Kronecker instances, adaptive-restart behavior
// when momentum overshoots, the structured SolverReport contract, and the
// L-BFGS two-loop machinery itself. Runs under the `solver` ctest label so
// CI fails fast on convergence regressions.
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "optimize/dual_solver.h"
#include "optimize/eigen_design.h"
#include "optimize/lbfgs.h"
#include "optimize/weighting_problem.h"
#include "util/rng.h"
#include "workload/gram.h"
#include "workload/marginal_workloads.h"
#include "workload/range_workloads.h"

namespace dpmm {
namespace optimize {
namespace {

using linalg::Matrix;
using linalg::Vector;

WeightingProblem DenseEigenInstance(std::size_t n) {
  Matrix gram = gram::AllRange1D(n);
  auto eig = linalg::SymmetricEigen(gram).ValueOrDie();
  std::vector<std::size_t> kept;
  return MakeEigenProblem(eig, 1e-10, &kept);
}

SolverOptions Tight(SolverMethod method, double tol, int iters) {
  SolverOptions opt;
  opt.method = method;
  opt.relative_gap_tol = tol;
  opt.max_iterations = iters;
  return opt;
}

// ---- Golden-gap regressions, dense instances ----

TEST(SolverConvergence, AscentReachesClassicFloorOnDense) {
  auto sol =
      SolveWeighting(DenseEigenInstance(32),
                     Tight(SolverMethod::kAscent, 1e-12, 3000))
          .ValueOrDie();
  // The plain ascent plateaus around 1e-4..1e-6 here; it must stay at least
  // that good (and its certificate must be consistent).
  EXPECT_LT(sol.relative_gap, 5e-4);
  EXPECT_LE(sol.dual_bound, sol.objective + 1e-9);
}

TEST(SolverConvergence, FistaBeatsAscentOnDense) {
  auto sol = SolveWeighting(DenseEigenInstance(32),
                            Tight(SolverMethod::kFista, 1e-12, 3000))
                 .ValueOrDie();
  EXPECT_LT(sol.relative_gap, 1e-6);
}

TEST(SolverConvergence, LbfgsReachesDeepGapOnDense) {
  // The tentpole claim: where ascent stalls around 1e-4, the staged L-BFGS
  // pipeline pushes the certified duality gap to ~1e-10.
  auto sol = SolveWeighting(DenseEigenInstance(32),
                            Tight(SolverMethod::kLbfgs, 1e-12, 3000))
                 .ValueOrDie();
  EXPECT_LT(sol.relative_gap, 1e-9);
}

TEST(SolverConvergence, LbfgsHandlesL1ExponentInstance) {
  // q = 2 (the eps-DP weighting): a random non-doubly-stochastic instance,
  // the shape that once trapped the box phase in a slow creep. The phase
  // rotation must reach deep gaps here too.
  Rng rng(7);
  WeightingProblem p;
  p.exponent = 2;
  p.c.resize(12);
  for (auto& v : p.c) v = 0.1 + 3.0 * rng.UniformDouble();
  p.constraints = Matrix(20, 12);
  for (std::size_t j = 0; j < 20; ++j) {
    for (std::size_t i = 0; i < 12; ++i) {
      p.constraints(j, i) = rng.UniformDouble();
    }
  }
  auto sol =
      SolveWeighting(p, Tight(SolverMethod::kLbfgs, 1e-11, 3000)).ValueOrDie();
  EXPECT_LT(sol.relative_gap, 1e-9);
}

// ---- Golden-gap regressions, implicit Kronecker instances ----

TEST(SolverConvergence, LbfgsReachesDeepGapOnKronOperator) {
  AllRangeWorkload w(Domain({8, 8}));
  const auto keig = *w.ImplicitEigen();
  Vector c;
  std::vector<std::size_t> kept = KeptSpectrum(keig.values, 1e-10, &c);
  const KronEigenConstraintOperator op(&keig.basis, kept);

  auto ascent =
      SolveWeighting(c, op, 1, Tight(SolverMethod::kAscent, 1e-12, 3000))
          .ValueOrDie();
  auto lbfgs =
      SolveWeighting(c, op, 1, Tight(SolverMethod::kLbfgs, 1e-12, 3000))
          .ValueOrDie();
  // Ascent stalls (its stall detector fires well above the tolerance);
  // L-BFGS must go at least three orders of magnitude deeper and stay
  // consistent with the ascent's bound.
  EXPECT_GT(ascent.relative_gap, 1e-8);
  EXPECT_LT(lbfgs.relative_gap, 1e-9);
  EXPECT_LT(lbfgs.relative_gap, 1e-3 * ascent.relative_gap);
  EXPECT_GE(lbfgs.dual_bound, ascent.dual_bound - 1e-9 * ascent.objective);
}

TEST(SolverConvergence, ScaledStartIsExactOnMarginalsSpectrum) {
  // The marginals eigen-problem's optimum is a uniform rescale of the
  // all-ones start; the gradient methods' scaled start lands on it exactly,
  // so the solve certifies a ~1e-12 gap within a handful of iterations.
  MarginalsWorkload w = MarginalsWorkload::AllKWay(Domain({4, 4, 4}), 2);
  const auto keig = *w.ImplicitEigen();
  Vector c;
  std::vector<std::size_t> kept = KeptSpectrum(keig.values, 1e-10, &c);
  const KronEigenConstraintOperator op(&keig.basis, kept);
  auto sol =
      SolveWeighting(c, op, 1, Tight(SolverMethod::kLbfgs, 1e-11, 3000))
          .ValueOrDie();
  EXPECT_LT(sol.relative_gap, 1e-11);
  EXPECT_LE(sol.iterations, 50);
}

TEST(SolverConvergence, SeparableWarmStartCertifiesProductSpectra) {
  // Product spectrum (3D all-range): for q = 1 the weighting problem
  // separates per axis, so the accelerated design composes the per-axis
  // optima and the joint solve only certifies — deep gap, ~zero joint
  // iterations. This is the mechanism behind the 64^3 headline number.
  AllRangeWorkload w(Domain({6, 5, 4}));
  const auto keig = *w.ImplicitEigen();
  DesignOptions accel;
  accel.solver.method = SolverMethod::kLbfgs;
  accel.solver.relative_gap_tol = 1e-10;
  auto design = Design(keig, accel);
  ASSERT_TRUE(design.ok());
  const auto& d = design.ValueOrDie();
  EXPECT_LT(d.duality_gap, 1e-10);
  // The joint solve certifies the composed point immediately: its own
  // phases run ~no iterations. (d.solver_iterations is much larger — it
  // honestly folds in the per-axis warm-start solves.)
  EXPECT_LE(d.solver_report.fista_iterations +
                d.solver_report.lbfgs_iterations,
            5);
  EXPECT_GT(d.solver_iterations,
            d.solver_report.fista_iterations +
                d.solver_report.lbfgs_iterations);

  // The certified optimum agrees with the generic (default-ascent) design.
  auto baseline = Design(keig);
  ASSERT_TRUE(baseline.ok());
  EXPECT_NEAR(d.predicted_objective,
              baseline.ValueOrDie().predicted_objective,
              1e-4 * d.predicted_objective);
  EXPECT_LE(d.predicted_objective,
            baseline.ValueOrDie().predicted_objective * (1.0 + 1e-12));
}

TEST(SolverConvergence, SeparablePathDeclinesSummedSpectra) {
  // Marginals share the factored basis but their spectrum is a *sum* of
  // products — the separable fast path must detect that and decline, with
  // the generic pipeline still converging (the scaled start is optimal).
  MarginalsWorkload w = MarginalsWorkload::AllKWay(Domain({4, 3, 3}), 2);
  const auto keig = *w.ImplicitEigen();
  DesignOptions accel;
  accel.solver.method = SolverMethod::kLbfgs;
  accel.solver.relative_gap_tol = 1e-10;
  auto design = Design(keig, accel);
  ASSERT_TRUE(design.ok());
  EXPECT_LT(design.ValueOrDie().duality_gap, 1e-10);
}

// ---- Adaptive restart and report structure ----

TEST(SolverConvergence, FistaRestartsWhenMomentumOvershoots) {
  // On the all-range spectrum the momentum sequence overshoots the narrow
  // curved valley; the function-value restart must fire (and keep firing)
  // rather than let the dual oscillate — and the best dual bound must stay
  // monotone through it all (overshoot may never corrupt the certificate).
  auto sol = SolveWeighting(DenseEigenInstance(32),
                            Tight(SolverMethod::kFista, 1e-12, 500))
                 .ValueOrDie();
  EXPECT_GT(sol.report.restarts, 0);
  EXPECT_LE(sol.dual_bound, sol.objective + 1e-9);
}

TEST(SolverConvergence, RestartKeepsTrajectoryDualMonotone) {
  SolverOptions opt = Tight(SolverMethod::kFista, 1e-12, 300);
  opt.record_trajectory = true;
  auto sol = SolveWeighting(DenseEigenInstance(16), opt).ValueOrDie();
  ASSERT_GT(sol.report.trajectory.size(), 10u);
  ASSERT_GT(sol.report.restarts, 0);
  double prev = -1e300;
  for (const auto& sample : sol.report.trajectory) {
    EXPECT_GE(sample.dual, prev);  // best-so-far bound never regresses
    prev = sample.dual;
  }
  // The final state can only improve on the last recorded sample (moves
  // accepted after the last observation still fold into the bound).
  const auto& last = sol.report.trajectory.back();
  EXPECT_LE(sol.relative_gap, last.gap + 1e-12);
  EXPECT_GE(sol.dual_bound, last.dual - 1e-9 * std::fabs(sol.dual_bound));
}

TEST(SolverConvergence, ReportPhaseAccounting) {
  auto sol = SolveWeighting(DenseEigenInstance(32),
                            Tight(SolverMethod::kLbfgs, 1e-12, 2000))
                 .ValueOrDie();
  const SolverReport& r = sol.report;
  EXPECT_EQ(r.method, SolverMethod::kLbfgs);
  EXPECT_EQ(r.iterations, sol.iterations);
  EXPECT_GT(r.fista_iterations, 0);
  EXPECT_GT(r.lbfgs_iterations, 0);
  EXPECT_GE(r.phase_switch_iteration, 0);
  EXPECT_NEAR(r.final_gap, sol.relative_gap, 1e-15);
  EXPECT_TRUE(r.trajectory.empty());  // off unless requested
  // Ascent runs report their own method and no momentum phases.
  auto ascent = SolveWeighting(DenseEigenInstance(16),
                               Tight(SolverMethod::kAscent, 1e-12, 500))
                    .ValueOrDie();
  EXPECT_EQ(ascent.report.method, SolverMethod::kAscent);
  EXPECT_EQ(ascent.report.fista_iterations, 0);
  EXPECT_EQ(ascent.report.lbfgs_iterations, 0);
  EXPECT_EQ(ascent.report.phase_switch_iteration, -1);
}

TEST(SolverConvergence, MethodsAgreeOnTheOptimum) {
  const WeightingProblem p = DenseEigenInstance(24);
  auto a = SolveWeighting(p, Tight(SolverMethod::kAscent, 1e-9, 3000))
               .ValueOrDie();
  auto f = SolveWeighting(p, Tight(SolverMethod::kFista, 1e-9, 3000))
               .ValueOrDie();
  auto l = SolveWeighting(p, Tight(SolverMethod::kLbfgs, 1e-9, 3000))
               .ValueOrDie();
  // All three certify the same optimum (within their achieved gaps).
  EXPECT_NEAR(f.objective, l.objective, 1e-5 * l.objective);
  EXPECT_NEAR(a.objective, l.objective, 1e-3 * l.objective);
  EXPECT_GE(l.dual_bound, a.dual_bound - 1e-9 * l.objective);
}

TEST(SolverConvergence, ParseSolverMethodVocabulary) {
  EXPECT_EQ(ParseSolverMethod("ascent"), SolverMethod::kAscent);
  EXPECT_EQ(ParseSolverMethod("fista"), SolverMethod::kFista);
  EXPECT_EQ(ParseSolverMethod("lbfgs"), SolverMethod::kLbfgs);
  EXPECT_FALSE(ParseSolverMethod("newton").has_value());
  EXPECT_FALSE(ParseSolverMethod("").has_value());
  EXPECT_STREQ(SolverMethodName(SolverMethod::kLbfgs), "lbfgs");
}

// ---- L-BFGS two-loop machinery ----

TEST(LbfgsHistory, SecantEquationHoldsForNewestPair) {
  // The defining BFGS property: after pushing (s, y), H y = s holds exactly
  // for the newest pair, independent of the seed scaling or older pairs.
  const Matrix a = Matrix::FromRows({{4.0, 1.0, 0.0},
                                     {1.0, 3.0, 0.5},
                                     {0.0, 0.5, 2.0}});
  LbfgsHistory hist(3);
  const std::vector<Vector> steps = {{1.0, 0.0, 0.0},
                                     {0.2, 1.0, 0.0},
                                     {0.1, -0.3, 1.0}};
  for (const auto& s : steps) {
    Vector y = linalg::MatVec(a, s);
    ASSERT_TRUE(hist.Push(s, y));
    const Vector hy = hist.ApplyInverseHessian(y);
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_NEAR(hy[i], s[i], 1e-12);
    }
  }
  // Also exact under a diagonal seed metric.
  const Vector h0 = {0.25, 1.0, 4.0};
  const Vector y_last = linalg::MatVec(a, steps.back());
  const Vector hy = hist.ApplyInverseHessian(y_last, &h0);
  for (std::size_t i = 0; i < steps.back().size(); ++i) {
    EXPECT_NEAR(hy[i], steps.back()[i], 1e-12);
  }
}

TEST(LbfgsHistory, RejectsNonCurvaturePairsAndEvictsOldest) {
  LbfgsHistory hist(2);
  EXPECT_FALSE(hist.Push({1.0, 0.0}, {-1.0, 0.0}));  // s^T y < 0
  EXPECT_FALSE(hist.Push({1.0, 0.0}, {0.0, 1.0}));   // s^T y = 0
  EXPECT_EQ(hist.size(), 0u);
  EXPECT_TRUE(hist.Push({1.0, 0.0}, {2.0, 0.0}));
  EXPECT_TRUE(hist.Push({0.0, 1.0}, {0.0, 3.0}));
  EXPECT_TRUE(hist.Push({1.0, 1.0}, {2.0, 3.0}));  // evicts the first
  EXPECT_EQ(hist.size(), 2u);
  hist.Clear();
  EXPECT_EQ(hist.size(), 0u);
  // Empty history: identity (plain gradient direction).
  const Vector g = {3.0, -4.0};
  EXPECT_EQ(hist.ApplyInverseHessian(g), g);
}

TEST(LbfgsHistory, DiagonalSeedScalesEmptyApply) {
  LbfgsHistory hist(4);
  const Vector g = {2.0, -6.0};
  const Vector h0 = {0.5, 2.0};
  const Vector r = hist.ApplyInverseHessian(g, &h0);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], -12.0);
}

TEST(LbfgsProjection, ActiveSetAndMasking) {
  Vector x = {0.0, 1e-15, 0.5, 0.0};
  Vector grad = {1.0, 2.0, 3.0, -1.0};
  // Pinned at the bound with the gradient pushing outward: 0 and 1.
  // Coordinate 3 is at the bound but its gradient pulls inward: free.
  const std::vector<char> active = ActiveBoundSet(x, grad, 1e-12);
  EXPECT_EQ(active, (std::vector<char>{1, 1, 0, 0}));
  Vector d = {5.0, 5.0, 5.0, 5.0};
  MaskDirection(active, &d);
  EXPECT_EQ(d, (Vector{0.0, 0.0, 5.0, 5.0}));
  Vector v = {-1.0, 2.0, -0.0, 3.0};
  ProjectNonNegative(&v);
  for (double val : v) EXPECT_GE(val, 0.0);
  EXPECT_EQ(v[1], 2.0);
  EXPECT_EQ(v[3], 3.0);
}

}  // namespace
}  // namespace optimize
}  // namespace dpmm
