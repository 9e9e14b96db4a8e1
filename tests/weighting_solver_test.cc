// Tests for the Program-1 solver: dual solver vs the independent barrier
// reference on random instances, KKT / duality-gap certificates, the stall
// detector's window decision, and closed-form corner cases.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "linalg/eigen_sym.h"
#include "optimize/dual_solver.h"
#include "optimize/weighting_problem.h"
#include "util/rng.h"
#include "workload/builders.h"
#include "workload/gram.h"
#include "workload/marginal_workloads.h"

#include "support/reference_solver.h"

namespace dpmm {
namespace optimize {
namespace {

using linalg::Matrix;

WeightingProblem RandomProblem(std::size_t nv, std::size_t nc, int exponent,
                               Rng* rng) {
  WeightingProblem p;
  p.exponent = exponent;
  p.c.resize(nv);
  for (auto& v : p.c) v = 0.1 + 3.0 * rng->UniformDouble();
  p.constraints = Matrix(nc, nv);
  for (std::size_t j = 0; j < nc; ++j) {
    for (std::size_t i = 0; i < nv; ++i) {
      p.constraints(j, i) = rng->UniformDouble();
    }
    // Guarantee every variable appears in some constraint.
    p.constraints(j, j % nv) += 0.2;
  }
  return p;
}

double MaxConstraint(const WeightingProblem& p, const linalg::Vector& x) {
  double mx = 0;
  for (std::size_t j = 0; j < p.num_constraints(); ++j) {
    double v = 0;
    for (std::size_t i = 0; i < p.num_vars(); ++i) {
      v += p.constraints(j, i) * x[i];
    }
    mx = std::max(mx, v);
  }
  return mx;
}

TEST(DualSolver, SingleVariableClosedForm) {
  // min c/u s.t. g*u <= 1 -> u = 1/g, objective c*g.
  WeightingProblem p;
  p.exponent = 1;
  p.c = {2.0};
  p.constraints = Matrix::FromRows({{4.0}});
  SolverOptions tight;
  tight.relative_gap_tol = 1e-9;  // the solver honors tighter tolerances
  auto sol = SolveWeighting(p, tight).ValueOrDie();
  EXPECT_NEAR(sol.x[0], 0.25, 1e-8);
  EXPECT_NEAR(sol.objective, 8.0, 1e-7);
  EXPECT_LT(sol.relative_gap, 1e-7);
}

TEST(DualSolver, SymmetricDoublyStochasticCase) {
  // Equal c with an orthogonal design: by symmetry u = 1 is optimal and the
  // objective is sum(c).
  const std::size_t n = 6;
  Matrix q = HelmertBasis(n);
  WeightingProblem p;
  p.exponent = 1;
  p.c.assign(n, 3.0);
  p.constraints = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      p.constraints(j, i) = q(i, j) * q(i, j);
    }
  }
  auto sol = SolveWeighting(p).ValueOrDie();
  EXPECT_NEAR(sol.objective, 18.0, 1e-6);
}

TEST(DualSolver, ZeroObjectiveDegenerate) {
  WeightingProblem p;
  p.exponent = 1;
  p.c = {0.0, 0.0};
  p.constraints = Matrix::FromRows({{1.0, 1.0}});
  auto sol = SolveWeighting(p).ValueOrDie();
  EXPECT_EQ(sol.objective, 0.0);
  EXPECT_LE(MaxConstraint(p, sol.x), 1.0 + 1e-12);
}

class SolverRandomInstances
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SolverRandomInstances, DualMatchesBarrierReference) {
  auto [nv, nc, exponent] = GetParam();
  Rng rng(nv * 100 + nc * 10 + exponent);
  WeightingProblem p = RandomProblem(nv, nc, exponent, &rng);

  auto dual = SolveWeighting(p).ValueOrDie();
  auto barrier = SolveWeightingBarrier(p).ValueOrDie();

  // Independent algorithms must agree on the optimum.
  EXPECT_NEAR(dual.objective, barrier.objective,
              2e-4 * std::max(1.0, barrier.objective));
  // Both solutions feasible.
  EXPECT_LE(MaxConstraint(p, dual.x), 1.0 + 1e-9);
  EXPECT_LE(MaxConstraint(p, barrier.x), 1.0 + 1e-9);
  // Gap certificate: the dual bound brackets both.
  EXPECT_LE(dual.dual_bound, dual.objective + 1e-9);
  EXPECT_LE(dual.dual_bound, barrier.objective * (1.0 + 1e-6));
  EXPECT_LT(dual.relative_gap, 2e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Instances, SolverRandomInstances,
    ::testing::Values(std::tuple{1, 3, 1}, std::tuple{2, 2, 1},
                      std::tuple{3, 5, 1}, std::tuple{5, 4, 1},
                      std::tuple{8, 8, 1}, std::tuple{12, 20, 1},
                      std::tuple{2, 3, 2}, std::tuple{4, 6, 2},
                      std::tuple{8, 10, 2}));

TEST(StallDetector, GuardedWhileNoFinitePrimalExists) {
  // Before any feasible primal point is found, best.objective is +inf and
  // the window gap would be inf/inf = NaN; the detector must report "not
  // stalled" deterministically instead of depending on a NaN comparison
  // (which silently reset the counter, and would flip meaning if the
  // comparison were ever rewritten with the operands reversed).
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(internal::StallWindowStalled(inf, 1.0, 1.0, 1000));
  EXPECT_FALSE(internal::StallWindowStalled(inf, 1.0, 0.5, 1000));
  EXPECT_FALSE(internal::StallWindowStalled(inf, 0.0, 0.0, 0));
}

TEST(StallDetector, FlagsHopelessAndSparesProgressingWindows) {
  // Zero progress against a real gap: stalled.
  EXPECT_TRUE(internal::StallWindowStalled(10.0, 5.0, 5.0, 1000));
  // Strong progress (0.1 over the window, 10 windows left, gap 0.5):
  // projected 0.67 > 0.2 * gap, not stalled.
  EXPECT_FALSE(internal::StallWindowStalled(1.5, 1.0, 0.9, 1000));
  // The same slope with only one window of budget left cannot close the
  // gap: stalled.
  EXPECT_TRUE(internal::StallWindowStalled(2.0, 1.0, 0.999, 100));
  // Gap already closed (dual == objective): projected progress exceeds the
  // zero gap, not stalled (the gap-tolerance check terminates first anyway).
  EXPECT_FALSE(internal::StallWindowStalled(2.0, 2.0, 1.0, 1000));
}

TEST(DualSolver, EigenProblemKktAtOptimum) {
  // On a real workload: optimal u must activate the binding constraints
  // (complementary slackness holds through the duality gap certificate).
  Matrix gram = gram::AllRange1D(32);
  auto eig = linalg::SymmetricEigen(gram).ValueOrDie();
  std::vector<std::size_t> kept;
  WeightingProblem p = MakeEigenProblem(eig, 1e-10, &kept);
  EXPECT_EQ(kept.size(), 32u);  // full-rank workload
  SolverOptions tight;
  tight.max_iterations = 20000;
  tight.relative_gap_tol = 1e-7;
  auto sol = SolveWeighting(p, tight).ValueOrDie();
  EXPECT_LT(sol.relative_gap, 2e-5);
  // Sensitivity normalized: the tightest constraint is exactly 1.
  EXPECT_NEAR(MaxConstraint(p, sol.x), 1.0, 1e-9);
  // Every weight strictly positive (all eigenvalues nonzero).
  for (double u : sol.x) EXPECT_GT(u, 0.0);
}

TEST(WeightingProblem, EigenCoefficientsAreEigenvalues) {
  Matrix gram = gram::Prefix1D(10);
  auto eig = linalg::SymmetricEigen(gram).ValueOrDie();
  std::vector<std::size_t> kept;
  WeightingProblem p = MakeEigenProblem(eig, 1e-10, &kept);
  for (std::size_t v = 0; v < kept.size(); ++v) {
    EXPECT_NEAR(p.c[v], eig.values[kept[v]], 1e-9);
  }
}

TEST(WeightingProblem, GeneralBasisMatchesEigenOnOrthogonalInput) {
  // MakeL2Problem with the eigenbasis as a general basis must produce the
  // same c as MakeEigenProblem.
  Matrix gram = gram::AllRange1D(12);
  auto eig = linalg::SymmetricEigen(gram).ValueOrDie();
  Matrix basis = eig.vectors.Transposed();  // rows = eigen queries
  WeightingProblem general = MakeL2Problem(gram, basis);
  std::vector<std::size_t> kept;
  WeightingProblem eigenp = MakeEigenProblem(eig, 0.0, &kept);
  ASSERT_EQ(general.c.size(), eigenp.c.size());
  for (std::size_t i = 0; i < general.c.size(); ++i) {
    EXPECT_NEAR(general.c[i], eigenp.c[i], 1e-7);
  }
}

TEST(WeightingProblem, RankReductionDropsZeroEigenvalues) {
  // Fig. 1 workload has rank 4 over 8 cells.
  Matrix gram =
      ExplicitWorkload::FromMatrix(builders::Fig1Matrix(), "Fig1").Gram();
  auto eig = linalg::SymmetricEigen(gram).ValueOrDie();
  std::vector<std::size_t> kept;
  WeightingProblem p = MakeEigenProblem(eig, 1e-10, &kept);
  EXPECT_EQ(kept.size(), 4u);
  EXPECT_EQ(p.num_vars(), 4u);
  EXPECT_EQ(p.num_constraints(), 8u);
}

}  // namespace
}  // namespace optimize
}  // namespace dpmm
