// Cross-module randomized property tests: invariants that must hold for
// arbitrary workloads and strategies, not just the structured cases the
// other suites pin down.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "linalg/kronecker.h"
#include "mechanism/bounds.h"
#include "mechanism/error.h"
#include "mechanism/matrix_mechanism.h"
#include "optimize/eigen_design.h"
#include "util/rng.h"
#include "workload/builders.h"
#include "workload/range_workloads.h"

namespace dpmm {
namespace {

using linalg::Matrix;
using linalg::Vector;

ErrorOptions Opts() {
  ErrorOptions o;
  o.privacy = {0.5, 1e-4};
  return o;
}

Matrix RandomMatrix(std::size_t r, std::size_t c, Rng* rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng->Gaussian();
  }
  return m;
}

class Seeds : public ::testing::TestWithParam<int> {};

TEST_P(Seeds, ErrorScalesLinearlyWithWorkload) {
  // Error(k W) = k * Error(W): the trace term scales with k^2 and the
  // strategy is unchanged.
  Rng rng(GetParam());
  Matrix w = RandomMatrix(10, 12, &rng);
  Matrix w3 = w;
  w3.Scale(3.0);
  auto wl = ExplicitWorkload::FromMatrix(w, "w");
  auto wl3 = ExplicitWorkload::FromMatrix(w3, "3w");
  Strategy id = IdentityStrategy(12);
  ErrorOptions opts = Opts();
  EXPECT_NEAR(StrategyError(wl3, id, opts), 3.0 * StrategyError(wl, id, opts),
              1e-9);
  // And the lower bound scales identically (svdb is quadratic in W).
  EXPECT_NEAR(SvdErrorLowerBound(wl3.Gram(), 10, opts),
              3.0 * SvdErrorLowerBound(wl.Gram(), 10, opts),
              1e-7 * SvdErrorLowerBound(wl3.Gram(), 10, opts));
}

TEST_P(Seeds, ErrorInvariantUnderStrategyScaling) {
  // Scaling a strategy rescales noise and inference identically: error of
  // answering any workload is unchanged.
  Rng rng(GetParam() + 100);
  Matrix w = RandomMatrix(8, 10, &rng);
  auto wl = ExplicitWorkload::FromMatrix(w, "w");
  Matrix a = RandomMatrix(14, 10, &rng);
  Matrix a5 = a;
  a5.Scale(5.0);
  ErrorOptions opts = Opts();
  EXPECT_NEAR(StrategyError(wl, Strategy(a, "a"), opts),
              StrategyError(wl, Strategy(a5, "5a"), opts), 1e-8);
}

TEST_P(Seeds, BoundDominatesRandomStrategies) {
  // Thm. 2 holds for arbitrary (not just designed) full-rank strategies.
  Rng rng(GetParam() + 200);
  Matrix w = RandomMatrix(12, 9, &rng);
  auto wl = ExplicitWorkload::FromMatrix(w, "w");
  ErrorOptions opts = Opts();
  const double bound = SvdErrorLowerBound(wl.Gram(), 12, opts);
  for (int t = 0; t < 3; ++t) {
    Matrix a = RandomMatrix(15, 9, &rng);
    EXPECT_GE(StrategyError(wl, Strategy(a, "rand"), opts),
              bound * (1 - 1e-9));
  }
}

TEST_P(Seeds, GramOfKroneckerIsKroneckerOfGrams) {
  Rng rng(GetParam() + 300);
  Matrix a = RandomMatrix(5, 3, &rng);
  Matrix b = RandomMatrix(4, 6, &rng);
  Matrix lhs = linalg::Gram(linalg::Kron(a, b));
  Matrix rhs = linalg::Kron(linalg::Gram(a), linalg::Gram(b));
  EXPECT_LT(lhs.MaxAbsDiff(rhs), 1e-9);
}

TEST_P(Seeds, SensitivityOfKroneckerIsProduct) {
  Rng rng(GetParam() + 400);
  Matrix a = RandomMatrix(5, 3, &rng);
  Matrix b = RandomMatrix(4, 6, &rng);
  EXPECT_NEAR(linalg::Kron(a, b).MaxColNorm(),
              a.MaxColNorm() * b.MaxColNorm(), 1e-9);
  EXPECT_NEAR(linalg::Kron(a, b).MaxColAbsSum(),
              a.MaxColAbsSum() * b.MaxColAbsSum(), 1e-9);
}

TEST_P(Seeds, EigenDesignInvariantUnderWorkloadRotation) {
  // Prop. 6 for arbitrary random workloads: QW has the same design error.
  Rng rng(GetParam() + 500);
  Matrix w = RandomMatrix(9, 9, &rng);
  // Orthogonal Q from an eigendecomposition.
  Matrix sym(9, 9);
  for (int i = 0; i < 9; ++i) {
    for (int j = i; j < 9; ++j) {
      sym(i, j) = rng.Gaussian();
      sym(j, i) = sym(i, j);
    }
  }
  Matrix q = linalg::SymmetricEigen(sym).ValueOrDie().vectors;
  auto w1 = ExplicitWorkload::FromMatrix(w, "w");
  auto w2 = ExplicitWorkload::FromMatrix(linalg::MatMul(q, w), "qw");
  ErrorOptions opts = Opts();
  auto design = [](const Workload& workload) {
    return optimize::Design(
               linalg::SymmetricEigen(workload.Gram()).ValueOrDie())
        .ValueOrDie()
        .strategy->Materialize();
  };
  const double e1 = StrategyError(w1, design(w1), opts);
  const double e2 = StrategyError(w2, design(w2), opts);
  EXPECT_NEAR(e1, e2, 2e-3 * e1);
}

TEST_P(Seeds, MechanismVarianceMatchesProfileForRandomStrategy) {
  // For a random full-rank strategy, empirical per-query variances agree
  // with the analytic trace formula in aggregate.
  Rng rng(GetParam() + 600);
  Domain dom({6});
  AllRangeWorkload w(dom);
  Matrix a = RandomMatrix(8, 6, &rng);
  for (int i = 0; i < 6; ++i) a(i, i) += 2.0;  // ensure full rank
  Strategy strat(a, "rand");
  ErrorOptions opts = Opts();
  const double analytic = StrategyError(w, strat, opts);
  auto mech = Mechanism::Prepare(std::make_shared<Strategy>(strat),
                                 opts.privacy)
                  .ValueOrDie();
  Vector x(6, 25.0);
  const Vector truth = w.Answer(x);
  Rng noise(GetParam() + 700);
  const int trials = 500;
  double sse = 0;
  for (int t = 0; t < trials; ++t) {
    Vector est = mech.Run(w, x, &noise);
    for (std::size_t qi = 0; qi < truth.size(); ++qi) {
      sse += (est[qi] - truth[qi]) * (est[qi] - truth[qi]);
    }
  }
  const double empirical =
      std::sqrt(sse / (trials * static_cast<double>(truth.size())));
  EXPECT_NEAR(empirical, analytic, 0.12 * analytic);
}

TEST_P(Seeds, StackedGramEqualsConcatenatedGram) {
  Rng rng(GetParam() + 800);
  Matrix wa = RandomMatrix(6, 8, &rng);
  Matrix wb = RandomMatrix(4, 8, &rng);
  auto a = std::make_shared<ExplicitWorkload>(
      ExplicitWorkload::FromMatrix(wa, "a"));
  auto b = std::make_shared<ExplicitWorkload>(
      ExplicitWorkload::FromMatrix(wb, "b"));
  StackedWorkload stacked({a, b}, "ab");
  Matrix concat = wa.VStack(wb);
  EXPECT_LT(stacked.Gram().MaxAbsDiff(linalg::Gram(concat)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, Seeds, ::testing::Range(1, 7));

}  // namespace
}  // namespace dpmm
