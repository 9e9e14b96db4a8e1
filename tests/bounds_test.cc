// Tests for the singular value bound (Thm. 2): closed-form cases and the
// property that every constructed strategy's error dominates the bound.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "mechanism/bounds.h"
#include "mechanism/error.h"
#include "optimize/eigen_design.h"
#include "strategy/hierarchical.h"
#include "strategy/wavelet.h"
#include "util/rng.h"
#include "workload/builders.h"
#include "workload/marginal_workloads.h"
#include "workload/range_workloads.h"

namespace dpmm {
namespace {

ErrorOptions Opts() {
  ErrorOptions o;
  o.privacy = {0.5, 1e-4};
  return o;
}

TEST(SvdBound, IdentityWorkload) {
  // W = I: all eigenvalues 1, svdb = n^2/n = n... (sum of sqrt = n)^2/n = n.
  linalg::Vector ev(8, 1.0);
  EXPECT_DOUBLE_EQ(SvdBoundValue(ev), 8.0);
}

TEST(SvdBound, ScalesQuadratically) {
  // Doubling W scales eigenvalues of W^T W by 4 and svdb by 4.
  linalg::Vector ev{1, 2, 3};
  linalg::Vector ev4{4, 8, 12};
  EXPECT_NEAR(SvdBoundValue(ev4), 4.0 * SvdBoundValue(ev), 1e-12);
}

TEST(SvdBound, ClipsNegativeRoundingNoise) {
  linalg::Vector ev{-1e-14, 1.0};
  EXPECT_NEAR(SvdBoundValue(ev), 0.5, 1e-9);
}

TEST(SvdBound, IdentityStrategyAchievesBoundForIdentityWorkload) {
  // For W = I the identity strategy is optimal and its error equals the
  // bound exactly.
  auto w = ExplicitWorkload::FromMatrix(linalg::Matrix::Identity(16), "I");
  ErrorOptions opts = Opts();
  const double err = StrategyError(w, IdentityStrategy(16), opts);
  const double bound =
      SvdErrorLowerBound(w.Gram(), w.num_queries(), opts);
  EXPECT_NEAR(err, bound, 1e-9);
}

TEST(SvdBound, InvariantUnderPermutation) {
  Domain dom({24});
  auto base = std::make_shared<AllRangeWorkload>(dom);
  Rng rng(3);
  PermutedWorkload perm(base, rng.Permutation(24));
  ErrorOptions opts = Opts();
  EXPECT_NEAR(SvdErrorLowerBound(base->Gram(), base->num_queries(), opts),
              SvdErrorLowerBound(perm.Gram(), perm.num_queries(), opts),
              1e-8);
}

// Property: the bound is below the error of every strategy we can build.
class BoundDominance : public ::testing::TestWithParam<int> {};

TEST_P(BoundDominance, EveryStrategyErrorIsAboveBound) {
  const int which = GetParam();
  std::unique_ptr<Workload> w;
  Domain dom({16});
  switch (which) {
    case 0:
      w = std::make_unique<AllRangeWorkload>(dom);
      break;
    case 1:
      w = std::make_unique<PrefixWorkload>(16);
      break;
    case 2: {
      Rng rng(9);
      w = std::make_unique<ExplicitWorkload>(
          builders::RandomPredicateWorkload(dom, 30, &rng));
      break;
    }
    default: {
      Domain d2({4, 4});
      w = std::make_unique<MarginalsWorkload>(
          MarginalsWorkload::AllKWay(d2, 1));
      break;
    }
  }
  ErrorOptions opts = Opts();
  const linalg::Matrix gram = w->Gram();
  const double bound = SvdErrorLowerBound(gram, w->num_queries(), opts);

  const Domain& wd = w->domain();
  std::vector<Strategy> strategies;
  strategies.push_back(IdentityStrategy(wd.NumCells()));
  strategies.push_back(WaveletStrategy(wd));
  strategies.push_back(HierarchicalStrategy(wd));
  strategies.push_back(
      optimize::Design(linalg::SymmetricEigen(gram).ValueOrDie())
          .ValueOrDie()
          .strategy->Materialize());
  for (const auto& s : strategies) {
    const double err = StrategyError(gram, w->num_queries(), s, opts);
    EXPECT_GE(err, bound * (1.0 - 1e-4))
        << "strategy " << s.name() << " beat the lower bound";
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, BoundDominance,
                         ::testing::Values(0, 1, 2, 3));

TEST(SvdBound, ConventionScaling) {
  linalg::Vector ev{1, 4, 9};
  ErrorOptions per = Opts();
  ErrorOptions total = Opts();
  total.convention = ErrorConvention::kTotal;
  EXPECT_NEAR(SvdErrorLowerBound(ev, 7, total),
              SvdErrorLowerBound(ev, 7, per) * std::sqrt(7.0), 1e-10);
}

}  // namespace
}  // namespace dpmm
