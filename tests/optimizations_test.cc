// Tests for the Sec. 4 performance optimizations: eigen-query separation and
// the principal-vectors method. Both must stay close to the full design and
// above the lower bound.
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/svd.h"
#include "mechanism/bounds.h"
#include "mechanism/error.h"
#include "optimize/eigen_design.h"
#include "optimize/eigen_separation.h"
#include "optimize/principal_vectors.h"
#include "workload/marginal_workloads.h"
#include "workload/range_workloads.h"

#include "support/linalg_oracles.h"

namespace dpmm {
namespace {

ErrorOptions Opts() {
  ErrorOptions o;
  o.privacy = {0.5, 1e-4};
  return o;
}

class GroupSizes : public ::testing::TestWithParam<int> {};

TEST_P(GroupSizes, SeparationStaysNearFullDesign) {
  const std::size_t g = GetParam();
  Domain dom({48});
  AllRangeWorkload w(dom);
  ErrorOptions opts = Opts();
  auto eig = linalg::SymmetricEigen(w.Gram()).ValueOrDie();
  const Strategy full =
      optimize::Design(eig).ValueOrDie().strategy->Materialize();
  auto sep = optimize::EigenSeparationDesign(eig, g).ValueOrDie();
  const double full_err = StrategyError(w, full, opts);
  const double sep_err = StrategyError(w, sep.strategy, opts);
  EXPECT_EQ(sep.num_groups, (48 + g - 1) / g);
  // Within 20% of the full design (paper: ~5-11% at the paper's sizes).
  EXPECT_LE(sep_err, 1.20 * full_err) << "group size " << g;
  // Never below the bound.
  EXPECT_GE(sep_err,
            SvdErrorLowerBound(eig.values, w.num_queries(), opts) * (1 - 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroupSizes, ::testing::Values(1, 2, 4, 8, 16, 48));

TEST(EigenSeparation, FullGroupEqualsFullDesign) {
  // One group containing every eigen-query is the unrestricted problem (the
  // second-stage scale is then redundant).
  Domain dom({24});
  AllRangeWorkload w(dom);
  ErrorOptions opts = Opts();
  auto eig = linalg::SymmetricEigen(w.Gram()).ValueOrDie();
  const Strategy full =
      optimize::Design(eig).ValueOrDie().strategy->Materialize();
  auto sep = optimize::EigenSeparationDesign(eig, 24).ValueOrDie();
  EXPECT_NEAR(StrategyError(w, sep.strategy, opts),
              StrategyError(w, full, opts), 1e-3);
}

class PrincipalCounts : public ::testing::TestWithParam<int> {};

TEST_P(PrincipalCounts, PrincipalVectorsStaysNearFullDesign) {
  const std::size_t k = GetParam();
  Domain dom({48});
  AllRangeWorkload w(dom);
  ErrorOptions opts = Opts();
  auto eig = linalg::SymmetricEigen(w.Gram()).ValueOrDie();
  const Strategy full =
      optimize::Design(eig).ValueOrDie().strategy->Materialize();
  auto pv = optimize::PrincipalVectorsDesign(eig, k).ValueOrDie();
  EXPECT_EQ(pv.num_principal, k);
  const double full_err = StrategyError(w, full, opts);
  const double pv_err = StrategyError(w, pv.strategy, opts);
  EXPECT_LE(pv_err, 1.25 * full_err) << "k = " << k;
  EXPECT_GE(pv_err,
            SvdErrorLowerBound(eig.values, w.num_queries(), opts) * (1 - 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Counts, PrincipalCounts,
                         ::testing::Values(2, 5, 12, 24, 47));

TEST(PrincipalVectors, AllVectorsEqualsFullDesign) {
  Domain dom({24});
  AllRangeWorkload w(dom);
  ErrorOptions opts = Opts();
  auto eig = linalg::SymmetricEigen(w.Gram()).ValueOrDie();
  const Strategy full =
      optimize::Design(eig).ValueOrDie().strategy->Materialize();
  auto pv = optimize::PrincipalVectorsDesign(eig, 24).ValueOrDie();
  EXPECT_EQ(pv.num_principal, 24u);
  EXPECT_NEAR(StrategyError(w, pv.strategy, opts),
              StrategyError(w, full, opts), 1e-4);
}

TEST(PrincipalVectors, MoreVectorsNeverHurtMuch) {
  // Error should be (weakly) improving as k grows.
  Domain dom({32});
  AllRangeWorkload w(dom);
  ErrorOptions opts = Opts();
  auto eig = linalg::SymmetricEigen(w.Gram()).ValueOrDie();
  double prev = 1e100;
  for (std::size_t k : {2, 8, 16, 32}) {
    auto pv = optimize::PrincipalVectorsDesign(eig, k).ValueOrDie();
    const double err = StrategyError(w, pv.strategy, opts);
    EXPECT_LE(err, prev * 1.02) << "k = " << k;
    prev = err;
  }
}

TEST(Optimizations, WorkOnRankDeficientMarginals) {
  Domain dom({4, 4, 2});
  MarginalsWorkload w = MarginalsWorkload::AllKWay(dom, 1);
  ErrorOptions opts = Opts();
  auto eig = w.AnalyticEigen();
  auto sep = optimize::EigenSeparationDesign(eig, 2).ValueOrDie();
  auto pv = optimize::PrincipalVectorsDesign(eig, 3).ValueOrDie();
  const double bound =
      SvdErrorLowerBound(eig.values, w.num_queries(), opts);
  EXPECT_GE(StrategyError(w, sep.strategy, opts), bound * (1 - 1e-6));
  EXPECT_GE(StrategyError(w, pv.strategy, opts), bound * (1 - 1e-6));
  // Both strategies must answer the workload exactly (the workload lies in
  // their row spaces even though completion need not give full rank).
  const linalg::Matrix wm = w.Materialize();
  EXPECT_LT(linalg::RowSpaceResidual(wm, sep.strategy.matrix()), 1e-7);
  EXPECT_LT(linalg::RowSpaceResidual(wm, pv.strategy.matrix()), 1e-7);
}

}  // namespace
}  // namespace dpmm
