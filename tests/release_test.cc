// Tests for the release utilities: synthetic-data rounding, budget
// composition and per-query error profiles.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "mechanism/error.h"
#include "mechanism/matrix_mechanism.h"
#include "optimize/eigen_design.h"
#include "release/release.h"
#include "strategy/kron_strategy.h"
#include "strategy/wavelet.h"
#include "workload/builders.h"
#include "workload/range_workloads.h"

#include "support/test_data.h"

namespace dpmm {
namespace release {
namespace {

TEST(NonNegativeIntegral, ClipsAndRounds) {
  linalg::Vector x{-2.5, 1.2, 3.9, 0.4};
  linalg::Vector out = NonNegativeIntegral(x);
  ASSERT_EQ(out.size(), 4u);
  for (double v : out) {
    EXPECT_GE(v, 0.0);
    EXPECT_DOUBLE_EQ(v, std::floor(v));
  }
  // Total preserved: clipped sum = 5.5 -> 6 units.
  EXPECT_DOUBLE_EQ(linalg::SumVec(out), 6.0);
}

TEST(NonNegativeIntegral, LargestRemaindersWin) {
  linalg::Vector x{0.9, 0.1, 0.9, 0.1};  // total 2.0
  linalg::Vector out = NonNegativeIntegral(x);
  EXPECT_EQ(out, (linalg::Vector{1, 0, 1, 0}));
}

TEST(NonNegativeIntegral, IntegralInputUnchanged) {
  linalg::Vector x{3, 0, 7};
  EXPECT_EQ(NonNegativeIntegral(x), x);
}

TEST(SyntheticData, AnswersWorkloadsConsistently) {
  // End to end: a private synthetic dataset answers any query consistently
  // (it is a single nonnegative integral table).
  Domain dom({16});
  AllRangeWorkload w(dom);
  optimize::DesignOptions dense;
  dense.engine = optimize::EngineSelection::kDense;
  auto mech =
      Mechanism::Prepare(optimize::Design(w, dense).ValueOrDie().strategy,
                         {1.0, 1e-4})
          .ValueOrDie();
  linalg::Vector x(16, 100.0);
  Rng rng(3);
  DataVector synth = SyntheticData(dom, mech.Release(x, &rng));
  for (double c : synth.counts) {
    EXPECT_GE(c, 0.0);
    EXPECT_DOUBLE_EQ(c, std::floor(c));
  }
  // Large-count queries remain accurate after rounding.
  linalg::Vector est = w.Answer(synth.counts);
  linalg::Vector truth = w.Answer(x);
  EXPECT_NEAR(est.back(), truth.back(), 0.10 * truth.back());
}

TEST(SplitBudget, ProportionalAndExhaustive) {
  PrivacyParams total{1.0, 1e-4};
  auto parts = SplitBudget(total, {1.0, 3.0});
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_NEAR(parts[0].epsilon, 0.25, 1e-12);
  EXPECT_NEAR(parts[1].epsilon, 0.75, 1e-12);
  EXPECT_NEAR(parts[0].delta + parts[1].delta, total.delta, 1e-18);
}

TEST(SplitBudget, RejectsNonPositiveWeights) {
  EXPECT_DEATH(SplitBudget({1.0, 1e-4}, {1.0, 0.0}), "");
}

// Prop. 4's aggregate identity: the squared per-query bars sum to the
// squared workload error under the total convention.
void ExpectAggregateIdentity(const linalg::Vector& profile,
                             double strategy_error) {
  double total2 = 0;
  for (double sd : profile) total2 += sd * sd;
  EXPECT_NEAR(std::sqrt(total2), strategy_error, 1e-8 * strategy_error);
}

ErrorOptions TotalConvention(const PrivacyParams& privacy) {
  ErrorOptions opts;
  opts.privacy = privacy;
  opts.convention = ErrorConvention::kTotal;
  return opts;
}

TEST(QueryErrorProfile, MatchesWorkloadErrorAggregate) {
  auto w = ExplicitWorkload::FromMatrix(builders::Fig1Matrix(), "Fig1");
  Strategy wav = WaveletStrategy(Domain::OneDim(8));
  PrivacyParams privacy{0.5, 1e-4};
  linalg::Vector profile = QueryErrorProfile(w, wav, privacy);
  ASSERT_EQ(profile.size(), 8u);
  ExpectAggregateIdentity(profile,
                          StrategyError(w, wav, TotalConvention(privacy)));
}

TEST(ReleaseBatch, BitIdenticalToSequentialMechanismAndProfiles) {
  // The release-layer batch API must reproduce, bitwise, what a caller
  // would get from budget-by-budget mechanism preparation: same estimates,
  // same error profiles, same rng state afterwards.
  AllRangeWorkload ranges(Domain({4, 4}));
  auto design = optimize::Design(*ranges.ImplicitEigen());
  ASSERT_TRUE(design.ok());
  const auto strategy = design.ValueOrDie().strategy;

  const std::size_t n = ranges.num_cells();
  linalg::Matrix probe(3, n);
  for (std::size_t j = 0; j < n; ++j) probe(0, j) = 1.0;
  probe(1, 2) = 1.0;
  for (std::size_t j = 0; j < n / 2; ++j) probe(2, j) = 1.0;
  ExplicitWorkload probe_workload(ranges.domain(), probe, "probe");

  linalg::Vector data(n);
  Rng data_rng(15);
  for (auto& v : data) v = static_cast<double>(data_rng.UniformInt(30));
  const std::vector<PrivacyParams> budgets =
      SplitBudget({1.0, 1e-4}, {1.0, 2.0, 1.0, 4.0});

  Rng batch_rng(9);
  const BatchReleaseResult batched =
      ReleaseBatch(*strategy, data, budgets, &batch_rng, &probe_workload);
  ASSERT_EQ(batched.x_hats.size(), budgets.size());
  ASSERT_EQ(batched.error_profiles.size(), budgets.size());

  Rng seq_rng(9);
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    auto mech = Mechanism::Prepare(strategy, budgets[b]);
    ASSERT_TRUE(mech.ok());
    const linalg::Vector x_hat = mech.ValueOrDie().Release(data, &seq_rng);
    EXPECT_EQ(batched.x_hats[b], x_hat) << "release " << b;
    EXPECT_EQ(batched.error_profiles[b],
              QueryErrorProfile(probe_workload, *strategy, budgets[b]))
        << "profile " << b;
  }
  EXPECT_EQ(batch_rng.NextU64(), seq_rng.NextU64());
}

// A full-rank but badly scaled strategy: the error bar of the weakly
// measured cell must be the true 1e4 * sigma, the noise a release adds to
// it. A normal solve that truncates small eigenvalues of A^T A relative to
// the largest would drop this one (1e-8) and report a bar of 0.
TEST(QueryErrorProfile, BadlyScaledFullRankStrategyKeepsItsErrorBar) {
  linalg::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1e-4;
  const Strategy strategy(a, "diag(1, 1e-4)");
  const linalg::Vector z = strategy.SolveNormal({0.0, 1.0});
  EXPECT_NEAR(z[1], 1e8, 1e-12 * 1e8);
  EXPECT_EQ(z[0], 0.0);

  auto w = ExplicitWorkload::FromMatrix(linalg::Matrix::Identity(2), "cells");
  const PrivacyParams privacy{1.0, 1e-4};
  const double sigma = GaussianNoiseScale(privacy, strategy.L2Sensitivity());
  const linalg::Vector profile = QueryErrorProfile(w, strategy, privacy);
  EXPECT_NEAR(profile[0], sigma, 1e-12 * sigma);
  EXPECT_NEAR(profile[1], 1e4 * sigma, 1e-12 * 1e4 * sigma);
}

// The per-row reference the chunked solve loop must reproduce bit for bit:
// one solo normal solve per query row, sigma * sqrt(max(0, w_q . z_q)).
linalg::Vector SoloProfile(const ExplicitWorkload& workload,
                           const LinearStrategy& strategy,
                           const PrivacyParams& privacy) {
  const linalg::Matrix& w = *workload.matrix();
  const double sigma = GaussianNoiseScale(privacy, strategy.L2Sensitivity());
  linalg::Vector out(w.rows());
  for (std::size_t q = 0; q < w.rows(); ++q) {
    const linalg::Vector wq = w.Row(q);
    const linalg::Vector z = strategy.SolveNormal(wq);
    out[q] = sigma * std::sqrt(std::max(0.0, linalg::Dot(wq, z)));
  }
  return out;
}

// 70 random range rows: more than two chunks of the solve loop at these
// domain sizes, so the profile crosses chunk boundaries.
void ExpectProfileMatchesSoloSolves(const Domain& domain,
                                    const LinearStrategy& strategy) {
  constexpr std::size_t kRows = 70;
  ASSERT_LT(2 * NormalSolveWidth(strategy.num_cells()), kRows);
  Rng rng(23);
  const ExplicitWorkload probe =
      builders::RandomRangeWorkload(domain, kRows, &rng);
  const PrivacyParams privacy{0.7, 1e-5};
  EXPECT_EQ(QueryErrorProfile(probe, strategy, privacy),
            SoloProfile(probe, strategy, privacy));
}

TEST(QueryErrorProfile, ChunkedLoopMatchesSoloSolvesOnKronWithCompletion) {
  AllRangeWorkload ranges(Domain({8, 8}));
  auto design = optimize::Design(*ranges.ImplicitEigen());
  ASSERT_TRUE(design.ok());
  const auto& strategy = *design.ValueOrDie().strategy;
  ASSERT_TRUE(dynamic_cast<const KronStrategy&>(strategy).has_completion());
  ExpectProfileMatchesSoloSolves(ranges.domain(), strategy);
}

TEST(QueryErrorProfile, ChunkedLoopMatchesSoloSolvesOnDenseStrategy) {
  AllRangeWorkload ranges(Domain({16}));
  optimize::DesignOptions dense;
  dense.engine = optimize::EngineSelection::kDense;
  auto design = optimize::Design(ranges, dense);
  ASSERT_TRUE(design.ok());
  const auto& strategy = *design.ValueOrDie().strategy;
  ASSERT_EQ(strategy.engine(), StrategyEngine::kDense);
  ExpectProfileMatchesSoloSolves(ranges.domain(), strategy);
}

TEST(QueryErrorProfile, AggregateMatchesSpectralTraceOnKronWithCompletion) {
  // The implicit trace (one solve per eigendirection) against the per-query
  // bars of the same strategy: both go through the one solve loop.
  AllRangeWorkload ranges(Domain({16}));
  const auto keig = *ranges.ImplicitEigen();
  auto design = optimize::Design(keig);
  ASSERT_TRUE(design.ok());
  const auto& kron =
      dynamic_cast<const KronStrategy&>(*design.ValueOrDie().strategy);
  ASSERT_TRUE(kron.has_completion());
  const auto w = ExplicitWorkload::FromMatrix(builders::AllRangeMatrix1D(16),
                                              "allrange16");
  ASSERT_EQ(w.num_queries(), ranges.num_queries());
  const PrivacyParams privacy{0.5, 1e-4};
  ExpectAggregateIdentity(
      QueryErrorProfile(w, kron, privacy),
      StrategyError(keig.values, w.num_queries(), kron,
                    TotalConvention(privacy)));
}

TEST(QueryErrorProfile, AggregateMatchesDenseTraceOnRankDeficientFig2) {
  // The adaptive strategy of Example 4 / Fig. 2 is rank deficient: the
  // dense trace and the error bars must share one definition of which
  // directions of A^T A count as zero.
  auto w = ExplicitWorkload::FromMatrix(builders::Fig1Matrix(), "Fig1");
  auto design = optimize::Design(w);
  ASSERT_TRUE(design.ok());
  const Strategy fig2 = design.ValueOrDie().strategy->Materialize();
  ASSERT_FALSE(linalg::Cholesky::Factor(fig2.Gram()).ok());
  const PrivacyParams privacy{0.5, 1e-4};
  ExpectAggregateIdentity(QueryErrorProfile(w, fig2, privacy),
                          StrategyError(w, fig2, TotalConvention(privacy)));
}

TEST(QueryErrorProfile, IdentityStrategyGivesRowNorms) {
  // Under the identity strategy, sd_q = sigma * ||w_q||.
  auto w = ExplicitWorkload::FromMatrix(builders::PrefixMatrix1D(6), "prefix");
  Strategy id = IdentityStrategy(6);
  PrivacyParams privacy{1.0, 1e-4};
  const double sigma = GaussianNoiseScale(privacy, 1.0);
  linalg::Vector profile = QueryErrorProfile(w, id, privacy);
  for (std::size_t q = 0; q < 6; ++q) {
    EXPECT_NEAR(profile[q], sigma * std::sqrt(static_cast<double>(q + 1)),
                1e-9);
  }
}

}  // namespace
}  // namespace release
}  // namespace dpmm
