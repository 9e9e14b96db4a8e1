// Tests for the noise mechanisms, the matrix mechanism, analytic error
// (validated against Monte-Carlo RMSE) and the representation-independence
// properties (Props. 5 and 6).
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "mechanism/bounds.h"
#include "mechanism/error.h"
#include "mechanism/matrix_mechanism.h"
#include "optimize/eigen_design.h"
#include "strategy/wavelet.h"
#include "workload/builders.h"
#include "workload/range_workloads.h"

#include "support/test_data.h"

namespace dpmm {
namespace {

using linalg::Matrix;
using linalg::Vector;

constexpr double kEps = 0.5;
constexpr double kDelta = 1e-4;

Mechanism Prepared(Strategy strategy, PrivacyParams privacy,
                   Mechanism::NoiseKind noise =
                       Mechanism::NoiseKind::kGaussian) {
  return Mechanism::Prepare(std::make_shared<Strategy>(std::move(strategy)),
                            privacy, noise)
      .ValueOrDie();
}

// The dense engine's design of a workload, as the explicit strategy.
Strategy DenseDesign(const Workload& w) {
  optimize::DesignOptions options;
  options.engine = optimize::EngineSelection::kDense;
  return optimize::Design(w, options).ValueOrDie().strategy->Materialize();
}

ErrorOptions PerQuery() {
  ErrorOptions o;
  o.privacy = {kEps, kDelta};
  o.convention = ErrorConvention::kPerQuery;
  return o;
}

TEST(NoiseScales, GaussianFormula) {
  PrivacyParams p{kEps, kDelta};
  EXPECT_NEAR(GaussianNoiseScale(p, 1.0),
              std::sqrt(2.0 * std::log(2.0 / kDelta)) / kEps, 1e-12);
  // Linear in sensitivity.
  EXPECT_NEAR(GaussianNoiseScale(p, 3.0), 3.0 * GaussianNoiseScale(p, 1.0),
              1e-12);
}

TEST(NoiseScales, LaplaceFormula) {
  EXPECT_DOUBLE_EQ(LaplaceNoiseScale(0.5, 4.0), 8.0);
}

TEST(PFactor, Conventions) {
  ErrorOptions o = PerQuery();
  EXPECT_NEAR(PFactor(o), 2.0 * std::log(2.0 / kDelta) / (kEps * kEps), 1e-12);
  o.convention = ErrorConvention::kLegacyExample4;
  EXPECT_NEAR(PFactor(o), std::log2(2.0 / kDelta) / (kEps * kEps), 1e-12);
}

TEST(StrategyError, ConventionsDifferOnlyBySqrtM) {
  auto w = ExplicitWorkload::FromMatrix(builders::Fig1Matrix(), "Fig1");
  Strategy id = IdentityStrategy(8);
  ErrorOptions per = PerQuery();
  ErrorOptions total = per;
  total.convention = ErrorConvention::kTotal;
  EXPECT_NEAR(StrategyError(w, id, total),
              StrategyError(w, id, per) * std::sqrt(8.0), 1e-9);
}

// The analytic error formula (Prop. 4) must equal the RMSE observed when
// actually running the mechanism.
class AnalyticVsEmpirical : public ::testing::TestWithParam<int> {};

TEST_P(AnalyticVsEmpirical, MatchesMonteCarloRmse) {
  const int which = GetParam();
  Domain dom({16});
  AllRangeWorkload w(dom);
  Strategy strat = (which == 0)   ? IdentityStrategy(16)
                   : (which == 1) ? WaveletStrategy(dom)
                                  : DenseDesign(w);
  ErrorOptions opts = PerQuery();
  const double analytic = StrategyError(w, strat, opts);

  const Mechanism mech = Prepared(strat, opts.privacy);
  Vector x(16);
  for (std::size_t i = 0; i < 16; ++i) x[i] = 10.0 + 3.0 * i;
  const Vector truth = w.Answer(x);
  Rng rng(31 + which);
  const int trials = 300;
  double sse = 0;
  for (int t = 0; t < trials; ++t) {
    Vector est = mech.Run(w, x, &rng);
    for (std::size_t q = 0; q < truth.size(); ++q) {
      sse += (est[q] - truth[q]) * (est[q] - truth[q]);
    }
  }
  const double empirical =
      std::sqrt(sse / (trials * static_cast<double>(truth.size())));
  EXPECT_NEAR(empirical, analytic, 0.05 * analytic);
}

INSTANTIATE_TEST_SUITE_P(Strategies, AnalyticVsEmpirical,
                         ::testing::Values(0, 1, 2));

TEST(Mechanism, AnswersAreConsistent) {
  // q1 = q2 + q3 in Fig. 1; the mechanism's answers must satisfy the same
  // identity exactly because they derive from one x_hat.
  auto w = ExplicitWorkload::FromMatrix(builders::Fig1Matrix(), "Fig1");
  const Mechanism mech = Prepared(IdentityStrategy(8), {kEps, kDelta});
  Vector x{5, 6, 7, 8, 9, 10, 11, 12};
  Rng rng(41);
  Vector ans = mech.Run(w, x, &rng);
  EXPECT_NEAR(ans[0], ans[1] + ans[2], 1e-9);
  EXPECT_NEAR(ans[7], ans[1] - ans[2], 1e-9);
}

TEST(Mechanism, RankDeficientStrategyGivesMinimumNormEstimates) {
  // A rank-deficient strategy is legal for workloads inside its row space
  // (the paper's Fig. 2 adaptive output is rank deficient). The estimate
  // is the minimum-norm least-squares solution, so it lies in the row space
  // span{(1, 1)} — no component along the null direction (1, -1) — and
  // answers to in-span workloads are unbiased.
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}});
  const Mechanism mech = Prepared(Strategy(a, "rank1"), {kEps, kDelta});
  auto w = ExplicitWorkload::FromMatrix(Matrix::FromRows({{3, 3}}), "in-span");
  Vector x{10, 20};
  Rng rng(71);
  const int trials = 4000;
  double mean = 0;
  for (int t = 0; t < trials; ++t) {
    const Vector x_hat = mech.Release(x, &rng);
    ASSERT_NEAR(x_hat[0], x_hat[1], 1e-9 * (1.0 + std::fabs(x_hat[0])));
    mean += w.Answer(x_hat)[0];
  }
  mean /= trials;
  EXPECT_NEAR(mean, 90.0, 3.0);
}

TEST(Mechanism, UnbiasedEstimates) {
  Domain dom({8});
  AllRangeWorkload w(dom);
  const Mechanism mech = Prepared(WaveletStrategy(dom), {kEps, kDelta});
  Vector x{1, 2, 3, 4, 5, 6, 7, 8};
  const Vector truth = w.Answer(x);
  Rng rng(43);
  Vector mean(truth.size(), 0.0);
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    Vector est = mech.Run(w, x, &rng);
    for (std::size_t q = 0; q < est.size(); ++q) mean[q] += est[q];
  }
  const double sigma = mech.noise_scale();
  for (std::size_t q = 0; q < mean.size(); ++q) {
    EXPECT_NEAR(mean[q] / trials, truth[q], 5.0 * sigma / std::sqrt(1.0 * trials) + 0.5);
  }
}

TEST(Mechanism, LaplaceNoiseMatchesAnalyticError) {
  // The eps-matrix mechanism (Sec. 3.5): empirical RMSE must match the
  // L1-sensitivity error formula.
  Domain dom({12});
  AllRangeWorkload w(dom);
  Strategy strat = WaveletStrategy(dom);
  const double eps = 1.0;
  const double analytic = LaplaceStrategyError(
      w.Gram(), w.num_queries(), strat, eps, ErrorConvention::kPerQuery);
  const Mechanism mech =
      Prepared(strat, {eps, 0.0}, Mechanism::NoiseKind::kLaplace);
  Vector x(12, 40.0);
  const Vector truth = w.Answer(x);
  Rng rng(61);
  const int trials = 400;
  double sse = 0;
  for (int t = 0; t < trials; ++t) {
    Vector est = mech.Run(w, x, &rng);
    for (std::size_t q = 0; q < truth.size(); ++q) {
      sse += (est[q] - truth[q]) * (est[q] - truth[q]);
    }
  }
  const double empirical =
      std::sqrt(sse / (trials * static_cast<double>(truth.size())));
  EXPECT_NEAR(empirical, analytic, 0.08 * analytic);
}

TEST(GaussianBaseline, MatchesClosedForm) {
  auto w = ExplicitWorkload::FromMatrix(builders::Fig1Matrix(), "Fig1");
  ErrorOptions per = PerQuery();
  EXPECT_NEAR(GaussianBaselineError(w, per),
              std::sqrt(5.0 * PFactor(per)), 1e-9);
}

TEST(Prop5, SemanticEquivalenceOfEigenDesign) {
  // Permuting cell conditions must leave the eigen-design error unchanged.
  Domain dom({32});
  auto base = std::make_shared<AllRangeWorkload>(dom);
  Rng rng(47);
  PermutedWorkload permuted(base, rng.Permutation(32));
  ErrorOptions opts = PerQuery();

  const double e1 = StrategyError(*base, DenseDesign(*base), opts);
  const double e2 = StrategyError(permuted, DenseDesign(permuted), opts);
  EXPECT_NEAR(e1, e2, 2e-3 * e1);
}

TEST(Prop6, ErrorEquivalentWorkloads) {
  // W and QW for orthogonal Q have identical error under any strategy.
  Matrix w = builders::PrefixMatrix1D(8);
  // Orthogonal Q: eigenvectors of a symmetric matrix.
  Rng rng(53);
  Matrix sym(8, 8);
  for (int i = 0; i < 8; ++i) {
    for (int j = i; j < 8; ++j) {
      sym(i, j) = rng.Gaussian();
      sym(j, i) = sym(i, j);
    }
  }
  Matrix q = linalg::SymmetricEigen(sym).ValueOrDie().vectors;
  Matrix qw = linalg::MatMul(q, w);

  auto w1 = ExplicitWorkload::FromMatrix(w, "W");
  auto w2 = ExplicitWorkload::FromMatrix(qw, "QW");
  ErrorOptions opts = PerQuery();
  Strategy wav = WaveletStrategy(Domain::OneDim(8));
  EXPECT_NEAR(StrategyError(w1, wav, opts), StrategyError(w2, wav, opts),
              1e-8);
  EXPECT_NEAR(StrategyError(w1, DenseDesign(w1), opts),
              StrategyError(w2, DenseDesign(w2), opts), 1e-4);
}

TEST(RelativeError, DecreasesWithEpsilon) {
  Domain dom({16});
  AllRangeWorkload w(dom);
  DataVector data(dom, Vector(16, 500.0));
  RelativeErrorOptions ropts;
  ropts.trials = 10;
  auto strat = WaveletStrategy(dom);
  const Mechanism loose = Prepared(strat, {0.1, kDelta});
  const Mechanism tight = Prepared(strat, {2.5, kDelta});
  const double e_loose = MeanRelativeError(w, loose, data, ropts);
  const double e_tight = MeanRelativeError(w, tight, data, ropts);
  EXPECT_GT(e_loose, e_tight);
  EXPECT_GT(e_tight, 0.0);
}

TEST(RelativeError, DeterministicForSeed) {
  Domain dom({8});
  AllRangeWorkload w(dom);
  DataVector data(dom, Vector(8, 100.0));
  const Mechanism mech = Prepared(IdentityStrategy(8), {kEps, kDelta});
  RelativeErrorOptions ropts;
  ropts.trials = 5;
  EXPECT_DOUBLE_EQ(MeanRelativeError(w, mech, data, ropts),
                   MeanRelativeError(w, mech, data, ropts));
}

}  // namespace
}  // namespace dpmm
