// Reproduces Example 4 of the paper exactly: for the Fig. 1(b) workload at
// eps = 0.5, delta = 1e-4, the published root-mean-square errors are
//   workload-as-strategy 47.78, identity 45.36, wavelet 34.62,
//   adaptive (eigen-design) 29.79, and provable lower bound 29.18.
// These are matched by the kLegacyExample4 convention (see error.h); the
// cross-strategy ratios are convention-independent.
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/eigen_sym.h"
#include "mechanism/bounds.h"
#include "mechanism/error.h"
#include "optimize/eigen_design.h"
#include "strategy/wavelet.h"
#include "workload/builders.h"

namespace dpmm {
namespace {

class Example4 : public ::testing::Test {
 protected:
  Example4()
      : workload_(ExplicitWorkload::FromMatrix(builders::Fig1Matrix(), "Fig1")) {
    opts_.privacy = {0.5, 1e-4};
    opts_.convention = ErrorConvention::kLegacyExample4;
  }

  ExplicitWorkload workload_;
  ErrorOptions opts_;
};

TEST_F(Example4, IdentityStrategyError) {
  EXPECT_NEAR(StrategyError(workload_, IdentityStrategy(8), opts_), 45.36,
              0.05);
}

TEST_F(Example4, WaveletStrategyError) {
  EXPECT_NEAR(StrategyError(workload_, WaveletStrategy(Domain::OneDim(8)), opts_),
              34.62, 0.05);
}

TEST_F(Example4, WorkloadAsStrategyError) {
  EXPECT_NEAR(GaussianBaselineError(workload_, opts_), 47.78, 0.05);
}

TEST_F(Example4, LowerBound) {
  EXPECT_NEAR(SvdErrorLowerBound(workload_.Gram(), 8, opts_), 29.18, 0.05);
}

TEST_F(Example4, AdaptiveStrategyError) {
  auto design = optimize::Design(workload_).ValueOrDie();
  const double err =
      StrategyError(workload_, design.strategy->Materialize(), opts_);
  // The paper's solver reached 29.79; ours must do at least as well while
  // staying above the bound.
  EXPECT_LE(err, 29.85);
  EXPECT_GE(err, 29.18 - 0.05);
}

TEST_F(Example4, PublishedRatiosAreConventionIndependent) {
  ErrorOptions per = opts_;
  per.convention = ErrorConvention::kPerQuery;
  const double id_leg = StrategyError(workload_, IdentityStrategy(8), opts_);
  const double wav_leg =
      StrategyError(workload_, WaveletStrategy(Domain::OneDim(8)), opts_);
  const double id_per = StrategyError(workload_, IdentityStrategy(8), per);
  const double wav_per =
      StrategyError(workload_, WaveletStrategy(Domain::OneDim(8)), per);
  EXPECT_NEAR(id_leg / wav_leg, id_per / wav_per, 1e-9);
  // Paper ratio 45.36 / 34.62 = 1.310.
  EXPECT_NEAR(id_per / wav_per, 1.310, 0.01);
}

TEST_F(Example4, WorkloadSensitivityIsSqrt5) {
  EXPECT_NEAR(workload_.L2Sensitivity(), std::sqrt(5.0), 1e-12);
}

TEST_F(Example4, WorkloadRankIsFour) {
  auto eig = linalg::SymmetricEigen(workload_.Gram()).ValueOrDie();
  int nonzero = 0;
  for (double v : eig.values) {
    if (v > 1e-9) ++nonzero;
  }
  EXPECT_EQ(nonzero, 4);
}

}  // namespace
}  // namespace dpmm
