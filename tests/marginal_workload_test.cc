// Tests for marginal and range-marginal workloads, including the analytic
// Kronecker-Helmert eigendecomposition.
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "util/rng.h"
#include "workload/marginal_workloads.h"

namespace dpmm {
namespace {

using linalg::Matrix;
using linalg::Vector;
using Flavor = MarginalsWorkload::Flavor;

TEST(HelmertBasis, Orthonormal) {
  for (std::size_t d : {2, 3, 5, 8, 16}) {
    Matrix b = HelmertBasis(d);
    EXPECT_LT(linalg::Gram(b).MaxAbsDiff(Matrix::Identity(d)), 1e-10) << d;
    // First column is the uniform vector.
    for (std::size_t i = 0; i < d; ++i) {
      EXPECT_NEAR(b(i, 0), 1.0 / std::sqrt(static_cast<double>(d)), 1e-12);
    }
  }
}

class MarginalConfigs
    : public ::testing::TestWithParam<std::tuple<std::vector<std::size_t>, int>> {
 protected:
  MarginalsWorkload MakeWorkload(Flavor flavor) const {
    auto [sizes, way] = GetParam();
    Domain domain(sizes);
    return MarginalsWorkload::AllKWay(domain, way, flavor);
  }
};

TEST_P(MarginalConfigs, GramMatchesMaterialized) {
  for (Flavor f : {Flavor::kMarginal, Flavor::kRangeMarginal}) {
    MarginalsWorkload w = MakeWorkload(f);
    Matrix explicit_w = w.Materialize();
    EXPECT_EQ(w.num_queries(), explicit_w.rows());
    EXPECT_LT(w.Gram().MaxAbsDiff(linalg::Gram(explicit_w)), 1e-9);
    EXPECT_NEAR(w.L2Sensitivity(), explicit_w.MaxColNorm(), 1e-9);
  }
}

TEST_P(MarginalConfigs, AnswerMatchesMaterialized) {
  for (Flavor f : {Flavor::kMarginal, Flavor::kRangeMarginal}) {
    MarginalsWorkload w = MakeWorkload(f);
    Matrix explicit_w = w.Materialize();
    Rng rng(1);
    Vector x(w.num_cells());
    for (auto& v : x) v = std::floor(50 * rng.UniformDouble());
    Vector fast = w.Answer(x);
    Vector slow = linalg::MatVec(explicit_w, x);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_NEAR(fast[i], slow[i], 1e-8);
    }
  }
}

TEST_P(MarginalConfigs, NormalizedGramMatchesMaterialized) {
  for (Flavor f : {Flavor::kMarginal, Flavor::kRangeMarginal}) {
    MarginalsWorkload w = MakeWorkload(f);
    auto explicit_w = ExplicitWorkload(w.domain(), w.Materialize(), "x");
    EXPECT_LT(w.NormalizedGram().MaxAbsDiff(explicit_w.NormalizedGram()), 1e-9);
  }
}

TEST_P(MarginalConfigs, AnalyticEigenDiagonalizesGram) {
  MarginalsWorkload w = MakeWorkload(Flavor::kMarginal);
  ASSERT_TRUE(w.HasAnalyticEigen());
  auto eig = w.AnalyticEigen();
  const Matrix g = w.Gram();
  // Orthonormal eigenvectors.
  EXPECT_LT(linalg::Gram(eig.vectors).MaxAbsDiff(Matrix::Identity(g.rows())),
            1e-9);
  // A V = V D.
  Matrix av = linalg::MatMul(g, eig.vectors);
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) {
      ASSERT_NEAR(av(i, j), eig.vectors(i, j) * eig.values[j], 1e-8);
    }
  }
  // Spectrum agrees with the numeric eigensolver.
  auto numeric = linalg::SymmetricEigen(g).ValueOrDie();
  for (std::size_t i = 0; i < eig.values.size(); ++i) {
    ASSERT_NEAR(eig.values[i], numeric.values[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MarginalConfigs,
    ::testing::Values(std::tuple{std::vector<std::size_t>{4, 3}, 1},
                      std::tuple{std::vector<std::size_t>{4, 3}, 2},
                      std::tuple{std::vector<std::size_t>{2, 3, 4}, 1},
                      std::tuple{std::vector<std::size_t>{2, 3, 4}, 2},
                      std::tuple{std::vector<std::size_t>{3, 3, 2}, 3}));

TEST(MarginalsWorkload, TotalQueryIsZeroWayMarginal) {
  Domain d({3, 4});
  MarginalsWorkload w(d, {AttrSet{}}, Flavor::kMarginal);
  EXPECT_EQ(w.num_queries(), 1u);
  Vector x(12, 1.0);
  EXPECT_DOUBLE_EQ(w.Answer(x)[0], 12.0);
}

TEST(MarginalsWorkload, SensitivityIsSqrtNumSets) {
  Domain d({4, 4, 4});
  MarginalsWorkload w = MarginalsWorkload::AllKWay(d, 2);
  EXPECT_NEAR(w.L2Sensitivity(), std::sqrt(3.0), 1e-12);
}

TEST(MarginalsWorkload, RangeMarginalIncludesWholeMargin) {
  // A 1-way range marginal over a margin of size d has d(d+1)/2 queries,
  // including the full-range (total) query.
  Domain d({4});
  MarginalsWorkload w(d, {AttrSet{0}}, Flavor::kRangeMarginal);
  EXPECT_EQ(w.num_queries(), 10u);
  Vector x{1, 2, 3, 4};
  Vector ans = w.Answer(x);
  // Canonical order: [0,0],[0,1],[0,2],[0,3],[1,1],...
  EXPECT_DOUBLE_EQ(ans[3], 10.0);  // full range
}

TEST(MarginalsWorkload, RejectsDuplicateAttributesInSet) {
  Domain d({2, 2});
  EXPECT_DEATH(MarginalsWorkload(d, {AttrSet{0, 0}}, Flavor::kMarginal),
               "duplicate");
}

TEST(MarginalsWorkload, AnalyticEigenUnavailableForRangeMarginals) {
  Domain d({3, 3});
  MarginalsWorkload w(d, {AttrSet{0}}, Flavor::kRangeMarginal);
  EXPECT_FALSE(w.HasAnalyticEigen());
}

}  // namespace
}  // namespace dpmm
