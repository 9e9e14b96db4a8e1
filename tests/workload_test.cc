// Tests for the workload abstraction: explicit, stacked, permuted, and the
// implicit range/prefix workloads (validated against materialized forms).
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/kronecker.h"
#include "util/rng.h"
#include "workload/builders.h"
#include "workload/gram.h"
#include "workload/range_workloads.h"
#include "workload/workload.h"

#include "support/test_data.h"

namespace dpmm {
namespace {

using linalg::Matrix;
using linalg::Vector;

Vector RandomCounts(std::size_t n, Rng* rng) {
  Vector x(n);
  for (auto& v : x) v = std::floor(100.0 * rng->UniformDouble());
  return x;
}

TEST(ExplicitWorkload, GramSensitivityAnswer) {
  auto w = ExplicitWorkload::FromMatrix(builders::Fig1Matrix(), "Fig1");
  EXPECT_EQ(w.num_queries(), 8u);
  EXPECT_EQ(w.num_cells(), 8u);
  // ||W||_2 = sqrt(5) for the Fig. 1 workload (Sec. 2.2).
  EXPECT_NEAR(w.L2Sensitivity(), std::sqrt(5.0), 1e-12);
  Vector x{1, 2, 3, 4, 5, 6, 7, 8};
  Vector ans = w.Answer(x);
  EXPECT_DOUBLE_EQ(ans[0], 36.0);           // all students
  EXPECT_DOUBLE_EQ(ans[1], 10.0);           // first four cells
  EXPECT_DOUBLE_EQ(ans[7], 10.0 - 26.0);    // difference query
  EXPECT_LT(w.Gram().MaxAbsDiff(linalg::Gram(builders::Fig1Matrix())), 1e-12);
}

TEST(ExplicitWorkload, NormalizedMatrixDropsZeroRowsAndUnitNorms) {
  Matrix m = Matrix::FromRows({{3, 4}, {0, 0}, {0, 2}});
  auto w = ExplicitWorkload::FromMatrix(m, "test");
  Matrix nm = w.NormalizedMatrix();
  ASSERT_EQ(nm.rows(), 2u);
  EXPECT_NEAR(nm(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(nm(0, 1), 0.8, 1e-12);
  EXPECT_NEAR(nm(1, 1), 1.0, 1e-12);
}

TEST(StackedWorkload, GramIsSumAndAnswerIsConcat) {
  auto a = std::make_shared<ExplicitWorkload>(
      ExplicitWorkload::FromMatrix(builders::PrefixMatrix1D(6), "prefix"));
  auto b = std::make_shared<ExplicitWorkload>(
      ExplicitWorkload::FromMatrix(builders::TotalMatrix(6), "total"));
  StackedWorkload s({a, b}, "stack");
  EXPECT_EQ(s.num_queries(), 7u);
  Matrix expect = a->Gram();
  Matrix gb = b->Gram();
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) expect(i, j) += gb(i, j);
  }
  EXPECT_LT(s.Gram().MaxAbsDiff(expect), 1e-12);
  Rng rng(1);
  Vector x = RandomCounts(6, &rng);
  Vector ans = s.Answer(x);
  ASSERT_EQ(ans.size(), 7u);
  EXPECT_DOUBLE_EQ(ans[6], linalg::SumVec(x));
}

TEST(PermutedWorkload, MatchesExplicitColumnPermutation) {
  Rng rng(2);
  auto base = std::make_shared<ExplicitWorkload>(
      ExplicitWorkload::FromMatrix(builders::AllRangeMatrix1D(7), "ranges"));
  auto perm = rng.Permutation(7);
  PermutedWorkload pw(base, perm);

  // Explicit permuted matrix: column j = base column perm[j].
  const Matrix& w = *base->matrix();
  Matrix wp(w.rows(), w.cols());
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) wp(i, j) = w(i, perm[j]);
  }
  EXPECT_LT(pw.Gram().MaxAbsDiff(linalg::Gram(wp)), 1e-12);
  EXPECT_NEAR(pw.L2Sensitivity(), base->L2Sensitivity(), 1e-12);

  Vector x = RandomCounts(7, &rng);
  Vector got = pw.Answer(x);
  Vector expect = linalg::MatVec(wp, x);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], expect[i], 1e-10);
  }
}

class RangeDomains : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(RangeDomains, ImplicitMatchesMaterialized) {
  Domain domain(GetParam());
  AllRangeWorkload w(domain);

  // Materialize: kron of per-dim all-range matrices in attribute order.
  std::vector<Matrix> factors;
  for (std::size_t d : domain.sizes()) {
    factors.push_back(builders::AllRangeMatrix1D(d));
  }
  Matrix explicit_w = linalg::KronList(factors);

  EXPECT_EQ(w.num_queries(), explicit_w.rows());
  EXPECT_LT(w.Gram().MaxAbsDiff(linalg::Gram(explicit_w)), 1e-9);
  EXPECT_NEAR(w.L2Sensitivity(), explicit_w.MaxColNorm(), 1e-9);

  Rng rng(3);
  Vector x = RandomCounts(domain.NumCells(), &rng);
  Vector fast = w.Answer(x);
  Vector slow = linalg::MatVec(explicit_w, x);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_NEAR(fast[i], slow[i], 1e-8) << "query " << i;
  }
}

TEST_P(RangeDomains, NormalizedGramMatchesMaterialized) {
  Domain domain(GetParam());
  AllRangeWorkload w(domain);
  std::vector<Matrix> factors;
  for (std::size_t d : domain.sizes()) {
    factors.push_back(builders::AllRangeMatrix1D(d));
  }
  auto explicit_w =
      ExplicitWorkload(domain, linalg::KronList(factors), "explicit");
  EXPECT_LT(w.NormalizedGram().MaxAbsDiff(explicit_w.NormalizedGram()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Domains, RangeDomains,
                         ::testing::Values(std::vector<std::size_t>{6},
                                           std::vector<std::size_t>{8},
                                           std::vector<std::size_t>{4, 5},
                                           std::vector<std::size_t>{3, 2, 4}));

TEST(AllRangeWorkload, FactorizedEigenDiagonalizesGram) {
  for (bool normalized : {false, true}) {
    Domain domain({4, 3, 2});
    AllRangeWorkload w(domain);
    auto eig = w.FactorizedEigen(normalized);
    Matrix g = normalized ? w.NormalizedGram() : w.Gram();
    Matrix av = linalg::MatMul(g, eig.vectors);
    for (std::size_t i = 0; i < g.rows(); ++i) {
      for (std::size_t j = 0; j < g.cols(); ++j) {
        ASSERT_NEAR(av(i, j), eig.vectors(i, j) * eig.values[j], 1e-8);
      }
    }
  }
}

TEST(AllRangeWorkload, FactorizedEigenMatchesNumericSpectrum) {
  Domain domain({6, 5});
  AllRangeWorkload w(domain);
  auto fast = w.FactorizedEigen();
  auto slow = linalg::SymmetricEigen(w.Gram()).ValueOrDie();
  for (std::size_t i = 0; i < fast.values.size(); ++i) {
    ASSERT_NEAR(fast.values[i], slow.values[i], 1e-8);
  }
}

TEST(PrefixWorkload, MatchesMaterialized) {
  const std::size_t d = 9;
  PrefixWorkload w(d);
  Matrix explicit_w = builders::PrefixMatrix1D(d);
  EXPECT_EQ(w.num_queries(), d);
  EXPECT_LT(w.Gram().MaxAbsDiff(linalg::Gram(explicit_w)), 1e-12);
  EXPECT_NEAR(w.L2Sensitivity(), std::sqrt(static_cast<double>(d)), 1e-12);
  Rng rng(4);
  Vector x = RandomCounts(d, &rng);
  Vector fast = w.Answer(x);
  Vector slow = linalg::MatVec(explicit_w, x);
  for (std::size_t i = 0; i < d; ++i) ASSERT_NEAR(fast[i], slow[i], 1e-10);
}

TEST(RandomWorkloads, RangeRowsAreBoxes) {
  Domain domain({6, 5});
  Rng rng(5);
  auto w = builders::RandomRangeWorkload(domain, 50, &rng);
  ASSERT_EQ(w.num_queries(), 50u);
  const Matrix& m = *w.matrix();
  for (std::size_t q = 0; q < m.rows(); ++q) {
    // Each row must be the indicator of an axis-aligned box: the set of
    // selected coordinates per axis must be a contiguous interval and the
    // row must equal the product structure.
    std::vector<std::pair<int, int>> bounds(2, {1000, -1});
    double count = 0;
    for (std::size_t cell = 0; cell < m.cols(); ++cell) {
      if (m(q, cell) == 0.0) continue;
      ASSERT_EQ(m(q, cell), 1.0);
      count += 1;
      auto multi = domain.MultiIndex(cell);
      for (int a = 0; a < 2; ++a) {
        bounds[a].first = std::min(bounds[a].first, static_cast<int>(multi[a]));
        bounds[a].second = std::max(bounds[a].second, static_cast<int>(multi[a]));
      }
    }
    ASSERT_GT(count, 0.0);
    const double expect = (bounds[0].second - bounds[0].first + 1.0) *
                          (bounds[1].second - bounds[1].first + 1.0);
    ASSERT_EQ(count, expect) << "row " << q << " is not a box";
  }
}

TEST(RandomWorkloads, PredicatesAreBinaryAndDiverse) {
  Domain domain({32});
  Rng rng(6);
  auto w = builders::RandomPredicateWorkload(domain, 40, &rng);
  const Matrix& m = *w.matrix();
  double ones = 0;
  for (std::size_t q = 0; q < m.rows(); ++q) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      ASSERT_TRUE(m(q, j) == 0.0 || m(q, j) == 1.0);
      ones += m(q, j);
    }
  }
  const double frac = ones / (40.0 * 32.0);
  EXPECT_NEAR(frac, 0.5, 0.1);
}

TEST(RandomWorkloads, MarginalSetsDistinctAndNonEmpty) {
  Rng rng(7);
  auto sets = builders::RandomMarginalSets(4, 10, &rng);
  ASSERT_EQ(sets.size(), 10u);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    ASSERT_FALSE(sets[i].empty());
    for (std::size_t j = i + 1; j < sets.size(); ++j) {
      ASSERT_NE(sets[i], sets[j]);
    }
  }
}

TEST(Workload, SensitivityDefaultFromGramDiagonal) {
  // AllRange sensitivity closed form equals the Gram-diagonal bound.
  Domain domain({4, 6});
  AllRangeWorkload w(domain);
  const Matrix g = w.Gram();
  double mx = 0;
  for (std::size_t i = 0; i < g.rows(); ++i) mx = std::max(mx, g(i, i));
  EXPECT_NEAR(w.L2Sensitivity(), std::sqrt(mx), 1e-10);
}

}  // namespace
}  // namespace dpmm
