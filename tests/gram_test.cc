// Validates every closed-form Gram matrix against brute-force enumeration of
// the corresponding explicit workload.
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "workload/builders.h"
#include "workload/gram.h"

#include "support/test_data.h"

namespace dpmm {
namespace {

using linalg::Gram;
using linalg::Matrix;

class GramSizes : public ::testing::TestWithParam<int> {};

TEST_P(GramSizes, AllRange1DMatchesExplicit) {
  const int d = GetParam();
  Matrix w = builders::AllRangeMatrix1D(d);
  EXPECT_EQ(w.rows(), gram::NumRanges1D(d));
  EXPECT_LT(gram::AllRange1D(d).MaxAbsDiff(Gram(w)), 1e-9);
}

TEST_P(GramSizes, NormalizedAllRange1DMatchesExplicit) {
  const int d = GetParam();
  Matrix w = builders::AllRangeMatrix1D(d);
  // Normalize each row to unit L2 norm.
  for (std::size_t i = 0; i < w.rows(); ++i) {
    double n2 = 0;
    for (int j = 0; j < d; ++j) n2 += w(i, j) * w(i, j);
    const double inv = 1.0 / std::sqrt(n2);
    for (int j = 0; j < d; ++j) w(i, j) *= inv;
  }
  EXPECT_LT(gram::NormalizedAllRange1D(d).MaxAbsDiff(Gram(w)), 1e-9);
}

TEST_P(GramSizes, Prefix1DMatchesExplicit) {
  const int d = GetParam();
  Matrix w = builders::PrefixMatrix1D(d);
  EXPECT_LT(gram::Prefix1D(d).MaxAbsDiff(Gram(w)), 1e-9);
}

TEST_P(GramSizes, NormalizedPrefix1DMatchesExplicit) {
  const int d = GetParam();
  Matrix w = builders::PrefixMatrix1D(d);
  for (std::size_t i = 0; i < w.rows(); ++i) {
    const double inv = 1.0 / std::sqrt(static_cast<double>(i + 1));
    for (int j = 0; j < d; ++j) w(i, j) *= inv;
  }
  EXPECT_LT(gram::NormalizedPrefix1D(d).MaxAbsDiff(Gram(w)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GramSizes, ::testing::Values(1, 2, 3, 5, 8, 16, 31));

TEST(GramClosedForms, OnesIsTotalQueryGram) {
  Matrix total = builders::TotalMatrix(6);
  EXPECT_LT(gram::Ones(6).MaxAbsDiff(Gram(total)), 1e-12);
}

TEST(GramClosedForms, AllRangeDiagonalIsCoverageCount) {
  // Cell i of [d] is covered by (i+1)(d-i) ranges.
  const std::size_t d = 12;
  Matrix g = gram::AllRange1D(d);
  for (std::size_t i = 0; i < d; ++i) {
    EXPECT_DOUBLE_EQ(g(i, i), static_cast<double>((i + 1) * (d - i)));
  }
}

TEST(GramClosedForms, NumRanges) {
  EXPECT_EQ(gram::NumRanges1D(1), 1u);
  EXPECT_EQ(gram::NumRanges1D(2048), 2098176u);
}

}  // namespace
}  // namespace dpmm
