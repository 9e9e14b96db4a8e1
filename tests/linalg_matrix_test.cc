// Unit tests for the dense matrix type and BLAS kernels.
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "linalg/matrix.h"
#include "util/rng.h"

namespace dpmm {
namespace linalg {
namespace {

Matrix RandomMatrix(std::size_t r, std::size_t c, Rng* rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng->Gaussian();
  }
  return m;
}

Matrix NaiveMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 0.0);
  m(1, 2) = 5.0;
  EXPECT_EQ(m(1, 2), 5.0);
}

TEST(Matrix, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(2, 1), 6.0);
}

TEST(Matrix, Identity) {
  Matrix i = Matrix::Identity(4);
  EXPECT_EQ(i.Trace(), 4.0);
  EXPECT_EQ(i.FrobeniusNorm(), 2.0);
  EXPECT_EQ(i(0, 1), 0.0);
}

TEST(Matrix, Diagonal) {
  Matrix d = Matrix::Diagonal({1, 2, 3});
  EXPECT_EQ(d(1, 1), 2.0);
  EXPECT_EQ(d(0, 2), 0.0);
  EXPECT_EQ(d.Trace(), 6.0);
}

TEST(Matrix, RowColSetRow) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.Row(1), (Vector{3, 4}));
  EXPECT_EQ(m.Col(0), (Vector{1, 3}));
  m.SetRow(0, {7, 8});
  EXPECT_EQ(m(0, 1), 8.0);
}

TEST(Matrix, TransposeSmall) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t(2, 1), 6.0);
}

TEST(Matrix, TransposeLargeBlocked) {
  Rng rng(1);
  Matrix m = RandomMatrix(67, 129, &rng);  // exercise partial blocks
  Matrix t = m.Transposed();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      ASSERT_EQ(t(j, i), m(i, j));
    }
  }
  EXPECT_EQ(t.Transposed().MaxAbsDiff(m), 0.0);
}

TEST(Matrix, VStack) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{3, 4}, {5, 6}});
  Matrix s = a.VStack(b);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_EQ(s(2, 0), 5.0);
  // Stacking with an empty matrix is the identity operation.
  Matrix empty;
  EXPECT_EQ(empty.VStack(b).rows(), 2u);
  EXPECT_EQ(b.VStack(empty).rows(), 2u);
}

TEST(Matrix, ColumnNorms) {
  Matrix m = Matrix::FromRows({{3, 1}, {4, -1}});
  EXPECT_DOUBLE_EQ(m.ColNorm(0), 5.0);
  EXPECT_DOUBLE_EQ(m.MaxColNorm(), 5.0);
  EXPECT_DOUBLE_EQ(m.MaxColAbsSum(), 7.0);
}

TEST(Matrix, ScaleAndNorm) {
  Matrix m = Matrix::FromRows({{3, 4}});
  m.Scale(2.0);
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 10.0);
}

TEST(VectorOps, DotNormAxpy) {
  Vector a{1, 2, 3};
  Vector b{4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(Norm2({3, 4}), 5.0);
  Axpy(2.0, a, &b);
  EXPECT_EQ(b, (Vector{6, 9, 12}));
  ScaleVec(0.5, &b);
  EXPECT_EQ(b, (Vector{3, 4.5, 6}));
  EXPECT_EQ(Sub({1, 1}, {2, 3}), (Vector{-1, -2}));
  EXPECT_DOUBLE_EQ(MaxAbs({-7, 2}), 7.0);
  EXPECT_DOUBLE_EQ(SumVec({1, 2, 3}), 6.0);
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatMulMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 10 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(k, n, &rng);
  EXPECT_LT(MatMul(a, b).MaxAbsDiff(NaiveMul(a, b)), 1e-10);
}

TEST_P(GemmSizes, MatMulNTMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 7 + k * 3 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(n, k, &rng);
  EXPECT_LT(MatMulNT(a, b).MaxAbsDiff(NaiveMul(a, b.Transposed())), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                      std::tuple{5, 1, 7}, std::tuple{16, 16, 16},
                      std::tuple{33, 17, 65}, std::tuple{128, 64, 32},
                      std::tuple{1, 50, 1}, std::tuple{7, 129, 3}));

class SquareSizes : public ::testing::TestWithParam<int> {};

TEST_P(SquareSizes, GramMatchesNaive) {
  const int n = GetParam();
  Rng rng(n);
  Matrix a = RandomMatrix(2 * n + 1, n, &rng);
  Matrix g = Gram(a);
  Matrix expect = NaiveMul(a.Transposed(), a);
  EXPECT_LT(g.MaxAbsDiff(expect), 1e-9);
  // Symmetry is exact by construction.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) ASSERT_EQ(g(i, j), g(j, i));
  }
}

TEST_P(SquareSizes, MatVecMatchesNaive) {
  const int n = GetParam();
  Rng rng(n + 99);
  Matrix a = RandomMatrix(n + 3, n, &rng);
  Vector x(n);
  for (auto& v : x) v = rng.Gaussian();
  Vector y = MatVec(a, x);
  Vector yt = MatTVec(a.Transposed(), x);
  ASSERT_EQ(y.size(), a.rows());
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y[i], yt[i], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SquareSizes,
                         ::testing::Values(1, 2, 3, 8, 17, 64, 130));

}  // namespace
}  // namespace linalg
}  // namespace dpmm
