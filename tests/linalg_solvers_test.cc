// Unit tests for Cholesky, LU, the pseudo-inverse and the row-space residual.

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "linalg/svd.h"
#include "util/rng.h"

#include "support/linalg_oracles.h"

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

Matrix RandomSpd(std::size_t n, Rng* rng) {
  Matrix a = RandomMatrix(n + 4, n, rng);
  Matrix g = Gram(a);
  for (std::size_t i = 0; i < n; ++i) g(i, i) += 0.5;
  return g;
}

class SolverSizes : public ::testing::TestWithParam<int> {};

TEST_P(SolverSizes, CholeskySolveResidual) {
  const int n = GetParam();
  Rng rng(n);
  Matrix spd = RandomSpd(n, &rng);
  auto chol = Cholesky::Factor(spd).ValueOrDie();
  Vector b(n);
  for (auto& v : b) v = rng.Gaussian();
  Vector x = chol.Solve(b);
  Vector r = Sub(MatVec(spd, x), b);
  EXPECT_LT(Norm2(r), 1e-8 * (1.0 + Norm2(b)));
}

TEST_P(SolverSizes, CholeskyFactorReconstructs) {
  const int n = GetParam();
  Rng rng(n + 2);
  Matrix spd = RandomSpd(n, &rng);
  auto chol = Cholesky::Factor(spd).ValueOrDie();
  const Matrix& l = chol.lower();
  EXPECT_LT(MatMulNT(l, l).MaxAbsDiff(spd), 1e-8 * (1 + spd.FrobeniusNorm()));
  // Strictly upper triangle must be zeroed.
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) ASSERT_EQ(l(i, j), 0.0);
  }
}

TEST_P(SolverSizes, LuSolve) {
  const int n = GetParam();
  Rng rng(n + 3);
  Matrix a = RandomMatrix(n, n, &rng);
  auto lu = Lu::Factor(a).ValueOrDie();
  Vector b(n);
  for (auto& v : b) v = rng.Gaussian();
  Vector x = lu.Solve(b);
  EXPECT_LT(Norm2(Sub(MatVec(a, x), b)), 1e-7 * (1 + Norm2(b)));
  EXPECT_LT(MatMul(a, lu.Solve(Matrix::Identity(n)))
                .MaxAbsDiff(Matrix::Identity(n)),
            1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolverSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

TEST(Cholesky, RejectsIndefinite) {
  Matrix m = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::Factor(m).ok());
}

TEST(Cholesky, JitterRescuesSemidefinite) {
  // Rank-1 PSD matrix: plain factorization fails, jitter succeeds.
  Matrix m = Matrix::FromRows({{1, 1}, {1, 1}});
  EXPECT_FALSE(Cholesky::Factor(m).ok());
  EXPECT_TRUE(Cholesky::FactorWithJitter(m, 1e-8).ok());
}

TEST(Lu, SingularMatrixRejected) {
  Matrix m = Matrix::FromRows({{1, 2}, {2, 4}});
  EXPECT_FALSE(Lu::Factor(m).ok());
}

TEST(RowSpaceResidual, ZeroInsideRowSpaceOnly) {
  // Rows of W within the row space of A.
  Matrix a = Matrix::FromRows({{1, 1, 0}, {0, 1, 1}});
  Matrix w_in = Matrix::FromRows({{1, 2, 1}, {2, 3, 1}});
  EXPECT_LT(RowSpaceResidual(w_in, a), 1e-9);
  Matrix w_out = Matrix::FromRows({{1, 0, 0}});
  EXPECT_GT(RowSpaceResidual(w_out, a), 0.1);
}

TEST(Svd, PseudoInverseMoorePenrose) {
  Rng rng(11);
  // Tall rank-deficient matrix: duplicate a column.
  Matrix a(7, 3);
  for (std::size_t i = 0; i < 7; ++i) {
    a(i, 0) = rng.Gaussian();
    a(i, 1) = rng.Gaussian();
    a(i, 2) = a(i, 0);  // rank 2
  }
  Matrix ap = PseudoInverse(a);
  // The four Moore-Penrose conditions.
  EXPECT_LT(MatMul(MatMul(a, ap), a).MaxAbsDiff(a), 1e-8);
  EXPECT_LT(MatMul(MatMul(ap, a), ap).MaxAbsDiff(ap), 1e-8);
  Matrix aap = MatMul(a, ap);
  EXPECT_LT(aap.MaxAbsDiff(aap.Transposed()), 1e-8);
  Matrix apa = MatMul(ap, a);
  EXPECT_LT(apa.MaxAbsDiff(apa.Transposed()), 1e-8);
}

TEST(Svd, PseudoInverseOfSquareInvertibleIsInverse) {
  Rng rng(3);
  Matrix a = RandomMatrix(5, 5, &rng);
  Matrix ap = PseudoInverse(a);
  EXPECT_LT(MatMul(a, ap).MaxAbsDiff(Matrix::Identity(5)), 1e-7);
}

TEST(Svd, WideMatrixPseudoInverse) {
  Rng rng(4);
  Matrix a = RandomMatrix(3, 8, &rng);
  Matrix ap = PseudoInverse(a);
  EXPECT_EQ(ap.rows(), 8u);
  EXPECT_EQ(ap.cols(), 3u);
  EXPECT_LT(MatMul(a, ap).MaxAbsDiff(Matrix::Identity(3)), 1e-7);
}

}  // namespace
}  // namespace linalg
}  // namespace dpmm
