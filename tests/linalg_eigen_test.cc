// Unit and property tests for the symmetric eigensolver (tred2 + tql2),
// cross-validated against the independently implemented Jacobi solver.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "util/rng.h"

#include "support/linalg_oracles.h"

namespace dpmm {
namespace linalg {
namespace {

Matrix RandomSymmetric(std::size_t n, Rng* rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      m(i, j) = rng->Gaussian();
      m(j, i) = m(i, j);
    }
  }
  return m;
}

// || A V - V diag(d) ||_max
double ResidualNorm(const Matrix& a, const SymmetricEigenResult& eig) {
  Matrix av = MatMul(a, eig.vectors);
  double mx = 0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      mx = std::max(mx,
                    std::fabs(av(i, j) - eig.vectors(i, j) * eig.values[j]));
    }
  }
  return mx;
}

double OrthonormalityError(const Matrix& v) {
  return Gram(v).MaxAbsDiff(Matrix::Identity(v.cols()));
}

TEST(SymmetricEigen, DiagonalMatrix) {
  Matrix d = Matrix::Diagonal({5, -1, 3});
  auto eig = SymmetricEigen(d).ValueOrDie();
  EXPECT_NEAR(eig.values[0], -1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 5.0, 1e-12);
  EXPECT_LT(ResidualNorm(d, eig), 1e-10);
}

TEST(SymmetricEigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix m = Matrix::FromRows({{2, 1}, {1, 2}});
  auto eig = SymmetricEigen(m).ValueOrDie();
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, OnesMatrixDegenerateSpectrum) {
  // J has eigenvalue n once and 0 with multiplicity n-1.
  const std::size_t n = 9;
  Matrix j(n, n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) j(a, b) = 1.0;
  }
  auto eig = SymmetricEigen(j).ValueOrDie();
  for (std::size_t i = 0; i + 1 < n; ++i) EXPECT_NEAR(eig.values[i], 0.0, 1e-9);
  EXPECT_NEAR(eig.values[n - 1], static_cast<double>(n), 1e-9);
  EXPECT_LT(OrthonormalityError(eig.vectors), 1e-10);
}

TEST(SymmetricEigen, SizeOne) {
  Matrix m = Matrix::FromRows({{7}});
  auto eig = SymmetricEigen(m).ValueOrDie();
  EXPECT_NEAR(eig.values[0], 7.0, 1e-14);
}

class EigenSizes : public ::testing::TestWithParam<int> {};

TEST_P(EigenSizes, ReconstructsRandomSymmetric) {
  const int n = GetParam();
  Rng rng(n * 17);
  Matrix a = RandomSymmetric(n, &rng);
  auto eig = SymmetricEigen(a).ValueOrDie();
  EXPECT_LT(ResidualNorm(a, eig), 1e-8 * (1 + a.FrobeniusNorm()));
  EXPECT_LT(OrthonormalityError(eig.vectors), 1e-9);
  EXPECT_TRUE(std::is_sorted(eig.values.begin(), eig.values.end()));
}

TEST_P(EigenSizes, AgreesWithJacobi) {
  const int n = GetParam();
  if (n > 64) GTEST_SKIP() << "Jacobi cross-check kept small";
  Rng rng(n * 31);
  Matrix a = RandomSymmetric(n, &rng);
  auto ql = SymmetricEigen(a).ValueOrDie();
  auto jac = JacobiEigen(a).ValueOrDie();
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(ql.values[i], jac.values[i], 1e-8 * (1 + std::fabs(ql.values[i])));
  }
}

TEST_P(EigenSizes, PsdGramHasNonnegativeSpectrum) {
  const int n = GetParam();
  Rng rng(n * 13);
  Matrix b(n + 2, n);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (int j = 0; j < n; ++j) b(i, j) = rng.Gaussian();
  }
  auto eig = SymmetricEigen(Gram(b)).ValueOrDie();
  for (double v : eig.values) EXPECT_GT(v, -1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSizes,
                         ::testing::Values(2, 3, 4, 7, 16, 33, 64, 129));

TEST(SymmetricEigen, TraceAndFrobeniusInvariants) {
  Rng rng(5);
  Matrix a = RandomSymmetric(40, &rng);
  auto eig = SymmetricEigen(a).ValueOrDie();
  double tr = 0;
  double fro2 = 0;
  for (double v : eig.values) {
    tr += v;
    fro2 += v * v;
  }
  EXPECT_NEAR(tr, a.Trace(), 1e-8);
  EXPECT_NEAR(std::sqrt(fro2), a.FrobeniusNorm(), 1e-8);
}

TEST(SymmetricEigen, RepeatedEigenvaluesBlockMatrix) {
  // diag(2, 2, 2, 5): eigenvector basis for the 2-eigenspace is arbitrary
  // but must still be orthonormal and reconstructing.
  Matrix m = Matrix::Diagonal({2, 2, 2, 5});
  // Rotate by a random orthogonal similarity to hide the structure.
  Rng rng(8);
  Matrix s = RandomSymmetric(4, &rng);
  auto rot = SymmetricEigen(s).ValueOrDie();  // orthogonal vectors
  Matrix a = MatMul(MatMul(rot.vectors, m), rot.vectors.Transposed());
  auto eig = SymmetricEigen(a).ValueOrDie();
  EXPECT_NEAR(eig.values[0], 2.0, 1e-9);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-9);
  EXPECT_NEAR(eig.values[2], 2.0, 1e-9);
  EXPECT_NEAR(eig.values[3], 5.0, 1e-9);
  EXPECT_LT(ResidualNorm(a, eig), 1e-8);
}

TEST(KronEigen, MatchesNumericOnKroneckerProduct) {
  Rng rng(21);
  Matrix a = RandomSymmetric(4, &rng);
  Matrix b = RandomSymmetric(3, &rng);
  auto ea = SymmetricEigen(a).ValueOrDie();
  auto eb = SymmetricEigen(b).ValueOrDie();
  auto combined = KronEigen({ea, eb});

  // Build the Kronecker product explicitly and compare spectra.
  Matrix k(12, 12);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int p = 0; p < 3; ++p) {
        for (int q = 0; q < 3; ++q) {
          k(i * 3 + p, j * 3 + q) = a(i, j) * b(p, q);
        }
      }
    }
  }
  auto numeric = SymmetricEigen(k).ValueOrDie();
  for (int i = 0; i < 12; ++i) {
    EXPECT_NEAR(combined.values[i], numeric.values[i], 1e-8);
  }
  // Combined eigenvectors diagonalize K.
  EXPECT_LT(OrthonormalityError(combined.vectors), 1e-9);
  EXPECT_LT(ResidualNorm(k, combined), 1e-8);
}

TEST(SymmetricEigen, ZeroClusterDeflationRegression) {
  // Regression: normalized marginal Gram matrices have huge zero-eigenvalue
  // clusters where a purely relative QL deflation test never fires (both
  // neighbouring diagonals sit at roundoff). Must converge and reconstruct.
  Matrix b(6, 24);  // rank <= 6 over 24 dims -> 18 zero eigenvalues
  Rng rng(101);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      b(i, j) = rng.Gaussian() * ((j % 3 == 0) ? 100.0 : 1e-3);
    }
  }
  Matrix g = Gram(b);
  auto eig = SymmetricEigen(g);
  ASSERT_TRUE(eig.ok()) << eig.status().ToString();
  EXPECT_LT(ResidualNorm(g, eig.ValueOrDie()),
            1e-8 * (1 + g.FrobeniusNorm()));
  int nonzero = 0;
  for (double v : eig.ValueOrDie().values) {
    if (v > 1e-6 * eig.ValueOrDie().values.back()) ++nonzero;
  }
  EXPECT_LE(nonzero, 6);
}

TEST(LowRankGramEigen, MatchesDenseNonzeroSpectrum) {
  Rng rng(33);
  // 5 queries over 40 cells: rank <= 5.
  Matrix w(5, 40);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 40; ++j) w(i, j) = rng.Gaussian();
  }
  auto low = LowRankGramEigen(w).ValueOrDie();
  EXPECT_EQ(low.values.size(), 5u);
  EXPECT_EQ(low.vectors.rows(), 40u);
  EXPECT_EQ(low.vectors.cols(), 5u);

  Matrix gram = Gram(w);
  auto dense = SymmetricEigen(gram).ValueOrDie();
  // The last 5 dense eigenvalues are the nonzero ones.
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(low.values[k], dense.values[35 + k], 1e-8);
  }
  // Returned vectors are unit eigenvectors of W^T W.
  EXPECT_LT(OrthonormalityError(low.vectors), 1e-9);
  Matrix gv = MatMul(gram, low.vectors);
  for (std::size_t j = 0; j < 5; ++j) {
    for (std::size_t i = 0; i < 40; ++i) {
      ASSERT_NEAR(gv(i, j), low.vectors(i, j) * low.values[j], 1e-8);
    }
  }
}

TEST(LowRankGramEigen, DropsDependentRows) {
  Matrix w = Matrix::FromRows({{1, 0, 0, 0}, {2, 0, 0, 0}, {0, 1, 1, 0}});
  auto low = LowRankGramEigen(w).ValueOrDie();
  EXPECT_EQ(low.values.size(), 2u);  // rank 2
}

TEST(JacobiEigen, MatchesKnownSpectrum) {
  Matrix m = Matrix::FromRows({{2, 1}, {1, 2}});
  auto eig = JacobiEigen(m).ValueOrDie();
  EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-10);
}

}  // namespace
}  // namespace linalg
}  // namespace dpmm
