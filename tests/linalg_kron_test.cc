// Tests for Kronecker products and the materialization-free Kronecker
// matrix-vector product.
#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "linalg/kronecker.h"
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

TEST(Kron, SmallKnown) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{3}, {4}});
  Matrix k = Kron(a, b);
  ASSERT_EQ(k.rows(), 2u);
  ASSERT_EQ(k.cols(), 2u);
  EXPECT_EQ(k(0, 0), 3.0);
  EXPECT_EQ(k(0, 1), 6.0);
  EXPECT_EQ(k(1, 0), 4.0);
  EXPECT_EQ(k(1, 1), 8.0);
}

TEST(Kron, IdentityKronIdentity) {
  Matrix k = Kron(Matrix::Identity(3), Matrix::Identity(4));
  EXPECT_EQ(k.MaxAbsDiff(Matrix::Identity(12)), 0.0);
}

TEST(Kron, MixedProductProperty) {
  // (A kron B)(C kron D) = (AC) kron (BD).
  Rng rng(2);
  Matrix a = RandomMatrix(3, 2, &rng);
  Matrix b = RandomMatrix(2, 4, &rng);
  Matrix c = RandomMatrix(2, 3, &rng);
  Matrix d = RandomMatrix(4, 2, &rng);
  Matrix lhs = MatMul(Kron(a, b), Kron(c, d));
  Matrix rhs = Kron(MatMul(a, c), MatMul(b, d));
  EXPECT_LT(lhs.MaxAbsDiff(rhs), 1e-10);
}

TEST(KronList, ThreeFactors) {
  Rng rng(3);
  Matrix a = RandomMatrix(2, 2, &rng);
  Matrix b = RandomMatrix(3, 2, &rng);
  Matrix c = RandomMatrix(2, 3, &rng);
  Matrix klist = KronList({a, b, c});
  Matrix manual = Kron(Kron(a, b), c);
  EXPECT_LT(klist.MaxAbsDiff(manual), 1e-12);
}

class KronVecShapes
    : public ::testing::TestWithParam<std::vector<std::pair<int, int>>> {};

TEST_P(KronVecShapes, MatchesExplicitProduct) {
  Rng rng(7);
  std::vector<Matrix> factors;
  std::size_t cols = 1;
  for (auto [r, c] : GetParam()) {
    factors.push_back(RandomMatrix(r, c, &rng));
    cols *= c;
  }
  Vector x(cols);
  for (auto& v : x) v = rng.Gaussian();
  Vector fast = KronMatVec(factors, x);
  Vector slow = MatVec(KronList(factors), x);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_NEAR(fast[i], slow[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KronVecShapes,
    ::testing::Values(
        std::vector<std::pair<int, int>>{{2, 3}},
        std::vector<std::pair<int, int>>{{2, 3}, {4, 2}},
        std::vector<std::pair<int, int>>{{1, 5}, {3, 3}},
        std::vector<std::pair<int, int>>{{3, 2}, {1, 4}, {2, 2}},
        std::vector<std::pair<int, int>>{{4, 4}, {4, 4}, {2, 2}}));

TEST(PackBatch, RoundTripsInterleavedLayout) {
  Rng rng(11);
  std::vector<Vector> xs(3, Vector(5));
  for (auto& x : xs) {
    for (auto& v : x) v = rng.Gaussian();
  }
  const Vector packed = PackBatch(xs);
  ASSERT_EQ(packed.size(), 15u);
  // Element i of vector b sits at packed[i * batch + b].
  EXPECT_EQ(packed[0 * 3 + 1], xs[1][0]);
  EXPECT_EQ(packed[4 * 3 + 2], xs[2][4]);
  EXPECT_EQ(UnpackBatch(packed, 3), xs);
}

// The textbook vec-trick on one vector, as an independent reference for
// the kernel: plain loops, no thread pool, no tiling or register blocking,
// one axis at a time, each output accumulating over ci in ascending order
// and skipping zero factor entries — the per-element arithmetic KronMatVec
// promises at every batch width, so the comparison is bitwise.
Vector NaiveKronMatVec(const std::vector<Matrix>& factors, const Vector& x) {
  std::vector<std::size_t> dims;
  for (const auto& f : factors) dims.push_back(f.cols());
  Vector cur = x;
  for (std::size_t axis = 0; axis < factors.size(); ++axis) {
    const Matrix& f = factors[axis];
    std::size_t outer = 1, stride = 1;
    for (std::size_t i = 0; i < axis; ++i) outer *= dims[i];
    for (std::size_t i = axis + 1; i < dims.size(); ++i) stride *= dims[i];
    Vector next(outer * f.rows() * stride, 0.0);
    for (std::size_t o = 0; o < outer; ++o) {
      for (std::size_t ri = 0; ri < f.rows(); ++ri) {
        for (std::size_t ci = 0; ci < f.cols(); ++ci) {
          const double fv = f(ri, ci);
          if (fv == 0.0) continue;
          for (std::size_t s = 0; s < stride; ++s) {
            next[(o * f.rows() + ri) * stride + s] +=
                fv * cur[(o * f.cols() + ci) * stride + s];
          }
        }
      }
    }
    dims[axis] = f.rows();
    cur = std::move(next);
  }
  return cur;
}

TEST(KronMatVec, EveryBatchWidthBitIdenticalToNaiveReference) {
  // The contract behind batched releases and single applies alike: each
  // interleaved vector's result equals the naive vec-trick on that vector
  // alone *bitwise*, at every width (1 is the single-vector call), across
  // rectangular factors and a factor with zero entries (the skip path).
  Rng rng(13);
  std::vector<Matrix> factors = {RandomMatrix(3, 2, &rng),
                                 RandomMatrix(4, 4, &rng),
                                 RandomMatrix(2, 3, &rng)};
  factors[1](0, 2) = 0.0;
  factors[1](3, 1) = 0.0;
  for (std::size_t batch : {1u, 2u, 7u}) {
    std::vector<Vector> xs(batch, Vector(2 * 4 * 3));
    for (auto& x : xs) {
      for (auto& v : x) v = rng.Gaussian();
    }
    const std::vector<Vector> got =
        UnpackBatch(KronMatVec(factors, PackBatch(xs), batch), batch);
    for (std::size_t b = 0; b < batch; ++b) {
      EXPECT_EQ(got[b], NaiveKronMatVec(factors, xs[b]))
          << "batch " << batch << " vector " << b;
    }
  }
  // Width 1 is the plain vector, with no packing step at all.
  EXPECT_EQ(KronMatVec(factors, Vector(24, 0.5)),
            NaiveKronMatVec(factors, Vector(24, 0.5)));
}

TEST(KronMatVec, TiledWidePassStaysBitIdentical) {
  // Exercises the L2-tiling path: the tile budget is (1 MiB)/((c+r)*8) =
  // 1024 elements for 64x64 factors, and axis 0 spans stride * batch =
  // 64 * 160 = 10240 elements — 10 tiles per span, the same splitting the
  // production batch-release sizes hit. Width 1 spans 64 elements, one
  // tile. Tiling reorders across elements only, so every width must match
  // the naive reference exactly.
  Rng rng(17);
  const std::vector<Matrix> factors = {RandomMatrix(64, 64, &rng),
                                       RandomMatrix(64, 64, &rng)};
  for (std::size_t batch : {1u, 160u}) {
    std::vector<Vector> xs(batch, Vector(64 * 64));
    for (auto& x : xs) {
      for (auto& v : x) v = rng.Gaussian();
    }
    const std::vector<Vector> got =
        UnpackBatch(KronMatVec(factors, PackBatch(xs), batch), batch);
    for (std::size_t b = 0; b < batch; ++b) {
      ASSERT_EQ(got[b], NaiveKronMatVec(factors, xs[b]))
          << "batch " << batch << " vector " << b;
    }
  }
}

}  // namespace
}  // namespace linalg
}  // namespace dpmm
