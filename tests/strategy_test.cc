// Tests for the baseline strategies: wavelet, hierarchical, Fourier and
// DataCube/BMAX.
#include <cmath>
#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "strategy/datacube.h"
#include "strategy/fourier.h"
#include "strategy/hierarchical.h"
#include "strategy/io.h"
#include "strategy/strategy.h"
#include "strategy/wavelet.h"
#include "workload/builders.h"
#include "workload/marginal_workloads.h"

#include "support/linalg_oracles.h"

namespace dpmm {
namespace {

using linalg::Matrix;

TEST(IdentityStrategy, Basics) {
  Strategy s = IdentityStrategy(5);
  EXPECT_EQ(s.num_queries(), 5u);
  EXPECT_DOUBLE_EQ(s.L2Sensitivity(), 1.0);
  EXPECT_DOUBLE_EQ(s.L1Sensitivity(), 1.0);
}

TEST(Wavelet, MatchesFig2For8Cells) {
  Matrix expect = Matrix::FromRows({{1, 1, 1, 1, 1, 1, 1, 1},
                                    {1, 1, 1, 1, -1, -1, -1, -1},
                                    {1, 1, -1, -1, 0, 0, 0, 0},
                                    {0, 0, 0, 0, 1, 1, -1, -1},
                                    {1, -1, 0, 0, 0, 0, 0, 0},
                                    {0, 0, 1, -1, 0, 0, 0, 0},
                                    {0, 0, 0, 0, 1, -1, 0, 0},
                                    {0, 0, 0, 0, 0, 0, 1, -1}});
  EXPECT_EQ(HaarMatrix1D(8).MaxAbsDiff(expect), 0.0);
}

TEST(Wavelet, SensitivityIsSqrtOneLogN) {
  // Each cell appears in 1 + log2(d) rows with +-1 entries.
  for (std::size_t d : {2, 4, 8, 16, 64}) {
    Strategy s = WaveletStrategy(Domain::OneDim(d));
    EXPECT_NEAR(s.L2Sensitivity(), std::sqrt(1.0 + std::log2(d)), 1e-12) << d;
  }
}

TEST(Wavelet, AnswersAllRangesExactly) {
  // Every range query must lie in the wavelet's row space.
  Matrix ranges = builders::AllRangeMatrix1D(16);
  EXPECT_LT(linalg::RowSpaceResidual(ranges, HaarMatrix1D(16)), 1e-8);
}

TEST(Wavelet, NonPowerOfTwoStillSpansRanges) {
  Matrix h = HaarMatrix1D(11);
  EXPECT_EQ(h.cols(), 11u);
  EXPECT_EQ(h.rows(), 11u);  // complete basis: total + d-1 details
  Matrix ranges = builders::AllRangeMatrix1D(11);
  EXPECT_LT(linalg::RowSpaceResidual(ranges, h), 1e-8);
}

TEST(Wavelet, MultiDimKronecker) {
  Domain d({4, 8});
  Strategy s = WaveletStrategy(d);
  EXPECT_EQ(s.num_cells(), 32u);
  const double expect =
      std::sqrt((1.0 + std::log2(4)) * (1.0 + std::log2(8)));
  EXPECT_NEAR(s.L2Sensitivity(), expect, 1e-12);
}

TEST(Hierarchical, RowCountAndStructure) {
  Matrix h = HierarchicalMatrix1D(8);
  EXPECT_EQ(h.rows(), 15u);  // complete binary tree over 8 leaves
  // Root is the total query.
  for (std::size_t j = 0; j < 8; ++j) EXPECT_EQ(h(0, j), 1.0);
  // Leaves are the unit queries (last 8 rows).
  for (std::size_t r = 7; r < 15; ++r) {
    double sum = 0;
    for (std::size_t j = 0; j < 8; ++j) sum += h(r, j);
    EXPECT_EQ(sum, 1.0);
  }
}

TEST(Hierarchical, SensitivityIsSqrtDepth) {
  // Each cell appears once per level: depth = 1 + ceil(log2 d).
  Strategy s = HierarchicalStrategy(Domain::OneDim(16));
  EXPECT_NEAR(s.L2Sensitivity(), std::sqrt(5.0), 1e-12);
}

TEST(Hierarchical, SpansAllRanges) {
  EXPECT_LT(linalg::RowSpaceResidual(builders::AllRangeMatrix1D(13),
                                     HierarchicalMatrix1D(13)),
            1e-8);
}

TEST(Hierarchical, BranchingFactorFour) {
  Matrix h = HierarchicalMatrix1D(16, 4);
  // Levels: 1 + 4 + 16 nodes.
  EXPECT_EQ(h.rows(), 21u);
}

TEST(DctBasis, Orthonormal) {
  for (std::size_t d : {2, 3, 8, 16}) {
    Matrix b = DctBasis(d);
    EXPECT_LT(linalg::MatMulNT(b, b).MaxAbsDiff(Matrix::Identity(d)), 1e-10);
  }
}

TEST(Fourier, AnswersTargetMarginalsExactly) {
  Domain d({4, 3, 2});
  auto sets = AllSubsetsOfSize(3, 2);
  Strategy f = FourierStrategy(d, sets);
  MarginalsWorkload w(d, sets, MarginalsWorkload::Flavor::kMarginal);
  EXPECT_LT(linalg::RowSpaceResidual(w.Materialize(), f.matrix()), 1e-8);
}

TEST(Fourier, RowCountMatchesSupportEnumeration) {
  Domain d({4, 3});
  // 2-way marginal: supports {}, {0}, {1}, {0,1} ->
  // 1 + 3 + 2 + 6 = 12 rows.
  Strategy f = FourierStrategy(d, {AttrSet{0, 1}});
  EXPECT_EQ(f.num_queries(), 12u);
}

TEST(Fourier, DroppingUnneededVectorsReducesSensitivity) {
  Domain d({8, 8});
  Strategy one_way = FourierStrategy(d, AllSubsetsOfSize(2, 1));
  Strategy full = FourierStrategy(d, {AttrSet{0, 1}});
  EXPECT_LT(one_way.L2Sensitivity(), full.L2Sensitivity());
}

TEST(Fourier, FullBasisIsOrthonormal) {
  Domain d({3, 4});
  Matrix b = FullFourierBasis(d);
  EXPECT_LT(linalg::MatMulNT(b, b).MaxAbsDiff(Matrix::Identity(12)), 1e-10);
}

TEST(DataCube, CoversWorkloadAndIsSane) {
  Domain d({4, 4, 4});
  auto sets = AllSubsetsOfSize(3, 2);
  DataCubeResult r = DataCubeStrategy(d, sets);
  ASSERT_FALSE(r.chosen.empty());
  // Every workload marginal must be covered by some chosen marginal.
  for (const auto& t : sets) {
    bool covered = false;
    for (const auto& s : r.chosen) {
      if (MarginalCoverCost(d, t, s) <
          std::numeric_limits<double>::infinity()) {
        covered = true;
      }
    }
    EXPECT_TRUE(covered);
  }
  // And the strategy matrix answers the workload exactly.
  MarginalsWorkload w(d, sets, MarginalsWorkload::Flavor::kMarginal);
  EXPECT_LT(linalg::RowSpaceResidual(w.Materialize(), r.strategy.matrix()),
            1e-8);
}

TEST(DataCube, CoverCost) {
  Domain d({4, 8, 2});
  EXPECT_DOUBLE_EQ(MarginalCoverCost(d, {0}, {0, 1}), 8.0);
  EXPECT_DOUBLE_EQ(MarginalCoverCost(d, {0}, {0}), 1.0);
  EXPECT_TRUE(std::isinf(MarginalCoverCost(d, {0, 2}, {0, 1})));
}

TEST(DataCube, SingleMarginalWorkloadChoosesItself) {
  // For a workload of one marginal, answering exactly that marginal is
  // BMAX-optimal (cost 1 * |selection|=1).
  Domain d({4, 4});
  DataCubeResult r = DataCubeStrategy(d, {AttrSet{0}});
  ASSERT_EQ(r.chosen.size(), 1u);
  EXPECT_EQ(r.chosen[0], (AttrSet{0}));
  EXPECT_DOUBLE_EQ(r.bmax_objective, 1.0);
}

TEST(DataCube, GreedyPathCoversLargeAttributeCounts) {
  // k = 5 attributes -> 32 candidate marginals -> greedy search path.
  Domain d({2, 2, 2, 2, 2});
  auto sets = AllSubsetsOfSize(5, 2);
  DataCubeResult r = DataCubeStrategy(d, sets);
  ASSERT_FALSE(r.chosen.empty());
  for (const auto& t : sets) {
    bool covered = false;
    for (const auto& s : r.chosen) {
      if (MarginalCoverCost(d, t, s) <
          std::numeric_limits<double>::infinity()) {
        covered = true;
      }
    }
    EXPECT_TRUE(covered);
  }
  // Greedy must at least match the trivial selection (the workload itself).
  double trivial = static_cast<double>(sets.size());  // |S| * cost 1
  EXPECT_LE(r.bmax_objective, trivial + 1e-9);
}

TEST(StrategyIo, RoundTrip) {
  Strategy original = WaveletStrategy(Domain::OneDim(16));
  const std::string path = ::testing::TempDir() + "/dpmm_strategy.txt";
  ASSERT_TRUE(strategy_io::SaveStrategy(original, path).ok());
  auto loaded = strategy_io::LoadStrategy(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie().name(), "Wavelet");
  EXPECT_EQ(loaded.ValueOrDie().matrix().MaxAbsDiff(original.matrix()), 0.0);
  std::remove(path.c_str());
}

TEST(StrategyIo, PreservesFullPrecision) {
  linalg::Matrix m(1, 2);
  m(0, 0) = 1.0 / 3.0;
  m(0, 1) = -1.2345678901234567e-12;
  Strategy s(m, "precise");
  const std::string path = ::testing::TempDir() + "/dpmm_strategy_prec.txt";
  ASSERT_TRUE(strategy_io::SaveStrategy(s, path).ok());
  auto loaded = strategy_io::LoadStrategy(path).ValueOrDie();
  EXPECT_EQ(loaded.matrix()(0, 0), m(0, 0));
  EXPECT_EQ(loaded.matrix()(0, 1), m(0, 1));
  std::remove(path.c_str());
}

TEST(StrategyIo, RejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/dpmm_strategy_bad.txt";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("not a strategy\n1 2 3\n", f);
  std::fclose(f);
  EXPECT_FALSE(strategy_io::LoadStrategy(path).ok());
  EXPECT_FALSE(strategy_io::LoadStrategy("/nonexistent/x").ok());
  std::remove(path.c_str());
}

TEST(DataCube, TwoWayWorkloadOnCheapDomainUsesFullCube) {
  // With tiny attribute sizes, answering the single full cube (cost d) can
  // beat answering all three 2-way marginals (cost 3). BMAX must pick the
  // better of the two; verify optimality by brute-force re-check.
  Domain d({2, 2, 2});
  auto sets = AllSubsetsOfSize(3, 2);
  DataCubeResult r = DataCubeStrategy(d, sets);
  // Recompute the objective of the returned selection and confirm no single
  // alternative beats it by enumerating a few canonical candidates.
  const double full_cube = 1.0 * 2.0;        // {0,1,2}: |S|=1, aggregation 2
  const double all_two_way = 3.0 * 1.0;      // three exact marginals
  EXPECT_LE(r.bmax_objective, std::min(full_cube, all_two_way));
}

}  // namespace
}  // namespace dpmm
