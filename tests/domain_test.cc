// Tests for multi-dimensional domains, cell indexing and cell conditions.
#include <gtest/gtest.h>

#include "domain/cell_condition.h"
#include "domain/domain.h"
#include "workload/builders.h"

namespace dpmm {
namespace {

TEST(Domain, BasicProperties) {
  Domain d({8, 16, 16});
  EXPECT_EQ(d.num_attributes(), 3u);
  EXPECT_EQ(d.NumCells(), 2048u);
  EXPECT_EQ(d.size(1), 16u);
  EXPECT_EQ(d.ToString(), "[8 x 16 x 16]");
}

TEST(Domain, OneDim) {
  Domain d = Domain::OneDim(5);
  EXPECT_EQ(d.num_attributes(), 1u);
  EXPECT_EQ(d.NumCells(), 5u);
}

TEST(Domain, IndexRoundTrip) {
  Domain d({3, 4, 5});
  for (std::size_t cell = 0; cell < d.NumCells(); ++cell) {
    const auto multi = d.MultiIndex(cell);
    ASSERT_EQ(d.CellIndex(multi), cell);
  }
}

TEST(Domain, RowMajorOrder) {
  // Attribute 0 is the slowest-varying index, matching the Kronecker
  // conventions used across workloads and strategies.
  Domain d({2, 3});
  EXPECT_EQ(d.CellIndex({0, 0}), 0u);
  EXPECT_EQ(d.CellIndex({0, 2}), 2u);
  EXPECT_EQ(d.CellIndex({1, 0}), 3u);
  EXPECT_EQ(d.CellIndex({1, 2}), 5u);
}

TEST(Domain, NamesDefaultAndCustom) {
  Domain d({2, 2});
  EXPECT_EQ(d.attribute_name(0), "A1");
  Domain named({2, 2}, {"gender", "gpa"});
  EXPECT_EQ(named.attribute_name(1), "gpa");
}

TEST(Domain, Equality) {
  EXPECT_TRUE(Domain({2, 3}) == Domain({2, 3}));
  EXPECT_FALSE(Domain({2, 3}) == Domain({3, 2}));
}

TEST(AttrSets, AllSubsetsOfSize) {
  auto one_way = AllSubsetsOfSize(4, 1);
  EXPECT_EQ(one_way.size(), 4u);
  auto two_way = AllSubsetsOfSize(4, 2);
  EXPECT_EQ(two_way.size(), 6u);
  EXPECT_EQ(two_way[0], (AttrSet{0, 1}));
  auto zero_way = AllSubsetsOfSize(3, 0);
  EXPECT_EQ(zero_way.size(), 1u);
  EXPECT_TRUE(zero_way[0].empty());
}

TEST(AttrSets, AllSubsets) {
  auto all = AllSubsets(3);
  EXPECT_EQ(all.size(), 8u);
  EXPECT_TRUE(all[0].empty());
  EXPECT_EQ(all[7], (AttrSet{0, 1, 2}));
}

TEST(CellLabels, Fig1ConditionsMatchPaper) {
  // Fig. 1(a): phi_1 = gpa in [1.0,2.0) AND gender = M ... in our encoding
  // gender varies slowest (cells 1-4 male, 5-8 female).
  CellLabels labels = builders::Fig1Labels();
  EXPECT_EQ(labels.Condition(0), "gender=M AND gpa in [1.0,2.0)");
  EXPECT_EQ(labels.Condition(7), "gender=F AND gpa in [3.5,4.0)");
  EXPECT_EQ(labels.domain().NumCells(), 8u);
}

}  // namespace
}  // namespace dpmm
