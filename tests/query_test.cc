// Tests for the predicate parser / compiler and the workload builder.
#include <algorithm>

#include <gtest/gtest.h>

#include "query/predicate.h"
#include "query/workload_builder.h"
#include "workload/builders.h"

namespace dpmm {
namespace query {
namespace {

Domain StudentDomain() {
  return Domain({2, 4}, {"gender", "gpa"});
}

/// Number of cells a predicate selects: the ones in its row.
std::size_t Support(const Predicate& p, const Domain& d) {
  const linalg::Vector row = p.ToRow(d);
  return static_cast<std::size_t>(std::count(row.begin(), row.end(), 1.0));
}

TEST(Condition, AllOperators) {
  Condition c;
  c.value = 2;
  c.op = Condition::Op::kEq;
  EXPECT_TRUE(c.Matches(2));
  EXPECT_FALSE(c.Matches(1));
  c.op = Condition::Op::kNe;
  EXPECT_TRUE(c.Matches(3));
  EXPECT_FALSE(c.Matches(2));
  c.op = Condition::Op::kLt;
  EXPECT_TRUE(c.Matches(1));
  EXPECT_FALSE(c.Matches(2));
  c.op = Condition::Op::kLe;
  EXPECT_TRUE(c.Matches(2));
  EXPECT_FALSE(c.Matches(3));
  c.op = Condition::Op::kGt;
  EXPECT_TRUE(c.Matches(3));
  EXPECT_FALSE(c.Matches(2));
  c.op = Condition::Op::kGe;
  EXPECT_TRUE(c.Matches(2));
  EXPECT_FALSE(c.Matches(1));
  c.op = Condition::Op::kBetween;
  c.value = 1;
  c.value2 = 2;
  EXPECT_TRUE(c.Matches(1));
  EXPECT_TRUE(c.Matches(2));
  EXPECT_FALSE(c.Matches(0));
  EXPECT_FALSE(c.Matches(3));
}

TEST(ParsePredicate, StarAndEmptyAreTotal) {
  Domain d = StudentDomain();
  for (const char* text : {"*", "", "   "}) {
    auto p = ParsePredicate(text, d);
    ASSERT_TRUE(p.ok()) << text;
    EXPECT_EQ(Support(p.ValueOrDie(), d), 8u);
  }
}

TEST(ParsePredicate, SimpleEquality) {
  Domain d = StudentDomain();
  auto p = ParsePredicate("gender = 0", d).ValueOrDie();
  EXPECT_EQ(Support(p, d), 4u);
  // Cells 0..3 are gender=0 in row-major order.
  linalg::Vector row = p.ToRow(d);
  EXPECT_EQ(row, (linalg::Vector{1, 1, 1, 1, 0, 0, 0, 0}));
}

TEST(ParsePredicate, ConjunctionAndRange) {
  Domain d = StudentDomain();
  auto p = ParsePredicate("gender = 1 AND gpa IN [2, 3]", d).ValueOrDie();
  linalg::Vector row = p.ToRow(d);
  EXPECT_EQ(row, (linalg::Vector{0, 0, 0, 0, 0, 0, 1, 1}));
  // Case-insensitive keywords.
  auto p2 = ParsePredicate("gender = 1 and gpa in [2, 3]", d);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2.ValueOrDie().ToRow(d), row);
}

TEST(ParsePredicate, ComparisonOperators) {
  Domain d = StudentDomain();
  EXPECT_EQ(Support(ParsePredicate("gpa < 2", d).ValueOrDie(), d), 4u);
  EXPECT_EQ(Support(ParsePredicate("gpa >= 2", d).ValueOrDie(), d), 4u);
  EXPECT_EQ(Support(ParsePredicate("gpa != 0", d).ValueOrDie(), d), 6u);
  EXPECT_EQ(
      Support(ParsePredicate("gpa <= 0 AND gender == 0", d).ValueOrDie(), d),
      1u);
}

TEST(ParsePredicate, Errors) {
  Domain d = StudentDomain();
  EXPECT_FALSE(ParsePredicate("height = 1", d).ok());      // unknown attr
  EXPECT_FALSE(ParsePredicate("gpa ~ 1", d).ok());         // bad operator
  EXPECT_FALSE(ParsePredicate("gpa = 9", d).ok());         // out of range
  EXPECT_FALSE(ParsePredicate("gpa = 1 AND", d).ok());     // dangling AND
  EXPECT_FALSE(ParsePredicate("gpa = 1 gender = 0", d).ok());  // missing AND
  EXPECT_FALSE(ParsePredicate("gpa IN [3, 1]", d).ok());   // empty range
  EXPECT_FALSE(ParsePredicate("gpa IN [1 2]", d).ok());    // missing comma
  EXPECT_FALSE(ParsePredicate("gpa = x", d).ok());         // non-integer
  EXPECT_FALSE(ParsePredicate("* AND gpa = 1", d).ok());   // junk after *
}

TEST(ParsePredicate, OversizedIntegerIsAParseError) {
  // Literals past the range of size_t are refused, not thrown.
  Domain d = StudentDomain();
  const std::string huge = "99999999999999999999999";
  for (const std::string& text :
       {"gpa < " + huge, "gpa IN [0, " + huge + "]",
        "gpa IN [" + huge + ", " + huge + "]"}) {
    auto p = ParsePredicate(text, d);
    ASSERT_FALSE(p.ok()) << text;
    EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(p.status().ToString().find("predicate parse error"),
              std::string::npos)
        << p.status().ToString();
  }
  // The largest size_t still parses: a range operator may clip.
  EXPECT_EQ(Support(ParsePredicate("gpa < 18446744073709551615", d)
                        .ValueOrDie(),
                    d),
            8u);
}

TEST(BoxSelection, KeyIsThePerAttributeBucketMasks) {
  Domain d = StudentDomain();
  auto key = [&](const char* text) {
    return BoxSelection(ParsePredicate(text, d).ValueOrDie(), d).key();
  };
  EXPECT_EQ(key("*"), "11|1111");
  EXPECT_EQ(key("gender = 1 AND gpa IN [1, 2]"), "01|0110");
  EXPECT_EQ(key("gpa != 0 AND gpa < 3"), "11|0110");
  EXPECT_EQ(key("gpa > 3"), "11|0000");
}

TEST(ParsePredicate, RoundTripsThroughToString) {
  Domain d = StudentDomain();
  const std::string text = "gender = 1 AND gpa IN [1, 2]";
  auto p = ParsePredicate(text, d).ValueOrDie();
  auto p2 = ParsePredicate(p.ToString(d), d).ValueOrDie();
  EXPECT_EQ(p.ToRow(d), p2.ToRow(d));
}

TEST(WorkloadBuilder, ReconstructsFig1Workload) {
  // The Fig. 1(b) workload expressed as predicate queries.
  Domain d = StudentDomain();
  WorkloadBuilder b(d);
  EXPECT_TRUE(b.AddCount("*").ok());                      // q1 all
  EXPECT_TRUE(b.AddCount("gender = 0").ok());             // q2 male
  EXPECT_TRUE(b.AddCount("gender = 1").ok());             // q3 female
  EXPECT_TRUE(b.AddCount("gpa < 2").ok());                // q4 gpa < 3.0
  EXPECT_TRUE(b.AddCount("gpa >= 2").ok());               // q5 gpa >= 3.0
  EXPECT_TRUE(b.AddCount("gender = 1 AND gpa >= 2").ok());  // q6
  EXPECT_TRUE(b.AddCount("gender = 0 AND gpa < 2").ok());   // q7
  b.AddDifference(ParsePredicate("gender = 0", d).ValueOrDie(),
                  ParsePredicate("gender = 1", d).ValueOrDie());  // q8
  ExplicitWorkload w = b.Build("fig1-by-query");
  EXPECT_EQ(w.num_queries(), 8u);
  EXPECT_LT(w.matrix()->MaxAbsDiff(builders::Fig1Matrix()), 1e-12);
}

TEST(WorkloadBuilder, DescriptionsAreReadable) {
  Domain d = StudentDomain();
  WorkloadBuilder b(d);
  ASSERT_TRUE(b.AddCount("gender = 0 AND gpa IN [1, 2]").ok());
  EXPECT_EQ(b.description(0), "count(gender = 0 AND gpa IN [1, 2])");
}

}  // namespace
}  // namespace query
}  // namespace dpmm
