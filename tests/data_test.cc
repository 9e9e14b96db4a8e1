// Tests for data vectors, synthetic generators and CSV persistence.
#include <cstdio>

#include <gtest/gtest.h>

#include "data/data_vector.h"
#include "data/generators.h"
#include "data/io.h"

#include "support/test_data.h"

namespace dpmm {
namespace {

TEST(DataVector, TotalsAndMarginals) {
  Domain d({2, 2});
  DataVector dv(d, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(dv.Total(), 10.0);
  EXPECT_EQ(dv.Marginal(0), (linalg::Vector{3, 7}));
  EXPECT_EQ(dv.Marginal(1), (linalg::Vector{4, 6}));
}

TEST(Generators, CensusLikeShapeAndScale) {
  DataVector dv = data::GenCensusLike();
  EXPECT_EQ(dv.domain.sizes(), (std::vector<std::size_t>{8, 16, 16}));
  EXPECT_NEAR(dv.Total(), 15e6, 0.01 * 15e6);
  for (double c : dv.counts) ASSERT_GE(c, 0.0);
}

TEST(Generators, AdultLikeShapeAndScale) {
  DataVector dv = data::GenAdultLike();
  EXPECT_EQ(dv.domain.sizes(), (std::vector<std::size_t>{8, 8, 16, 2}));
  EXPECT_NEAR(dv.Total(), 33e3, 0.01 * 33e3);
}

TEST(Generators, DeterministicPerSeed) {
  DataVector a = data::GenCensusLike(99);
  DataVector b = data::GenCensusLike(99);
  DataVector c = data::GenCensusLike(100);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_NE(a.counts, c.counts);
}

TEST(Generators, CensusIsNonUniform) {
  // The income margin must be heavy-tailed, not flat: max/min bucket > 3.
  DataVector dv = data::GenCensusLike();
  auto income = dv.Marginal(2);
  double mn = income[0], mx = income[0];
  for (double v : income) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  EXPECT_GT(mx / std::max(mn, 1.0), 3.0);
}

TEST(Generators, UniformIsFlat) {
  DataVector dv = data::GenUniform(Domain({4, 4}), 160.0);
  for (double c : dv.counts) EXPECT_DOUBLE_EQ(c, 10.0);
}

TEST(Generators, ZipfIsSkewedAndDeterministic) {
  Domain d({64});
  DataVector a = data::GenZipf(d, 1e5, 1.2, 5);
  DataVector b = data::GenZipf(d, 1e5, 1.2, 5);
  EXPECT_EQ(a.counts, b.counts);
  double mx = 0;
  for (double c : a.counts) mx = std::max(mx, c);
  // The top cell of a Zipf(1.2) over 64 cells holds a large share.
  EXPECT_GT(mx / a.Total(), 0.1);
}

TEST(Io, RoundTrip) {
  Domain d({2, 3});
  DataVector dv(d, {1, 2, 3, 4, 5, 6.5});
  const std::string path = ::testing::TempDir() + "/dpmm_io_test.csv";
  ASSERT_TRUE(data::SaveCsv(dv, path).ok());
  auto loaded = data::LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie().domain.sizes(), d.sizes());
  EXPECT_EQ(loaded.ValueOrDie().counts, dv.counts);
  std::remove(path.c_str());
}

TEST(Io, MissingFileIsIoError) {
  auto r = data::LoadCsv("/nonexistent/nope.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(Io, MalformedHeaderRejected) {
  const std::string path = ::testing::TempDir() + "/dpmm_io_bad.csv";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("not a header\n0,1\n", f);
  std::fclose(f);
  EXPECT_FALSE(data::LoadCsv(path).ok());
  std::remove(path.c_str());
}

// ---- Hardening against user-authored files (served deployments load
// histograms written by hand or exported from other tools).

namespace {

/// Writes `content` verbatim and loads it back.
Result<DataVector> LoadLiteral(const std::string& name,
                               const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  auto result = data::LoadCsv(path);
  std::remove(path.c_str());
  return result;
}

}  // namespace

TEST(IoHardening, CrlfLineEndingsLoadCleanly) {
  auto r = LoadLiteral("crlf.csv",
                       "# domain: 2,2\r\n0,1\r\n1,2\r\n2,3\r\n3,4\r\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().counts, (linalg::Vector{1, 2, 3, 4}));
}

TEST(IoHardening, TrailingBlankLinesAndStrayWhitespace) {
  auto r = LoadLiteral("messy.csv",
                       "  # domain: 2 , 2  \n"
                       " 0 , 1.5 \n"
                       "\t1,\t2\n"
                       "\n"
                       "3 , 4\n"
                       "\n"
                       "   \n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().counts, (linalg::Vector{1.5, 2, 0, 4}));
}

TEST(IoHardening, NonNumericCellIsStatusNotCrash) {
  auto r = LoadLiteral("badcell.csv", "# domain: 2,2\nzero,1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  // The error names the offending line for the user.
  EXPECT_NE(r.status().message().find(":2:"), std::string::npos)
      << r.status().message();
}

TEST(IoHardening, NonNumericCountIsStatusNotCrash) {
  auto r = LoadLiteral("badcount.csv", "# domain: 2,2\n0,abc\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(IoHardening, PartiallyNumericFieldsRejected) {
  // strtod/strtoull would happily stop at the junk; strict parsing must not.
  EXPECT_FALSE(LoadLiteral("trail1.csv", "# domain: 4\n1x,3\n").ok());
  EXPECT_FALSE(LoadLiteral("trail2.csv", "# domain: 4\n1,3q\n").ok());
  EXPECT_FALSE(LoadLiteral("neg.csv", "# domain: 4\n-1,3\n").ok());
}

TEST(IoHardening, NonFiniteCountRejected) {
  EXPECT_FALSE(LoadLiteral("inf.csv", "# domain: 4\n0,inf\n").ok());
  EXPECT_FALSE(LoadLiteral("nan.csv", "# domain: 4\n0,nan\n").ok());
  EXPECT_FALSE(LoadLiteral("huge.csv", "# domain: 4\n0,1e999\n").ok());
}

TEST(IoHardening, NonNumericDomainHeaderIsStatusNotCrash) {
  auto r = LoadLiteral("badhdr.csv", "# domain: 2,two\n0,1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(LoadLiteral("zerohdr.csv", "# domain: 2,0\n0,1\n").ok());
}

TEST(IoHardening, OutOfRangeCellNamesTheLine) {
  auto r = LoadLiteral("range.csv", "# domain: 2,2\n0,1\n9,1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
  EXPECT_NE(r.status().message().find(":3:"), std::string::npos)
      << r.status().message();
}

TEST(IoHardening, MissingCommaRejected) {
  EXPECT_FALSE(LoadLiteral("nocomma.csv", "# domain: 4\n0 1\n").ok());
}

}  // namespace
}  // namespace dpmm
