// Tests for Status/Result, the RNG and samplers, threading and the table
// printer.
#include <cmath>
#include <memory>
#include <mutex>
#include <set>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/threading.h"

namespace dpmm {
namespace {

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad");
  EXPECT_EQ(Status::NotConverged("x").code(), StatusCode::kNotConverged);
  EXPECT_EQ(Status::NumericalError("x").code(), StatusCode::kNumericalError);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ValueOrDie(), 42);
  Result<int> err(Status::NotFound("missing"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

// util::Status is a [[nodiscard]] class (build-enforced with -Werror): a
// dropped ledger charge / WAL append / fsync result is a compile error.
// These tests pin the two sanctioned consumption idioms at runtime.
TEST(Status, IgnoreStatusMacroSwallowsErrorsInExpressionPosition) {
  bool ran = false;
  auto fail = [&]() {
    ran = true;
    return Status::IoError("deliberately dropped");
  };
  // Compiles without -Wunused-result noise, evaluates the expression
  // exactly once, and discards the error.
  DPMM_IGNORE_STATUS(fail(), "unit test: exercising the discard macro");
  EXPECT_TRUE(ran);
}

TEST(Status, IgnoreStatusMacroAcceptsOkToo) {
  DPMM_IGNORE_STATUS(Status::OK(), "unit test: OK discard is also fine");
}

// DPMM_DCHECK is the hot-path check variant: active whenever NDEBUG is off
// (Debug + all sanitizer lanes), compiled out in the default Release build
// so linalg kernels pay nothing. The conversion of the kernels from
// DPMM_CHECK changed observable Release behavior (no abort on bad shapes),
// so both sides are pinned here.
TEST(Logging, DcheckCompiledPerBuildType) {
  int evaluations = 0;
  auto count = [&]() {
    ++evaluations;
    return true;
  };
#ifdef NDEBUG
  // Release: the condition must not even be evaluated.
  DPMM_DCHECK(count());
  DPMM_DCHECK_MSG(count(), "unused");
  EXPECT_EQ(evaluations, 0);
#else
  DPMM_DCHECK(count());
  EXPECT_EQ(evaluations, 1);
  EXPECT_DEATH(DPMM_DCHECK(false), "DPMM_CHECK failed");
#endif
}

TEST(Rng, EntropySeedIsUniquePerCall) {
  // GenerateChargeId's process tag comes from here: a collision between two
  // processes would make the ledger's idempotency window treat a fresh
  // charge as a retry and silently drop it — budget under-count, i.e. a
  // privacy bug. 64-bit draws over 4k calls must never repeat.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 4096; ++i) seen.insert(EntropySeed());
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(Result, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(Rng, UniformDoubleInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBoundsAndCoverage) {
  Rng rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, GaussianMoments) {
  Rng rng(3);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, GaussianScale) {
  Rng rng(4);
  const int n = 100000;
  double sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian(5.0);
    sum2 += g * g;
  }
  EXPECT_NEAR(sum2 / n, 25.0, 0.8);
}

TEST(Rng, LaplaceMoments) {
  Rng rng(5);
  const int n = 200000;
  const double b = 2.0;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double l = rng.Laplace(b);
    sum += l;
    sum2 += l * l;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 2.0 * b * b, 0.25);  // Var = 2 b^2
}

TEST(Rng, PermutationIsBijection) {
  Rng rng(7);
  auto p = rng.Permutation(100);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<int> hits(1000, 0);
  std::mutex mu;
  ParallelFor(0, 1000, 10, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  int calls = 0;
  ParallelFor(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<int> hits(3, 0);
  ParallelFor(0, 3, 100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelFor, ZeroGrainAndInvertedRange) {
  // Grain 0 means "no minimum" and must not underflow the chunk arithmetic.
  std::vector<int> hits(64, 0);
  std::mutex mu;
  ParallelFor(0, 64, 0, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (int h : hits) ASSERT_EQ(h, 1);
  // end < begin is an empty range, not a wraparound.
  int calls = 0;
  ParallelFor(10, 2, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, GrainEqualToRangeRunsSerially) {
  // One grain covers everything: the callback must run exactly once, inline.
  int calls = 0;
  ParallelFor(3, 11, 8, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 3u);
    EXPECT_EQ(hi, 11u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(TablePrinter, FormatsNumbers) {
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Num(std::nan(""), 2), "-");
  // Very large/small numbers switch to scientific notation.
  EXPECT_NE(TablePrinter::Num(1.5e7, 2).find("e"), std::string::npos);
}

TEST(TablePrinter, PrintsAllRows) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  t.AddRow({"333", "4"});
  ::testing::internal::CaptureStdout();
  t.Print();
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find("| a"), std::string::npos);
}

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch sw;
  EXPECT_GE(sw.Seconds(), 0.0);
  sw.Restart();
  EXPECT_GE(sw.Millis(), 0.0);
}

}  // namespace
}  // namespace dpmm
