// Round-trip property tests for the binary artifact format: save -> load ->
// save is byte-stable, every corruption (magic, version, kind, checksum,
// truncation, trailing bytes) is a clean Status error, and a loaded
// strategy reproduces both the stored gap certificate and the exact
// numerical behavior of the original.
#include <cstdio>
#include <cstring>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "optimize/eigen_design.h"
#include "serialize/artifact.h"
#include "util/rng.h"
#include "workload/marginal_workloads.h"
#include "workload/range_workloads.h"

namespace dpmm {
namespace {

using serialize::DecodeReleaseArtifact;
using serialize::DecodeStrategyArtifact;
using serialize::EncodeReleaseArtifact;
using serialize::EncodeStrategyArtifact;
using serialize::ReleaseArtifact;
using serialize::StrategyArtifact;

StrategyArtifact DesignArtifact(const Workload& w, const std::string& spec) {
  auto design = optimize::Design(*w.ImplicitEigen());
  EXPECT_TRUE(design.ok()) << design.status().ToString();
  auto& d = design.ValueOrDie();
  StrategyArtifact artifact;
  artifact.signature = spec;
  artifact.domain_sizes = w.domain().sizes();
  artifact.strategy = d.strategy;
  artifact.solver_report = d.solver_report;
  artifact.duality_gap = d.duality_gap;
  artifact.rank = d.rank;
  return artifact;
}

const KronStrategy& AsKron(const StrategyArtifact& artifact) {
  return dynamic_cast<const KronStrategy&>(*artifact.strategy);
}

ReleaseArtifact SampleRelease(const std::string& spec,
                              const std::vector<std::size_t>& sizes,
                              std::size_t cells) {
  ReleaseArtifact rel;
  rel.signature = spec;
  rel.domain_sizes = sizes;
  rel.budget = {0.25, 5e-5};
  rel.dataset = "hist.csv";
  rel.seed = 42;
  rel.batch_index = 3;
  Rng rng(7);
  rel.x_hat.resize(cells);
  for (auto& v : rel.x_hat) v = rng.Gaussian(10.0);
  return rel;
}

TEST(StrategyArtifact, SaveLoadSaveIsByteStable) {
  AllRangeWorkload w(Domain({4, 4}));
  const StrategyArtifact artifact = DesignArtifact(w, "allrange@4,4");
  const std::string bytes = EncodeStrategyArtifact(artifact);
  auto decoded = DecodeStrategyArtifact(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const std::string bytes2 = EncodeStrategyArtifact(decoded.ValueOrDie());
  EXPECT_EQ(bytes, bytes2);
}

TEST(StrategyArtifact, LoadedStrategyReproducesGapCertificate) {
  MarginalsWorkload w(MarginalsWorkload::AllKWay(Domain({4, 4}), 1));
  const StrategyArtifact artifact = DesignArtifact(w, "marginals:1@4,4");
  auto decoded = DecodeStrategyArtifact(EncodeStrategyArtifact(artifact));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const StrategyArtifact& loaded = decoded.ValueOrDie();

  // The stored certificate survives bit-for-bit.
  EXPECT_EQ(loaded.duality_gap, artifact.duality_gap);
  EXPECT_EQ(loaded.rank, artifact.rank);
  EXPECT_EQ(loaded.solver_report.method, artifact.solver_report.method);
  EXPECT_EQ(loaded.solver_report.iterations,
            artifact.solver_report.iterations);
  EXPECT_EQ(loaded.solver_report.final_gap, artifact.solver_report.final_gap);
  EXPECT_EQ(loaded.signature, artifact.signature);
  EXPECT_EQ(loaded.domain_sizes, artifact.domain_sizes);

  // And the strategy behaves identically: same shape, same sensitivity,
  // same matvec and normal-solve outputs, bit for bit.
  ASSERT_EQ(loaded.engine(), StrategyEngine::kKron);
  const KronStrategy& a = AsKron(artifact);
  const KronStrategy& b = AsKron(loaded);
  ASSERT_EQ(a.num_cells(), b.num_cells());
  ASSERT_EQ(a.num_queries(), b.num_queries());
  EXPECT_EQ(a.kept(), b.kept());
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_EQ(a.completion(), b.completion());
  EXPECT_EQ(a.L2Sensitivity(), b.L2Sensitivity());
  Rng rng(3);
  linalg::Vector x(a.num_cells());
  for (auto& v : x) v = rng.Gaussian(1.0);
  EXPECT_EQ(a.Apply(x), b.Apply(x));
  EXPECT_EQ(a.SolveNormal(x), b.SolveNormal(x));
}

TEST(StrategyArtifact, FileRoundTrip) {
  AllRangeWorkload w(Domain({3, 5}));
  const StrategyArtifact artifact = DesignArtifact(w, "allrange@3,5");
  const std::string path = ::testing::TempDir() + "/dpmm_artifact.strategy";
  ASSERT_TRUE(serialize::SaveStrategyArtifact(artifact, path).ok());
  auto loaded = serialize::LoadStrategyArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(EncodeStrategyArtifact(loaded.ValueOrDie()),
            EncodeStrategyArtifact(artifact));
  std::remove(path.c_str());
}

TEST(StrategyArtifact, ChecksumMismatchRejected) {
  AllRangeWorkload w(Domain({4, 4}));
  std::string bytes = EncodeStrategyArtifact(DesignArtifact(w, "allrange@4,4"));
  // Flip one payload byte: the checksum must catch it.
  bytes[bytes.size() - 3] ^= 0x40;
  auto decoded = DecodeStrategyArtifact(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos)
      << decoded.status().message();
}

TEST(StrategyArtifact, VersionMismatchRejected) {
  AllRangeWorkload w(Domain({4, 4}));
  std::string bytes = EncodeStrategyArtifact(DesignArtifact(w, "allrange@4,4"));
  bytes[8] = 99;  // the version field follows the 8-byte magic
  auto decoded = DecodeStrategyArtifact(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
      << decoded.status().message();
}

TEST(StrategyArtifact, BadMagicAndKindRejected) {
  AllRangeWorkload w(Domain({4, 4}));
  const std::string bytes =
      EncodeStrategyArtifact(DesignArtifact(w, "allrange@4,4"));
  std::string wrong = bytes;
  wrong[0] = 'X';
  EXPECT_FALSE(DecodeStrategyArtifact(wrong).ok());
  // A strategy artifact is not a release artifact.
  EXPECT_FALSE(DecodeReleaseArtifact(bytes).ok());
  EXPECT_FALSE(DecodeStrategyArtifact("").ok());
  EXPECT_FALSE(DecodeStrategyArtifact("short").ok());
}

TEST(StrategyArtifact, TruncationRejectedAtEveryLength) {
  AllRangeWorkload w(Domain({2, 3}));
  const std::string bytes =
      EncodeStrategyArtifact(DesignArtifact(w, "allrange@2,3"));
  // Every strict prefix must fail cleanly (never crash, never succeed).
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = DecodeStrategyArtifact(bytes.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(StrategyArtifact, TrailingBytesRejected) {
  AllRangeWorkload w(Domain({4, 4}));
  std::string bytes = EncodeStrategyArtifact(DesignArtifact(w, "allrange@4,4"));
  bytes += '\0';
  auto decoded = DecodeStrategyArtifact(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

TEST(ReleaseArtifact, SaveLoadSaveIsByteStable) {
  const ReleaseArtifact rel = SampleRelease("allrange@4,4", {4, 4}, 16);
  const std::string bytes = EncodeReleaseArtifact(rel);
  auto decoded = DecodeReleaseArtifact(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ReleaseArtifact& loaded = decoded.ValueOrDie();
  EXPECT_EQ(EncodeReleaseArtifact(loaded), bytes);
  EXPECT_EQ(loaded.x_hat, rel.x_hat);
  EXPECT_EQ(loaded.budget.epsilon, rel.budget.epsilon);
  EXPECT_EQ(loaded.budget.delta, rel.budget.delta);
  EXPECT_EQ(loaded.dataset, rel.dataset);
  EXPECT_EQ(loaded.seed, rel.seed);
  EXPECT_EQ(loaded.batch_index, rel.batch_index);
}

TEST(ReleaseArtifact, TruncationAndCorruptionRejected) {
  const std::string bytes =
      EncodeReleaseArtifact(SampleRelease("allrange@4,4", {4, 4}, 16));
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    ASSERT_FALSE(DecodeReleaseArtifact(bytes.substr(0, len)).ok());
  }
  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x01;
  EXPECT_FALSE(DecodeReleaseArtifact(corrupt).ok());
}

TEST(ReleaseArtifact, EstimateLengthMustMatchDomain) {
  // 15 values for a 16-cell domain: structurally valid container, invalid
  // content.
  const std::string bytes =
      EncodeReleaseArtifact(SampleRelease("allrange@4,4", {4, 4}, 15));
  auto decoded = DecodeReleaseArtifact(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("disagrees"), std::string::npos);
}

TEST(ReleaseArtifact, InvalidBudgetRejected) {
  ReleaseArtifact rel = SampleRelease("allrange@4,4", {4, 4}, 16);
  rel.budget.epsilon = -1.0;
  EXPECT_FALSE(DecodeReleaseArtifact(EncodeReleaseArtifact(rel)).ok());
}

TEST(ReleaseArtifact, SupersessionRoundTripsInV3) {
  ReleaseArtifact rel = SampleRelease("allrange@4,4", {4, 4}, 16);
  rel.supersedes_plus1 = 8;  // this release replaced stored id 7
  const std::string bytes = EncodeReleaseArtifact(rel);
  auto decoded = DecodeReleaseArtifact(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ReleaseArtifact& loaded = decoded.ValueOrDie();
  ASSERT_TRUE(loaded.has_supersedes());
  EXPECT_EQ(loaded.supersedes(), 7u);
  EXPECT_EQ(EncodeReleaseArtifact(loaded), bytes);

  // "Supersedes nothing" is the zero sentinel, not a valid id.
  rel.supersedes_plus1 = 0;
  auto fresh = DecodeReleaseArtifact(EncodeReleaseArtifact(rel));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.ValueOrDie().has_supersedes());
}

TEST(Artifact, OnlyTheCurrentVersionDecodes) {
  // No compatibility decoders: an artifact whose version field (it follows
  // the 8-byte magic, outside the checksummed payload) names any version
  // other than the current one is refused, older layouts included.
  AllRangeWorkload w(Domain({4, 4}));
  const std::string strategy =
      EncodeStrategyArtifact(DesignArtifact(w, "allrange@4,4"));
  const std::string release =
      EncodeReleaseArtifact(SampleRelease("allrange@4,4", {4, 4}, 16));
  ASSERT_EQ(static_cast<std::uint32_t>(strategy[8]),
            serialize::kArtifactVersion);
  for (char version : {1, 2, 4}) {
    std::string s = strategy;
    std::string r = release;
    s[8] = version;
    r[8] = version;
    const Status strategy_st = DecodeStrategyArtifact(s).status();
    const Status release_st = DecodeReleaseArtifact(r).status();
    for (const Status& st : {strategy_st, release_st}) {
      EXPECT_EQ(st.code(), StatusCode::kIoError) << int{version};
      EXPECT_NE(st.message().find("unsupported artifact version"),
                std::string::npos)
          << st.message();
    }
  }
}

TEST(Fnv1a64, KnownVectorsAndStability) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(serialize::Fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(serialize::Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(serialize::Fnv1a64(std::string("allrange@8,16,16")),
            serialize::Fnv1a64(std::string("allrange@8,16,16")));
}

}  // namespace
}  // namespace dpmm
