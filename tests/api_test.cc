// The unified strategy/mechanism API (ctest label `api`): the
// LinearStrategy interface, the Design() engine decision rule, the one
// Mechanism, and the v2 artifact format's dense payload kind.
// The load-bearing contracts:
//   * fixed-seed releases through the Design()/Mechanism path are
//     byte-identical to Prop. 3 written out by hand in this file (same Rng,
//     y = A x + noise, then an explicit Cholesky solve for dense strategies
//     or the engine's SolveNormal(ApplyT(y)) for kron ones);
//   * dense strategy artifacts are save -> load -> save byte-stable and
//     reject corruption/truncation at every prefix length (mirroring the
//     kron suite);
//   * v1 (kron-only) artifacts still decode;
//   * strategy_io files ride the dense artifact kind; anything else is
//     rejected.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/svd.h"
#include "mechanism/matrix_mechanism.h"
#include "optimize/eigen_design.h"
#include "release/release.h"
#include "serialize/artifact.h"
#include "strategy/io.h"
#include "util/rng.h"
#include "workload/builders.h"
#include "workload/marginal_workloads.h"
#include "workload/range_workloads.h"

namespace dpmm {
namespace {

using linalg::Vector;
using optimize::Design;
using optimize::DesignOptions;
using optimize::EngineSelection;
using serialize::DecodeStrategyArtifact;
using serialize::EncodeStrategyArtifact;
using serialize::StrategyArtifact;

ExplicitWorkload Fig1Workload() {
  return ExplicitWorkload(Domain({2, 4}), builders::Fig1Matrix(), "Fig1");
}

Vector RandomData(std::size_t n, std::uint64_t seed) {
  Vector x(n);
  Rng rng(seed);
  for (auto& v : x) v = static_cast<double>(rng.UniformInt(100));
  return x;
}

// ---- Engine decision rule

TEST(Design, EngineOverridesAreHonoredAndValidated) {
  AllRangeWorkload structured(Domain({4, 4}));
  DesignOptions dense_options;
  dense_options.engine = EngineSelection::kDense;
  auto forced_dense = Design(structured, dense_options);
  ASSERT_TRUE(forced_dense.ok());
  EXPECT_EQ(forced_dense.ValueOrDie().engine, StrategyEngine::kDense);

  ExplicitWorkload unstructured = Fig1Workload();
  DesignOptions kron_options;
  kron_options.engine = EngineSelection::kKron;
  auto impossible = Design(unstructured, kron_options);
  ASSERT_FALSE(impossible.ok());
  EXPECT_EQ(impossible.status().code(), StatusCode::kInvalidArgument);
}

// Two designs are the same when their certificates and their explicit
// strategy matrices match bit for bit.
void ExpectSameDesign(const optimize::DesignResult& a,
                      const optimize::DesignResult& b) {
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.strategy->engine(), a.engine);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.predicted_objective, b.predicted_objective);
  EXPECT_EQ(a.duality_gap, b.duality_gap);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
  EXPECT_TRUE(a.strategy->Materialize().matrix() ==
              b.strategy->Materialize().matrix());
}

// Auto picks kron for structured workloads and dense for explicit ones, and
// either way Design(w) is Design of the workload's own eigendecomposition.
TEST(Design, WorkloadOverloadMatchesTheSpectrumOverloads) {
  AllRangeWorkload structured(Domain({4, 5}));
  auto via_workload = Design(structured);
  auto via_spectrum = Design(*structured.ImplicitEigen());
  ASSERT_TRUE(via_workload.ok());
  ASSERT_TRUE(via_spectrum.ok());
  EXPECT_EQ(via_workload.ValueOrDie().engine, StrategyEngine::kKron);
  ExpectSameDesign(via_workload.ValueOrDie(), via_spectrum.ValueOrDie());

  ExplicitWorkload fig1 = Fig1Workload();
  auto dense = Design(fig1);
  auto dense_spectrum =
      Design(linalg::SymmetricEigen(fig1.Gram()).ValueOrDie());
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(dense_spectrum.ok());
  EXPECT_EQ(dense.ValueOrDie().engine, StrategyEngine::kDense);
  ExpectSameDesign(dense.ValueOrDie(), dense_spectrum.ValueOrDie());
}

TEST(Design, SpectrumOverloadsRejectTheOtherEngine) {
  AllRangeWorkload w(Domain({3, 4}));
  const auto kron_eigen = *w.ImplicitEigen();
  const auto dense_eigen = linalg::SymmetricEigen(w.Gram()).ValueOrDie();
  DesignOptions dense, kron;
  dense.engine = EngineSelection::kDense;
  kron.engine = EngineSelection::kKron;
  EXPECT_EQ(Design(kron_eigen, dense).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Design(dense_eigen, kron).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(Design(dense_eigen, dense).ok());
  EXPECT_TRUE(Design(kron_eigen, kron).ok());
}

// Column j of the materialized matrix is A e_j, on either engine.
void ExpectMaterializeMatchesApply(const LinearStrategy& a) {
  const Strategy dense = a.Materialize();
  const linalg::Matrix& m = dense.matrix();
  ASSERT_EQ(m.rows(), a.num_queries());
  ASSERT_EQ(m.cols(), a.num_cells());
  EXPECT_EQ(dense.name(), a.name());
  for (std::size_t j = 0; j < a.num_cells(); ++j) {
    Vector unit(a.num_cells(), 0.0);
    unit[j] = 1.0;
    const Vector column = a.Apply(unit);
    for (std::size_t i = 0; i < m.rows(); ++i) {
      EXPECT_NEAR(m(i, j), column[i], 1e-12) << "entry " << i << "," << j;
    }
  }
}

TEST(Design, MaterializeMatchesApplyOnBothEngines) {
  auto kron = Design(AllRangeWorkload(Domain({3, 4})));
  ASSERT_TRUE(kron.ok());
  ASSERT_EQ(kron.ValueOrDie().engine, StrategyEngine::kKron);
  ExpectMaterializeMatchesApply(*kron.ValueOrDie().strategy);

  auto dense = Design(Fig1Workload());
  ASSERT_TRUE(dense.ok());
  ASSERT_EQ(dense.ValueOrDie().engine, StrategyEngine::kDense);
  ExpectMaterializeMatchesApply(*dense.ValueOrDie().strategy);
}

TEST(Design, ParseEngineSelectionIsStrict) {
  EXPECT_EQ(optimize::ParseEngineSelection("auto"), EngineSelection::kAuto);
  EXPECT_EQ(optimize::ParseEngineSelection("dense"), EngineSelection::kDense);
  EXPECT_EQ(optimize::ParseEngineSelection("kron"), EngineSelection::kKron);
  EXPECT_FALSE(optimize::ParseEngineSelection("Kron").has_value());
  EXPECT_FALSE(optimize::ParseEngineSelection("").has_value());
  EXPECT_FALSE(optimize::ParseEngineSelection("implicit").has_value());
}

// ---- Bit-identity of the Mechanism vs Prop. 3 written out by hand

// y = A x + N(0, sigma^2) drawn row by row, the noise every release adds.
Vector NoisyAnswers(const LinearStrategy& a, const Vector& x, double sigma,
                    Rng* rng) {
  Vector y = a.Apply(x);
  for (auto& v : y) v += rng->Gaussian(sigma);
  return y;
}

// x_hat = (A^T A)^{-1} A^T y through an explicit Cholesky of the Gram
// matrix — independent of the strategy's own cached factorization.
Vector ReferenceDenseRelease(const Strategy& a, const Vector& x, double sigma,
                             Rng* rng) {
  const Vector y = NoisyAnswers(a, x, sigma, rng);
  const auto chol = linalg::Cholesky::Factor(a.Gram());
  EXPECT_TRUE(chol.ok()) << "reference needs a full-rank strategy";
  return chol.ValueOrDie().Solve(linalg::MatTVec(a.matrix(), y));
}

Vector ReferenceKronRelease(const KronStrategy& a, const Vector& x,
                            double sigma, Rng* rng) {
  const Vector y = NoisyAnswers(a, x, sigma, rng);
  return a.SolveNormal(a.ApplyT(y));
}

TEST(Mechanism, DenseReleaseByteIdenticalToProp3Reference) {
  // A forced-dense all-range design: completed to full rank, so the
  // reference's Cholesky applies.
  AllRangeWorkload w(Domain({3, 4}));
  const PrivacyParams budget{0.5, 1e-4};
  const Vector x = RandomData(w.num_cells(), 99);

  DesignOptions dense_options;
  dense_options.engine = EngineSelection::kDense;
  auto design = Design(w, dense_options);
  ASSERT_TRUE(design.ok());
  const auto& strategy =
      dynamic_cast<const Strategy&>(*design.ValueOrDie().strategy);
  auto mech = Mechanism::Prepare(design.ValueOrDie().strategy, budget);
  ASSERT_TRUE(mech.ok());
  const Mechanism& m = mech.ValueOrDie();
  EXPECT_EQ(m.engine(), StrategyEngine::kDense);
  const double sigma = GaussianNoiseScale(budget, strategy.L2Sensitivity());
  EXPECT_EQ(m.noise_scale(), sigma);

  // Same seed, same bytes — estimate, workload answers, and batches.
  Rng ref_rng(42), rng(42);
  EXPECT_EQ(ReferenceDenseRelease(strategy, x, sigma, &ref_rng),
            m.Release(x, &rng));
  EXPECT_EQ(w.Answer(ReferenceDenseRelease(strategy, x, sigma, &ref_rng)),
            m.Run(w, x, &rng));

  Rng ref_batch_rng(7), batch_rng(7);
  std::vector<Vector> reference;
  for (int b = 0; b < 3; ++b) {
    reference.push_back(
        ReferenceDenseRelease(strategy, x, sigma, &ref_batch_rng));
  }
  EXPECT_EQ(reference, m.ReleaseBatch(x, 3, &batch_rng));
  EXPECT_EQ(ref_batch_rng.NextU64(), batch_rng.NextU64());
}

TEST(Mechanism, KronReleaseByteIdenticalToProp3Reference) {
  AllRangeWorkload w(Domain({4, 4}));
  const PrivacyParams budget{0.5, 1e-4};
  const Vector x = RandomData(w.num_cells(), 99);

  auto design = Design(w);
  ASSERT_TRUE(design.ok());
  const auto& strategy =
      dynamic_cast<const KronStrategy&>(*design.ValueOrDie().strategy);
  auto mech = Mechanism::Prepare(design.ValueOrDie().strategy, budget);
  ASSERT_TRUE(mech.ok());
  const Mechanism& m = mech.ValueOrDie();
  EXPECT_EQ(m.engine(), StrategyEngine::kKron);
  const double sigma = GaussianNoiseScale(budget, strategy.L2Sensitivity());
  EXPECT_EQ(m.noise_scale(), sigma);

  Rng ref_rng(42), rng(42);
  EXPECT_EQ(ReferenceKronRelease(strategy, x, sigma, &ref_rng),
            m.Release(x, &rng));
  EXPECT_EQ(w.Answer(ReferenceKronRelease(strategy, x, sigma, &ref_rng)),
            m.Run(w, x, &rng));

  Rng ref_batch_rng(7), batch_rng(7);
  std::vector<Vector> reference;
  for (int b = 0; b < 3; ++b) {
    reference.push_back(
        ReferenceKronRelease(strategy, x, sigma, &ref_batch_rng));
  }
  EXPECT_EQ(reference, m.ReleaseBatch(x, 3, &batch_rng));
  EXPECT_EQ(ref_batch_rng.NextU64(), batch_rng.NextU64());
}

TEST(Mechanism, PrepareRejectsNullStrategy) {
  auto mech = Mechanism::Prepare(nullptr, PrivacyParams{0.5, 1e-4});
  ASSERT_FALSE(mech.ok());
  EXPECT_EQ(mech.status().code(), StatusCode::kInvalidArgument);
}

// The dense QueryErrorProfile must reproduce the formula
// sigma * sqrt(w_q (A^T A)^{-1} w_q^T) computed through an explicit Cholesky
// of the Gram matrix, bit for bit — error bars and releases share one
// factorization.
TEST(QueryErrorProfile, DenseEngineMatchesExplicitCholeskyFormula) {
  ExplicitWorkload w = Fig1Workload();
  const PrivacyParams budget{0.5, 1e-4};
  DesignOptions dense_options;
  dense_options.engine = EngineSelection::kDense;
  auto design = Design(AllRangeWorkload(w.domain()), dense_options);
  ASSERT_TRUE(design.ok());
  const auto& strategy =
      dynamic_cast<const Strategy&>(*design.ValueOrDie().strategy);
  const Vector profile = release::QueryErrorProfile(w, strategy, budget);
  const double sigma = GaussianNoiseScale(budget, strategy.L2Sensitivity());
  const auto chol = linalg::Cholesky::Factor(strategy.Gram());
  ASSERT_TRUE(chol.ok());
  const linalg::Matrix& wm = *w.matrix();
  ASSERT_EQ(profile.size(), wm.rows());
  for (std::size_t q = 0; q < wm.rows(); ++q) {
    const Vector wq = wm.Row(q);
    const Vector gw = chol.ValueOrDie().Solve(wq);
    const double expected =
        sigma * std::sqrt(std::max(0.0, linalg::Dot(wq, gw)));
    EXPECT_EQ(profile[q], expected) << "query " << q;
  }
}

// The Fig. 1 design is rank deficient, so its error bars take the
// minimum-norm path: sigma * sqrt(w_q A^+ A^+T w_q^T) with A^+ computed here
// from the strategy matrix. The older (A^T A)^+ = PseudoInverse(Gram())
// formula agrees to rounding on this well-scaled strategy.
TEST(QueryErrorProfile, RankDeficientDenseEngineMatchesExplicitPinvFormula) {
  ExplicitWorkload w = Fig1Workload();
  const PrivacyParams budget{0.5, 1e-4};
  auto design = Design(w);
  ASSERT_TRUE(design.ok());
  const auto& strategy =
      dynamic_cast<const Strategy&>(*design.ValueOrDie().strategy);
  ASSERT_LT(design.ValueOrDie().rank, w.num_cells());
  ASSERT_FALSE(linalg::Cholesky::Factor(strategy.Gram()).ok());

  const Vector profile = release::QueryErrorProfile(w, strategy, budget);
  const double sigma = GaussianNoiseScale(budget, strategy.L2Sensitivity());
  const linalg::Matrix pinv = linalg::PseudoInverse(strategy.matrix());
  const linalg::Matrix gram_pinv = linalg::MatMulNT(pinv, pinv);
  const linalg::Matrix squared_pinv = linalg::PseudoInverse(strategy.Gram());
  const linalg::Matrix& wm = *w.matrix();
  ASSERT_EQ(profile.size(), wm.rows());
  for (std::size_t q = 0; q < wm.rows(); ++q) {
    const Vector wq = wm.Row(q);
    const double expected =
        sigma * std::sqrt(std::max(
                    0.0, linalg::Dot(wq, linalg::MatVec(gram_pinv, wq))));
    EXPECT_EQ(profile[q], expected) << "query " << q;
    const double squared =
        sigma * std::sqrt(std::max(
                    0.0, linalg::Dot(wq, linalg::MatVec(squared_pinv, wq))));
    EXPECT_NEAR(profile[q], squared, 1e-9 * squared) << "query " << q;
    EXPECT_GT(profile[q], 0.0) << "query " << q;
  }
}

// ReleaseBatch over a dense strategy: x_hats match sequential per-budget
// Mechanism releases byte for byte, and error profiles match
// per-budget QueryErrorProfile — including an uneven budget split.
TEST(ReleaseBatch, DenseEngineMatchesSequentialReleases) {
  ExplicitWorkload w = Fig1Workload();
  auto design = Design(w);
  ASSERT_TRUE(design.ok());
  const auto& strategy = *design.ValueOrDie().strategy;
  const Vector x = RandomData(w.num_cells(), 3);
  const std::vector<PrivacyParams> budgets =
      release::SplitBudget({1.0, 2e-4}, {1.0, 2.0, 1.0});

  Rng batch_rng(11);
  const release::BatchReleaseResult batch =
      release::ReleaseBatch(strategy, x, budgets, &batch_rng, &w);
  ASSERT_EQ(batch.x_hats.size(), budgets.size());
  ASSERT_EQ(batch.error_profiles.size(), budgets.size());

  Rng seq_rng(11);
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    auto mech = Mechanism::Prepare(design.ValueOrDie().strategy, budgets[b]);
    ASSERT_TRUE(mech.ok());
    EXPECT_EQ(batch.x_hats[b], mech.ValueOrDie().Release(x, &seq_rng))
        << "release " << b;
    EXPECT_EQ(batch.error_profiles[b],
              release::QueryErrorProfile(w, strategy, budgets[b]))
        << "profile " << b;
  }
  EXPECT_EQ(batch_rng.NextU64(), seq_rng.NextU64());
}

// ---- Dense artifact kind (format v2)

StrategyArtifact DenseArtifact(const ExplicitWorkload& w,
                               const std::string& spec) {
  auto design = Design(w);
  EXPECT_TRUE(design.ok()) << design.status().ToString();
  auto& d = design.ValueOrDie();
  EXPECT_EQ(d.engine, StrategyEngine::kDense);
  StrategyArtifact artifact;
  artifact.signature = spec;
  artifact.domain_sizes = w.domain().sizes();
  artifact.strategy = d.strategy;
  artifact.solver_report = d.solver_report;
  artifact.duality_gap = d.duality_gap;
  artifact.rank = d.rank;
  return artifact;
}

TEST(DenseArtifact, SaveLoadSaveIsByteStable) {
  const StrategyArtifact artifact = DenseArtifact(Fig1Workload(), "fig1@2,4");
  const std::string bytes = EncodeStrategyArtifact(artifact);
  auto decoded = DecodeStrategyArtifact(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().engine(), StrategyEngine::kDense);
  EXPECT_EQ(EncodeStrategyArtifact(decoded.ValueOrDie()), bytes);
}

TEST(DenseArtifact, LoadedStrategyBehavesIdentically) {
  const StrategyArtifact artifact = DenseArtifact(Fig1Workload(), "fig1@2,4");
  auto decoded = DecodeStrategyArtifact(EncodeStrategyArtifact(artifact));
  ASSERT_TRUE(decoded.ok());
  const auto& original =
      dynamic_cast<const Strategy&>(*artifact.strategy);
  const auto& loaded =
      dynamic_cast<const Strategy&>(*decoded.ValueOrDie().strategy);
  EXPECT_EQ(loaded.matrix(), original.matrix());
  EXPECT_EQ(loaded.name(), original.name());
  EXPECT_EQ(loaded.L2Sensitivity(), original.L2Sensitivity());
  const Vector x = RandomData(original.num_cells(), 5);
  EXPECT_EQ(loaded.Apply(x), original.Apply(x));
  EXPECT_EQ(loaded.SolveNormal(x), original.SolveNormal(x));
  EXPECT_EQ(decoded.ValueOrDie().duality_gap, artifact.duality_gap);
  EXPECT_EQ(decoded.ValueOrDie().rank, artifact.rank);
}

TEST(DenseArtifact, FileRoundTrip) {
  const StrategyArtifact artifact = DenseArtifact(Fig1Workload(), "fig1@2,4");
  const std::string path = ::testing::TempDir() + "/dpmm_dense.strategy";
  ASSERT_TRUE(serialize::SaveStrategyArtifact(artifact, path).ok());
  auto loaded = serialize::LoadStrategyArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(EncodeStrategyArtifact(loaded.ValueOrDie()),
            EncodeStrategyArtifact(artifact));
  std::remove(path.c_str());
}

TEST(DenseArtifact, TruncationRejectedAtEveryLength) {
  const std::string bytes =
      EncodeStrategyArtifact(DenseArtifact(Fig1Workload(), "fig1@2,4"));
  // Every strict prefix must fail cleanly (never crash, never succeed).
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = DecodeStrategyArtifact(bytes.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(DenseArtifact, CorruptionAndTrailingBytesRejected) {
  const std::string bytes =
      EncodeStrategyArtifact(DenseArtifact(Fig1Workload(), "fig1@2,4"));
  std::string corrupt = bytes;
  corrupt[bytes.size() - 3] ^= 0x40;
  auto flipped = DecodeStrategyArtifact(corrupt);
  ASSERT_FALSE(flipped.ok());
  EXPECT_NE(flipped.status().message().find("checksum"), std::string::npos);
  std::string trailing = bytes;
  trailing += '\0';
  ASSERT_FALSE(DecodeStrategyArtifact(trailing).ok());
}

TEST(DenseArtifact, EngineTagOutOfRangeRejected) {
  // The engine tag sits right after the signature and domain sizes; patch
  // it through a re-encode of hand-built container bytes instead: simplest
  // is to corrupt via the public API — encode, locate the tag by decoding
  // incrementally is brittle, so instead build an artifact whose payload we
  // control end to end.
  const StrategyArtifact artifact = DenseArtifact(Fig1Workload(), "x@2,4");
  std::string bytes = EncodeStrategyArtifact(artifact);
  // Payload layout: u64 siglen + sig + u64 nsizes + 2*u64 + u32 engine.
  const std::size_t header = 8 + 4 + 4 + 8 + 8;
  const std::size_t tag_pos = header + 8 + 5 + 8 + 16;
  ASSERT_LT(tag_pos + 4, bytes.size());
  bytes[tag_pos] = 9;  // engine 9 does not exist
  // Fix the checksum (header bytes 24..31) so the tag check itself is
  // exercised rather than the checksum guard.
  const std::uint64_t checksum =
      serialize::Fnv1a64(bytes.data() + header, bytes.size() - header);
  for (int i = 0; i < 8; ++i) {
    bytes[24 + i] = static_cast<char>(checksum >> (8 * i));
  }
  auto decoded = DecodeStrategyArtifact(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("engine"), std::string::npos)
      << decoded.status().message();
}

// A never-populated strategy field is representable since the shared_ptr
// migration; the Status-returning save path must reject it cleanly (the
// raw encoder CHECKs as a backstop).
TEST(DenseArtifact, NullStrategyIsARecoverableError) {
  StrategyArtifact artifact;
  artifact.signature = "x@4";
  artifact.domain_sizes = {4};
  const std::string path = ::testing::TempDir() + "/dpmm_null.strategy";
  Status st = serialize::SaveStrategyArtifact(artifact, path);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// A crafted dense artifact whose u64 row count makes rows * cols wrap to a
// tiny value must fail with a clean Status, not write past an undersized
// allocation (the guard has to divide, not multiply). Truncation property
// tests cannot catch this — it needs a forged length field, not a prefix.
TEST(DenseArtifact, RowCountOverflowLengthBombRejected) {
  StrategyArtifact artifact;
  artifact.signature = "x@4";
  artifact.domain_sizes = {4};
  linalg::Matrix m(2, 4);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 4; ++j) m(i, j) = 1.0;
  }
  artifact.strategy = std::make_shared<Strategy>(std::move(m), "nm");
  std::string bytes = EncodeStrategyArtifact(artifact);

  // Payload: u64 siglen + "x@4" + u64 nsizes + u64 + u32 engine +
  // u64 namelen + "nm" + u64 rows.
  const std::size_t header = 8 + 4 + 4 + 8 + 8;
  const std::size_t rows_pos = header + (8 + 3) + (8 + 8) + 4 + (8 + 2);
  ASSERT_LT(rows_pos + 8, bytes.size());
  const std::uint64_t bomb = std::uint64_t{1} << 61;  // bomb * 8 wraps to 0
  for (int i = 0; i < 8; ++i) {
    bytes[rows_pos + i] = static_cast<char>(bomb >> (8 * i));
  }
  const std::uint64_t checksum =
      serialize::Fnv1a64(bytes.data() + header, bytes.size() - header);
  for (int i = 0; i < 8; ++i) {
    bytes[24 + i] = static_cast<char>(checksum >> (8 * i));
  }
  auto decoded = DecodeStrategyArtifact(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("dimensions"), std::string::npos)
      << decoded.status().message();
}

// ---- v1 compatibility

TEST(ArtifactCompat, V1KronStrategyArtifactStillLoads) {
  AllRangeWorkload w(Domain({4, 4}));
  auto design = Design(w);
  ASSERT_TRUE(design.ok());
  StrategyArtifact artifact;
  artifact.signature = "allrange@4,4";
  artifact.domain_sizes = w.domain().sizes();
  artifact.strategy = design.ValueOrDie().strategy;
  artifact.solver_report = design.ValueOrDie().solver_report;
  artifact.duality_gap = design.ValueOrDie().duality_gap;
  artifact.rank = design.ValueOrDie().rank;

  const std::string v1_bytes =
      serialize::internal::EncodeStrategyArtifactV1(artifact);
  auto decoded = DecodeStrategyArtifact(v1_bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const StrategyArtifact& loaded = decoded.ValueOrDie();
  EXPECT_EQ(loaded.engine(), StrategyEngine::kKron);
  EXPECT_EQ(loaded.signature, artifact.signature);
  EXPECT_EQ(loaded.duality_gap, artifact.duality_gap);

  // The v1-loaded strategy behaves bit-identically to the original.
  const Vector x = RandomData(w.num_cells(), 5);
  EXPECT_EQ(loaded.strategy->Apply(x), artifact.strategy->Apply(x));
  EXPECT_EQ(loaded.strategy->SolveNormal(x), artifact.strategy->SolveNormal(x));

  // v1 truncation is rejected at every prefix too — the compat path keeps
  // the strictness contract.
  for (std::size_t len = 0; len < v1_bytes.size(); len += 9) {
    ASSERT_FALSE(DecodeStrategyArtifact(v1_bytes.substr(0, len)).ok());
  }

  // Re-encoding writes the current version; the upgrade round-trips.
  const std::string v2_bytes = EncodeStrategyArtifact(loaded);
  auto upgraded = DecodeStrategyArtifact(v2_bytes);
  ASSERT_TRUE(upgraded.ok());
  EXPECT_EQ(upgraded.ValueOrDie().strategy->Apply(x),
            artifact.strategy->Apply(x));
}

TEST(ArtifactCompat, V1ReleaseArtifactStillLoads) {
  serialize::ReleaseArtifact rel;
  rel.signature = "allrange@4,4";
  rel.domain_sizes = {4, 4};
  rel.budget = {0.25, 5e-5};
  rel.dataset = "hist.csv";
  rel.seed = 42;
  rel.batch_index = 3;
  rel.x_hat = RandomData(16, 7);
  // The release payload was identical in v1 and v2 (the version field,
  // header, not checksummed, was the only difference); v3 appended the
  // supersession link, so the legacy encoder plus a version-byte patch
  // reproduces genuine v1 bytes.
  std::string bytes = serialize::internal::EncodeReleaseArtifactV2(rel);
  bytes[8] = 1;
  auto decoded = serialize::DecodeReleaseArtifact(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().x_hat, rel.x_hat);
  // Unknown future versions stay rejected.
  bytes[8] = 4;
  EXPECT_FALSE(serialize::DecodeReleaseArtifact(bytes).ok());
}

// ---- strategy_io on the dense artifact kind

TEST(StrategyIoPort, BinaryRoundTripIsExact) {
  auto design = Design(Fig1Workload());
  ASSERT_TRUE(design.ok());
  const auto& original =
      dynamic_cast<const Strategy&>(*design.ValueOrDie().strategy);
  const std::string path = ::testing::TempDir() + "/dpmm_io_port.strategy";
  ASSERT_TRUE(strategy_io::SaveStrategy(original, path).ok());

  // The file is a binary artifact now, not the legacy text format.
  std::ifstream probe(path, std::ios::binary);
  char magic[8] = {0};
  probe.read(magic, sizeof(magic));
  EXPECT_EQ(std::memcmp(magic, "DPMMARTF", 8), 0);

  auto loaded = strategy_io::LoadStrategy(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().matrix(), original.matrix());
  EXPECT_EQ(loaded.ValueOrDie().name(), original.name());
  std::remove(path.c_str());
}

TEST(StrategyIoPort, TextFilesRejected) {
  // The pre-artifact text format is not read: a text matrix file is an
  // IoError, not a strategy.
  const std::string path = ::testing::TempDir() + "/dpmm_io_text.txt";
  {
    std::ofstream out(path);
    out << "# dpmm-strategy text 2 3\n";
    out << "1 0.5 0\n";
    out << "0 -0.25 1\n";
  }
  auto loaded = strategy_io::LoadStrategy(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(StrategyIoPort, GarbageAndDamagedArtifactsRejected) {
  const std::string path = ::testing::TempDir() + "/dpmm_io_bad.bin";
  {
    std::ofstream out(path);
    out << "not an artifact\n";
  }
  EXPECT_FALSE(strategy_io::LoadStrategy(path).ok());
  {
    // Starts with the artifact magic but is truncated: the artifact
    // decode error.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "DPMMARTF\x02";
  }
  auto damaged = strategy_io::LoadStrategy(path);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dpmm
