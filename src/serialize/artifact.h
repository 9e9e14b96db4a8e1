// Versioned, checksummed binary artifacts for the store-and-serve pipeline.
// Strategy selection is the expensive step and is database-independent
// (Sec. 1 of the paper); a release is one noisy estimate plus its budget.
// Persisting both turns the one-shot mechanism into "design once, serve
// many": the eigen-design is paid once per (domain, workload) and every
// later process answers ad-hoc queries from the stored release.
//
// Container layout (all integers little-endian, doubles as IEEE-754 bit
// patterns — encoding the same artifact twice yields identical bytes):
//
//   bytes 0..7   magic "DPMMARTF"
//   u32          format version (kArtifactVersion)
//   u32          kind (1 = strategy, 2 = release)
//   u64          payload size in bytes
//   u64          FNV-1a 64 checksum of the payload
//   payload      kind-specific fields (see EncodeStrategyArtifact /
//                EncodeReleaseArtifact in the .cc)
//
// Strategies are engine-polymorphic: the strategy payload carries an
// engine tag (1 = kron, 2 = dense) followed by the engine's representation
// — the implicit Kronecker form (basis factors, kept columns, weights,
// completion rows) or the explicit dense matrix — so every strategy the
// design layer can produce is storable and servable. The release payload
// carries a supersession field (the id of the prior same-provenance
// release this one replaces, written by the sharded store so its
// compactor can drop superseded artifacts). Encoders write, and decoders
// accept, only the current version (3); any other version is an error.
//
// Decoding is strict: wrong magic, unsupported version, a checksum
// mismatch, truncation, trailing bytes, or payload fields that violate the
// strategy invariants all return a Status error — a corrupted artifact
// can never reach a DPMM_CHECK abort or, worse, a silently wrong strategy.
#ifndef DPMM_SERIALIZE_ARTIFACT_H_
#define DPMM_SERIALIZE_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "domain/domain.h"
#include "mechanism/privacy.h"
#include "optimize/dual_solver.h"
#include "strategy/kron_strategy.h"
#include "strategy/linear_strategy.h"
#include "strategy/strategy.h"
#include "util/status.h"

namespace dpmm {
namespace serialize {

/// Artifact format version; bump on any layout change. Decoders accept this
/// version only and reject everything else outright (no best-effort reads
/// of older or future layouts).
constexpr std::uint32_t kArtifactVersion = 3;

/// FNV-1a 64-bit hash — the artifact checksum and the store's key hash.
std::uint64_t Fnv1a64(const void* data, std::size_t size);
std::uint64_t Fnv1a64(const std::string& s);

/// A designed strategy with everything a serving process needs to reuse it:
/// the strategy itself behind the engine-agnostic interface (the implicit
/// Kronecker form or the explicit dense matrix) plus the Program-1
/// convergence certificate that was achieved when it was designed.
struct StrategyArtifact {
  /// Canonical (domain, workload) descriptor, e.g. "allrange@8,16,16" —
  /// the store key is derived from this string (serve::StoreKey).
  std::string signature;
  std::vector<std::size_t> domain_sizes;
  /// Shared and immutable so one loaded artifact serves concurrent readers.
  /// Must be a KronStrategy or Strategy to be encodable.
  std::shared_ptr<const LinearStrategy> strategy;
  /// Program-1 diagnostics at design time (trajectory not persisted).
  optimize::SolverReport solver_report;
  /// The certified relative duality gap of the design.
  double duality_gap = 0;
  std::size_t rank = 0;

  StrategyEngine engine() const {
    return strategy == nullptr ? StrategyEngine::kDense : strategy->engine();
  }
};

/// One stored private release: the least-squares estimate x_hat, the budget
/// it consumed, and its provenance (dataset label, rng seed, batch index).
/// x_hat is post-processing output — persisting it consumes no additional
/// privacy budget.
struct ReleaseArtifact {
  std::string signature;  // strategy signature this release was drawn under
  std::vector<std::size_t> domain_sizes;
  PrivacyParams budget;
  /// Provenance: the dataset label the ledger charged, the rng seed of the
  /// run, and this release's index within its batch.
  std::string dataset;
  std::uint64_t seed = 0;
  std::uint64_t batch_index = 0;
  /// Supersession: the store id of the prior release with the same
  /// (signature, dataset) provenance that this release replaces, offset by
  /// one so 0 means "supersedes nothing" (ids start at 0). Filled in by
  /// ReleaseStore::Put on sharded stores; the shard manifest carries the
  /// same fact for the compactor, this field makes the artifact
  /// self-describing without its manifest.
  std::uint64_t supersedes_plus1 = 0;
  linalg::Vector x_hat;

  bool has_supersedes() const { return supersedes_plus1 != 0; }
  std::uint64_t supersedes() const { return supersedes_plus1 - 1; }
};

/// Encode to the container format (deterministic: equal artifacts yield
/// equal bytes, which is what makes save -> load -> save byte-stable).
std::string EncodeStrategyArtifact(const StrategyArtifact& artifact);
std::string EncodeReleaseArtifact(const ReleaseArtifact& artifact);

/// Strict decode; every malformed input is a Status error, never a crash.
[[nodiscard]] Result<StrategyArtifact> DecodeStrategyArtifact(const std::string& bytes);
[[nodiscard]] Result<ReleaseArtifact> DecodeReleaseArtifact(const std::string& bytes);

/// File round-trip (encode/decode plus whole-file I/O).
[[nodiscard]] Status SaveStrategyArtifact(const StrategyArtifact& artifact,
                            const std::string& path);
[[nodiscard]] Result<StrategyArtifact> LoadStrategyArtifact(const std::string& path);
[[nodiscard]] Status SaveReleaseArtifact(const ReleaseArtifact& artifact,
                           const std::string& path);
[[nodiscard]] Result<ReleaseArtifact> LoadReleaseArtifact(const std::string& path);

}  // namespace serialize
}  // namespace dpmm

#endif  // DPMM_SERIALIZE_ARTIFACT_H_
