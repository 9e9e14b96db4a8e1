// On-disk artifact registry for the store-and-serve pipeline. Strategies are
// keyed by the canonical (domain, workload) signature; releases hang off the
// same key with a monotonically assigned numeric id. Two generations of
// layout exist (serve/store_layout.h):
//
//   v1 (flat)     <root>/strategies/<key>.strategy
//                 <root>/releases/<key>/<id>.release
//
//   v2 (sharded)  <root>/store.layout
//                 <root>/shard-<k>/strategies/<key>.strategy
//                 <root>/shard-<k>/releases/<key>/<id>.release
//                 <root>/shard-<k>/manifest.wal     live/superseded/tombstone
//                 <root>/shard-<k>/shard.lock       flock(2) writer exclusion
//
// plus <root>/ledger/<dataset-key>.ledger (serve/budget_ledger.h) in both.
// Keys are placed on shards by consistent hashing; a sharded layout over a
// root that still holds v1 files serves both (reads fall through to the
// flat paths) until `dpmm_cli store compact` re-homes them. Everything is
// plain files, so a store can be rsynced, inspected and backed up with
// ordinary tools.
//
// <key> is the 16-hex-digit FNV-1a hash of the signature; the signature
// itself is stored inside every artifact and verified on load, so a hash
// collision (or a renamed file) is detected instead of silently serving the
// wrong strategy. Loads go through a bounded in-memory LRU cache
// (util/lru_cache.h): a serving process pays the disk read and decode once
// per hot artifact and shares the immutable object across readers; cold
// entries are re-read on demand, so memory stays fixed no matter how many
// artifacts the store holds.
//
// Sharded writes follow the WAL discipline: take the shard's file lock,
// write the artifact durably (WriteViaRename), append the manifest record
// (fsync'd before the write is acknowledged), release. A release that
// replaces a prior release of the same (signature, dataset, batch slot) is
// recorded as superseding it; superseded and tombstoned artifacts stay
// readable until CompactStore() deletes their files and rewrites each
// shard's manifest as a live-only snapshot.
#ifndef DPMM_SERVE_STORE_H_
#define DPMM_SERVE_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serialize/artifact.h"
#include "serve/file_lock.h"
#include "serve/fs_ops.h"
#include "serve/store_layout.h"
#include "util/mutex.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace dpmm {
namespace serve {

namespace internal {

/// mkdir -p: creates every component of `path` (POSIX). Shared by the
/// store and the budget ledger.
[[nodiscard]] Status EnsureDir(const std::string& path);

/// Writes a file atomically *and durably*: temp file in the destination
/// directory, fsync the temp file, rename over the target, fsync the
/// containing directory. A concurrent reader never observes a half-written
/// file, and once this returns OK a crash cannot roll the content back —
/// without the two fsyncs, rename-only "atomicity" still loses the file on
/// real filesystems when power dies before write-back. Ops go through `fs`
/// (default: the real filesystem) so crash schedules are injectable.
[[nodiscard]] Status WriteViaRename(const std::string& path, const std::string& bytes,
                      FsOps* fs = nullptr);

}  // namespace internal

/// Canonical signature of a (workload spec, domain) pair, e.g.
/// "allrange@8,16,16". Same spec + same domain => same signature; this is
/// the identity under which design cost is paid once and reused forever.
std::string CanonicalSignature(const std::string& workload_spec,
                               const Domain& domain);

/// The filename-safe store key of a signature (16 hex digits of FNV-1a 64).
std::string StoreKey(const std::string& signature);

/// How a store opens its root. The defaults reproduce the v1 behavior
/// exactly: flat layout (unless the root is already pinned sharded), the
/// real filesystem, modest caches.
struct StoreOptions {
  /// Shard count to open with. 0 = respect whatever the root already is
  /// (pinned sharded or flat); a nonzero count shards a fresh/flat root on
  /// first write, and conflicts with a different pinned count as
  /// InvalidArgument.
  std::size_t shards = 0;
  /// Filesystem seam; nullptr = the real filesystem.
  FsOps* fs = nullptr;
  /// LRU capacities (entries, not bytes) of the load-once caches.
  std::size_t strategy_cache_capacity = 64;
  std::size_t release_cache_capacity = 256;
  /// Shard-lock acquisition policy (timeout -> Status::Unavailable).
  FileLockOptions lock;
};

/// Registry of designed strategies, one per signature.
class StrategyStore {
 public:
  explicit StrategyStore(std::string root) : StrategyStore(std::move(root), {}) {}
  StrategyStore(std::string root, const StoreOptions& options);

  const std::string& root() const { return root_; }

  /// Persists the artifact under its signature's key (creating the store
  /// directories as needed) and refreshes the cache. Overwrites an existing
  /// strategy for the same signature. On a sharded store the write lands in
  /// the owning shard, under its lock, with a manifest record.
  [[nodiscard]] Status Put(const serialize::StrategyArtifact& artifact);

  /// Loads the strategy for a signature — from the cache while it stays
  /// hot. NotFound when no strategy is stored for it. On a migrating store
  /// a shard miss falls through to the flat v1 path.
  [[nodiscard]] Result<std::shared_ptr<const serialize::StrategyArtifact>> Get(
      const std::string& signature);

  /// True when a strategy file exists for the signature (no decode).
  bool Contains(const std::string& signature) const;

  std::size_t cache_size() const;
  std::uint64_t cache_evictions() const;

 private:
  Status EnsureLayoutLocked() const DPMM_REQUIRES(mu_);

  std::string root_;
  FsOps* fs_;
  std::size_t requested_shards_;
  FileLockOptions lock_options_;
  // Lock-discipline audit (lazy-init site 3/3): unlike the call_once
  // variants (dense Gram factorization, Kron eigenbasis), the load-once
  // caches here are *mutable* after first load (LRU insert/evict on every
  // miss), so once-semantics cannot express them — they stay on a real
  // Mutex with full annotations instead of a suppression.
  // Guards the lazily resolved layout and the load-once artifact cache;
  // never held across file IO (callers snapshot the layout, drop the lock
  // for the read/write, and re-take it to publish into the cache).
  mutable Mutex mu_{LockRank::kStrategyStoreCache};
  mutable std::optional<StoreLayout> layout_ DPMM_GUARDED_BY(mu_);
  mutable Status layout_status_ DPMM_GUARDED_BY(mu_);
  mutable util::LruCache<std::string,
                         std::shared_ptr<const serialize::StrategyArtifact>>
      cache_ DPMM_GUARDED_BY(mu_);
};

/// Registry of stored releases, grouped by strategy signature.
class ReleaseStore {
 public:
  explicit ReleaseStore(std::string root) : ReleaseStore(std::move(root), {}) {}
  ReleaseStore(std::string root, const StoreOptions& options);

  const std::string& root() const { return root_; }

  /// Persists the release under the next free id for its signature and
  /// returns that id. On a sharded store the put happens under the owning
  /// shard's lock and appends a manifest record; when a live release with
  /// the same (signature, dataset, batch slot) provenance exists, the new
  /// release is recorded as superseding it (the old file stays readable
  /// until the next compaction).
  [[nodiscard]] Result<std::size_t> Put(const serialize::ReleaseArtifact& artifact);

  /// Loads one release — cached while hot (releases are immutable once
  /// stored). On a migrating store a shard miss falls through to flat v1.
  [[nodiscard]] Result<std::shared_ptr<const serialize::ReleaseArtifact>> Get(
      const std::string& signature, std::size_t id);

  /// Ids stored for a signature, ascending (empty when none). Includes
  /// superseded/tombstoned ids until compaction removes their files.
  std::vector<std::size_t> List(const std::string& signature) const;

  /// The highest stored id for a signature; NotFound when none exist.
  [[nodiscard]] Result<std::size_t> LatestId(const std::string& signature) const;

  /// Marks one stored release dead in the shard manifest (sharded stores
  /// only — a flat store has no manifest to record intent in). The file
  /// stays readable until the next compaction deletes it.
  [[nodiscard]] Status Tombstone(const std::string& signature, std::size_t id);

  std::size_t cache_size() const;
  std::uint64_t cache_evictions() const;

 private:
  Status EnsureLayoutLocked() const DPMM_REQUIRES(mu_);

  std::string root_;
  FsOps* fs_;
  std::size_t requested_shards_;
  FileLockOptions lock_options_;
  // Same discipline as StrategyStore::mu_, at its own rank (the two stores
  // are independent locks; a distinct rank keeps the registry unambiguous).
  mutable Mutex mu_{LockRank::kReleaseStoreCache};
  mutable std::optional<StoreLayout> layout_ DPMM_GUARDED_BY(mu_);
  mutable Status layout_status_ DPMM_GUARDED_BY(mu_);
  mutable util::LruCache<std::string,
                         std::shared_ptr<const serialize::ReleaseArtifact>>
      cache_ DPMM_GUARDED_BY(mu_);  // keyed by file path
};

/// Per-shard occupancy as `dpmm_cli store stat` reports it.
struct ShardStat {
  std::size_t shard = 0;
  std::size_t strategies = 0;
  std::size_t live = 0;
  std::size_t superseded = 0;
  std::size_t tombstoned = 0;
  /// Release files present in the shard but unknown to its manifest (a put
  /// that crashed between artifact write and manifest append, or pre-
  /// manifest history); compaction adopts them as live.
  std::size_t unmanifested = 0;
};

/// Whole-store occupancy.
struct StoreStat {
  bool sharded = false;
  std::size_t num_shards = 0;
  /// Sharded but v1 flat artifacts still present (compaction re-homes them).
  bool migrating = false;
  std::size_t flat_strategies = 0;
  std::size_t flat_releases = 0;
  std::vector<ShardStat> shards;
};

/// What one CompactStore() pass did.
struct CompactionReport {
  std::size_t shards_compacted = 0;
  /// Superseded/tombstoned artifact files deleted.
  std::size_t files_removed = 0;
  /// v1 flat artifacts re-homed into their owning shards.
  std::size_t flat_migrated = 0;
  /// Live artifacts kept across all shards after the pass.
  std::size_t live_kept = 0;
};

/// Reads occupancy without mutating anything (no locks taken; counts can be
/// stale against concurrent writers).
[[nodiscard]] Result<StoreStat> StatStore(const std::string& root,
                                          const StoreOptions& options = {});

/// Compacts every shard of the store at `root`: under each shard's lock,
/// adopts manifest-unknown files as live, re-homes v1 flat artifacts owned
/// by the shard, deletes superseded/tombstoned files (provably dead per the
/// durable manifest), and publishes the live-only manifest snapshot via
/// WriteViaRename — so a crash at any filesystem boundary loses no live
/// artifact: before the snapshot rename the old log still replays, after it
/// the snapshot is the log. Opening a flat root with options.shards > 0
/// shards it and migrates everything — the v1 -> v2 upgrade path.
/// InvalidArgument when the root is flat and no shard count was given.
[[nodiscard]] Result<CompactionReport> CompactStore(
    const std::string& root, const StoreOptions& options = {});

}  // namespace serve
}  // namespace dpmm

#endif  // DPMM_SERVE_STORE_H_
