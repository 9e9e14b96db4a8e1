#include "serve/store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>

#include "serve/store_manifest.h"
#include "serve/wal.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace dpmm {
namespace serve {

namespace internal {

/// Racing creators are fine — EEXIST is success.
Status EnsureDir(const std::string& path) {
  std::string prefix;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    std::size_t next = path.find('/', pos);
    if (next == std::string::npos) next = path.size();
    prefix = path.substr(0, next);
    if (!prefix.empty() && prefix != "." && prefix != "..") {
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        return Status::IoError("cannot create directory " + prefix + ": " +
                               std::strerror(errno));
      }
    }
    pos = next + 1;
  }
  return Status::OK();
}

Status WriteViaRename(const std::string& path, const std::string& bytes,
                      FsOps* fs) {
  if (fs == nullptr) fs = SystemFsOps();
  const std::string tmp = path + ".tmp";
  auto fd = fs->OpenForWrite(tmp);
  if (!fd.ok()) return fd.status();
  Status st;
  if (!bytes.empty()) st = fs->WriteAll(fd.ValueOrDie(), bytes.data(), bytes.size());
  // The temp file must be durable *before* the rename publishes it: rename
  // is ordered ahead of data write-back on many filesystems, so a crash
  // after an un-fsync'd rename can leave the published name holding an
  // empty or truncated file.
  if (st.ok()) st = fs->Fsync(fd.ValueOrDie());
  Status closed = fs->Close(fd.ValueOrDie());
  if (st.ok()) st = closed;
  if (st.ok()) st = fs->Rename(tmp, path);
  if (!st.ok()) {
    // Best-effort cleanup; the original error is what the caller needs to
    // see, never the (likely also-failing) unlink's.
    DPMM_IGNORE_STATUS(fs->Remove(tmp),
                       "cleanup after a write that already failed; the "
                       "original error is returned below");
    return st;
  }
  // Make the new directory entry itself durable.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? "."
                              : (slash == 0 ? "/" : path.substr(0, slash));
  return fs->FsyncDir(dir);
}

}  // namespace internal

using internal::EnsureDir;
using internal::WriteViaRename;

namespace {

/// Release ids as fixed-width filenames so lexicographic directory order is
/// numeric order.
std::string IdName(std::size_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06zu.release", id);
  return buf;
}

/// Parses "<digits>.release" (exactly the IdName format); false otherwise.
bool ParseIdName(const char* name, std::size_t* id) {
  const char* dot = std::strchr(name, '.');
  if (dot == nullptr || std::strcmp(dot, ".release") != 0 || dot == name) {
    return false;
  }
  std::size_t v = 0;
  for (const char* p = name; p < dot; ++p) {
    if (*p < '0' || *p > '9') return false;
    v = v * 10 + static_cast<std::size_t>(*p - '0');
  }
  *id = v;
  return true;
}

/// The "<key>" of a "<key>.strategy" filename; empty when `name` is not one.
std::string StrategyKeyOf(const std::string& name) {
  constexpr const char kSuffix[] = ".strategy";
  constexpr std::size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (name.size() <= kSuffixLen ||
      name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return "";
  }
  return name.substr(0, name.size() - kSuffixLen);
}

/// fs->FileExists with errors collapsed to false (probe semantics).
bool ExistsVia(FsOps* fs, const std::string& path) {
  auto exists = fs->FileExists(path);
  return exists.ok() && exists.ValueOrDie();
}

/// Sorted numeric ids of every "<id>.release" entry in `dir` (empty when
/// the directory is missing or unreadable — probe semantics, like the
/// opendir-based listing this replaced).
std::vector<std::size_t> ReleaseIdsIn(FsOps* fs, const std::string& dir) {
  std::vector<std::size_t> ids;
  auto names = fs->ListDir(dir);
  if (!names.ok()) return ids;
  for (const std::string& name : names.ValueOrDie()) {
    std::size_t id = 0;
    if (ParseIdName(name.c_str(), &id)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Appends one record to a shard manifest WAL, truncating a torn tail
/// first. `manifest` must be the replay of that WAL (its valid size bounds
/// the append position); on OK the record is durable.
Status AppendManifestRecord(const std::string& manifest_path,
                            const ShardManifest& manifest,
                            const std::string& record, FsOps* fs) {
  if (manifest.torn_tail()) {
    Status st = TruncateWal(manifest_path, manifest.wal_valid_size(), fs);
    if (!st.ok()) return st;
  }
  auto writer = WalWriter::Open(manifest_path, manifest.wal_valid_size(), fs);
  if (!writer.ok()) return writer.status();
  WalWriter w = std::move(writer).ValueOrDie();
  Status st = w.Append(record);
  Status closed = w.Close();
  if (st.ok()) st = closed;
  return st;
}

}  // namespace

namespace {

/// Store-wide instruments: one artifact file landed durably / one artifact
/// file read off disk (cache hits do not count as reads).
Counter* ArtifactWrites() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "dpmm.serve.store.artifact_writes");
  return c;
}

Counter* ArtifactReads() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "dpmm.serve.store.artifact_reads");
  return c;
}

}  // namespace

std::string CanonicalSignature(const std::string& workload_spec,
                               const Domain& domain) {
  std::string sig = workload_spec + "@";
  for (std::size_t a = 0; a < domain.num_attributes(); ++a) {
    if (a > 0) sig += ',';
    sig += std::to_string(domain.size(a));
  }
  return sig;
}

std::string StoreKey(const std::string& signature) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(serialize::Fnv1a64(signature)));
  return buf;
}

// ---- StrategyStore

StrategyStore::StrategyStore(std::string root, const StoreOptions& options)
    : root_(std::move(root)),
      fs_(options.fs != nullptr ? options.fs : SystemFsOps()),
      requested_shards_(options.shards),
      lock_options_(options.lock),
      cache_(options.strategy_cache_capacity) {}

Status StrategyStore::EnsureLayoutLocked() const {
  if (layout_.has_value() || !layout_status_.ok()) return layout_status_;
  auto resolved = StoreLayout::Resolve(root_, requested_shards_, fs_);
  if (!resolved.ok()) {
    layout_status_ = resolved.status();
    return layout_status_;
  }
  layout_.emplace(std::move(resolved).ValueOrDie());
  return Status::OK();
}

Status StrategyStore::Put(const serialize::StrategyArtifact& artifact) {
  if (artifact.signature.empty()) {
    return Status::InvalidArgument("strategy artifact has no signature");
  }
  if (artifact.strategy == nullptr) {
    return Status::InvalidArgument("strategy artifact has no strategy");
  }
  MutexLock lock(&mu_);
  Status st = EnsureLayoutLocked();
  if (!st.ok()) return st;
  if (layout_->sharded()) {
    // Pin the shard count before the first artifact lands, so a crash
    // between the two cannot leave sharded files under an unpinned root.
    st = layout_->Persist(fs_);
    if (!st.ok()) return st;
  }
  const StoreLayout layout = *layout_;
  lock.Unlock();

  const std::string key = StoreKey(artifact.signature);
  const std::string bytes = serialize::EncodeStrategyArtifact(artifact);
  if (!layout.sharded()) {
    st = EnsureDir(root_ + "/strategies");
    if (!st.ok()) return st;
    st = WriteViaRename(layout.FlatStrategyPath(key), bytes, fs_);
    if (!st.ok()) return st;
  } else {
    const std::size_t shard = layout.ShardOf(key);
    st = EnsureDir(layout.ShardDir(shard) + "/strategies");
    if (!st.ok()) return st;
    auto shard_lock = FileLock::Acquire(layout.LockPath(shard), lock_options_);
    if (!shard_lock.ok()) return shard_lock.status();
    st = WriteViaRename(layout.StrategyPath(key), bytes, fs_);
    if (!st.ok()) return st;
    auto manifest = ShardManifest::Load(layout.ManifestPath(shard), fs_);
    if (!manifest.ok()) return manifest.status();
    // Overwriting an existing strategy needs no new record: the manifest
    // tracks presence, not versions (strategies have one file per key).
    if (!manifest.ValueOrDie().HasStrategy(key)) {
      st = AppendManifestRecord(layout.ManifestPath(shard),
                                manifest.ValueOrDie(),
                                ShardManifest::StrategyRecord(key), fs_);
      if (!st.ok()) return st;
    }
  }
  ArtifactWrites()->Add(1);
  lock.Lock();
  cache_.Put(artifact.signature,
             std::make_shared<serialize::StrategyArtifact>(artifact));
  return Status::OK();
}

Result<std::shared_ptr<const serialize::StrategyArtifact>> StrategyStore::Get(
    const std::string& signature) {
  MutexLock lock(&mu_);
  Status st = EnsureLayoutLocked();
  if (!st.ok()) return st;
  const StoreLayout layout = *layout_;
  if (auto* hit = cache_.Get(signature)) return *hit;
  lock.Unlock();

  const std::string key = StoreKey(signature);
  std::string path = layout.StrategyPath(key);
  auto bytes = fs_->ReadFile(path);
  if (!bytes.ok() && bytes.status().code() == StatusCode::kNotFound &&
      layout.migrating()) {
    // Not yet re-homed: fall through to the v1 flat location.
    path = layout.FlatStrategyPath(key);
    bytes = fs_->ReadFile(path);
  }
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no stored strategy for '" + signature +
                              "' (expected " + layout.StrategyPath(key) + ")");
    }
    return bytes.status();
  }
  auto loaded = serialize::DecodeStrategyArtifact(bytes.ValueOrDie());
  if (!loaded.ok()) {
    return Status::IoError("strategy at " + path + ": " +
                           loaded.status().message());
  }
  std::shared_ptr<const serialize::StrategyArtifact> artifact =
      std::make_shared<serialize::StrategyArtifact>(
          std::move(loaded).ValueOrDie());
  if (artifact->signature != signature) {
    return Status::IoError("strategy at " + path + " is for '" +
                           artifact->signature + "', not '" + signature +
                           "' (renamed file or key collision)");
  }
  ArtifactReads()->Add(1);
  lock.Lock();
  cache_.Put(signature, artifact);
  return artifact;
}

bool StrategyStore::Contains(const std::string& signature) const {
  MutexLock lock(&mu_);
  if (!EnsureLayoutLocked().ok()) return false;
  const StoreLayout layout = *layout_;
  lock.Unlock();
  const std::string key = StoreKey(signature);
  if (ExistsVia(fs_, layout.StrategyPath(key))) return true;
  return layout.migrating() && ExistsVia(fs_, layout.FlatStrategyPath(key));
}

std::size_t StrategyStore::cache_size() const {
  MutexLock lock(&mu_);
  return cache_.size();
}

std::uint64_t StrategyStore::cache_evictions() const {
  MutexLock lock(&mu_);
  return cache_.evictions();
}

// ---- ReleaseStore

ReleaseStore::ReleaseStore(std::string root, const StoreOptions& options)
    : root_(std::move(root)),
      fs_(options.fs != nullptr ? options.fs : SystemFsOps()),
      requested_shards_(options.shards),
      lock_options_(options.lock),
      cache_(options.release_cache_capacity) {}

Status ReleaseStore::EnsureLayoutLocked() const {
  if (layout_.has_value() || !layout_status_.ok()) return layout_status_;
  auto resolved = StoreLayout::Resolve(root_, requested_shards_, fs_);
  if (!resolved.ok()) {
    layout_status_ = resolved.status();
    return layout_status_;
  }
  layout_.emplace(std::move(resolved).ValueOrDie());
  return Status::OK();
}

std::vector<std::size_t> ReleaseStore::List(const std::string& signature) const {
  MutexLock lock(&mu_);
  if (!EnsureLayoutLocked().ok()) return {};
  const StoreLayout layout = *layout_;
  lock.Unlock();
  const std::string key = StoreKey(signature);
  std::vector<std::size_t> ids = ReleaseIdsIn(fs_, layout.ReleaseDir(key));
  if (layout.migrating()) {
    const std::vector<std::size_t> flat =
        ReleaseIdsIn(fs_, layout.FlatReleaseDir(key));
    ids.insert(ids.end(), flat.begin(), flat.end());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  return ids;
}

Result<std::size_t> ReleaseStore::LatestId(const std::string& signature) const {
  const std::vector<std::size_t> ids = List(signature);
  if (ids.empty()) {
    return Status::NotFound("no stored releases for '" + signature + "'");
  }
  return ids.back();
}

Result<std::size_t> ReleaseStore::Put(
    const serialize::ReleaseArtifact& artifact) {
  if (artifact.signature.empty()) {
    return Status::InvalidArgument("release artifact has no signature");
  }
  MutexLock lock(&mu_);
  Status st = EnsureLayoutLocked();
  if (!st.ok()) return st;
  if (layout_->sharded()) {
    st = layout_->Persist(fs_);
    if (!st.ok()) return st;
  }
  const StoreLayout layout = *layout_;
  lock.Unlock();

  const std::string key = StoreKey(artifact.signature);
  if (!layout.sharded()) {
    // v1 protocol: write the bytes to a process-unique temp file, then
    // claim the next free id with link(2), which fails with EEXIST when a
    // concurrent writer took that id first — a plain list-then-rename
    // would let two racing Put calls pick the same id and silently clobber
    // one paid-for release. The linked file is always complete (link is
    // atomic on the finished temp file).
    const std::string dir = layout.FlatReleaseDir(key);
    st = EnsureDir(dir);
    if (!st.ok()) return st;
    static std::atomic<unsigned> tmp_counter{0};
    const std::string tmp = dir + "/put." + std::to_string(::getpid()) + "." +
                            std::to_string(tmp_counter++) + ".claim";
    st = WriteViaRename(tmp, serialize::EncodeReleaseArtifact(artifact), fs_);
    if (!st.ok()) return st;
    const std::vector<std::size_t> ids = ReleaseIdsIn(fs_, dir);
    std::size_t id = ids.empty() ? 0 : ids.back() + 1;
    std::string path;
    for (;;) {
      path = dir + "/" + IdName(id);
      Status linked = fs_->Link(tmp, path);
      if (linked.ok()) break;
      if (!FsOps::IsAlreadyExists(linked)) {
        DPMM_IGNORE_STATUS(fs_->Remove(tmp),
                           "cleanup after a link that already failed; the "
                           "link error is returned below");
        return linked;
      }
      ++id;
    }
    DPMM_IGNORE_STATUS(fs_->Remove(tmp),
                       "the release is already durably linked under its id; "
                       "a leftover claim file is cosmetic");
    ArtifactWrites()->Add(1);
    lock.Lock();
    cache_.Put(path, std::make_shared<serialize::ReleaseArtifact>(artifact));
    return id;
  }

  // Sharded protocol: exclusive shard lock -> durable artifact write ->
  // fsync'd manifest append -> ack. The manifest record carries the
  // supersession decision; the artifact carries the same fact in its v3
  // field so it stays self-describing without its manifest.
  const std::size_t shard = layout.ShardOf(key);
  const std::string dir = layout.ReleaseDir(key);
  st = EnsureDir(dir);
  if (!st.ok()) return st;
  auto shard_lock = FileLock::Acquire(layout.LockPath(shard), lock_options_);
  if (!shard_lock.ok()) return shard_lock.status();
  auto loaded = ShardManifest::Load(layout.ManifestPath(shard), fs_);
  if (!loaded.ok()) return loaded.status();
  const ShardManifest& manifest = loaded.ValueOrDie();

  // Allocate past every id ever seen — manifest history, files in the
  // shard, and (while migrating) flat v1 files — so ids are never reused
  // even for superseded generations.
  std::size_t id = 0;
  if (auto max_known = manifest.MaxIdFor(key)) {
    id = static_cast<std::size_t>(*max_known) + 1;
  }
  const std::vector<std::size_t> shard_ids = ReleaseIdsIn(fs_, dir);
  if (!shard_ids.empty()) id = std::max(id, shard_ids.back() + 1);
  if (layout.migrating()) {
    const std::vector<std::size_t> flat_ids =
        ReleaseIdsIn(fs_, layout.FlatReleaseDir(key));
    if (!flat_ids.empty()) id = std::max(id, flat_ids.back() + 1);
  }

  const std::string provenance =
      ShardManifest::ProvenanceToken(artifact.dataset, artifact.batch_index);
  serialize::ReleaseArtifact stamped = artifact;
  if (auto prior = manifest.LiveIdFor(key, provenance)) {
    stamped.supersedes_plus1 = *prior + 1;
  } else {
    stamped.supersedes_plus1 = 0;
  }
  const std::string path = dir + "/" + IdName(id);
  st = WriteViaRename(path, serialize::EncodeReleaseArtifact(stamped), fs_);
  if (!st.ok()) return st;
  st = AppendManifestRecord(
      layout.ManifestPath(shard), manifest,
      ShardManifest::ReleaseRecord(key, id, stamped.supersedes_plus1,
                                   provenance),
      fs_);
  if (!st.ok()) return st;
  ArtifactWrites()->Add(1);
  lock.Lock();
  cache_.Put(path, std::make_shared<serialize::ReleaseArtifact>(stamped));
  return id;
}

Result<std::shared_ptr<const serialize::ReleaseArtifact>> ReleaseStore::Get(
    const std::string& signature, std::size_t id) {
  MutexLock lock(&mu_);
  Status st = EnsureLayoutLocked();
  if (!st.ok()) return st;
  const StoreLayout layout = *layout_;
  const std::string key = StoreKey(signature);
  const std::string primary = layout.ReleaseDir(key) + "/" + IdName(id);
  if (auto* hit = cache_.Get(primary)) return *hit;
  lock.Unlock();

  std::string path = primary;
  auto bytes = fs_->ReadFile(path);
  if (!bytes.ok() && bytes.status().code() == StatusCode::kNotFound &&
      layout.migrating()) {
    path = layout.FlatReleaseDir(key) + "/" + IdName(id);
    bytes = fs_->ReadFile(path);
  }
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no stored release " + std::to_string(id) +
                              " for '" + signature + "' (expected " + primary +
                              ")");
    }
    return bytes.status();
  }
  auto loaded = serialize::DecodeReleaseArtifact(bytes.ValueOrDie());
  if (!loaded.ok()) {
    return Status::IoError("release at " + path + ": " +
                           loaded.status().message());
  }
  std::shared_ptr<const serialize::ReleaseArtifact> artifact =
      std::make_shared<serialize::ReleaseArtifact>(
          std::move(loaded).ValueOrDie());
  if (artifact->signature != signature) {
    return Status::IoError("release at " + path + " is for '" +
                           artifact->signature + "', not '" + signature + "'");
  }
  ArtifactReads()->Add(1);
  lock.Lock();
  // Cache under the primary path even when served from the flat fallback —
  // the key a future lookup probes first.
  cache_.Put(primary, artifact);
  return artifact;
}

Status ReleaseStore::Tombstone(const std::string& signature, std::size_t id) {
  MutexLock lock(&mu_);
  Status st = EnsureLayoutLocked();
  if (!st.ok()) return st;
  const StoreLayout layout = *layout_;
  lock.Unlock();
  if (!layout.sharded()) {
    return Status::InvalidArgument(
        "tombstones need a sharded store (a flat v1 store has no manifest "
        "to record the intent in)");
  }
  const std::string key = StoreKey(signature);
  const std::size_t shard = layout.ShardOf(key);
  st = EnsureDir(layout.ShardDir(shard));
  if (!st.ok()) return st;
  auto shard_lock = FileLock::Acquire(layout.LockPath(shard), lock_options_);
  if (!shard_lock.ok()) return shard_lock.status();
  auto loaded = ShardManifest::Load(layout.ManifestPath(shard), fs_);
  if (!loaded.ok()) return loaded.status();
  const ShardManifest& manifest = loaded.ValueOrDie();
  const bool known = manifest.FindRelease(key, id) != nullptr ||
                     ExistsVia(fs_, layout.ReleaseDir(key) + "/" + IdName(id)) ||
                     (layout.migrating() &&
                      ExistsVia(fs_, layout.FlatReleaseDir(key) + "/" +
                                         IdName(id)));
  if (!known) {
    return Status::NotFound("no stored release " + std::to_string(id) +
                            " for '" + signature + "' to tombstone");
  }
  return AppendManifestRecord(layout.ManifestPath(shard), manifest,
                              ShardManifest::TombstoneRecord(key, id), fs_);
}

std::size_t ReleaseStore::cache_size() const {
  MutexLock lock(&mu_);
  return cache_.size();
}

std::uint64_t ReleaseStore::cache_evictions() const {
  MutexLock lock(&mu_);
  return cache_.evictions();
}

// ---- StatStore / CompactStore

namespace {

/// Every (key, id) release file under `releases_dir` ("<dir>/<key>/<id>").
std::vector<std::pair<std::string, std::size_t>> ReleaseFilesUnder(
    FsOps* fs, const std::string& releases_dir) {
  std::vector<std::pair<std::string, std::size_t>> found;
  auto keys = fs->ListDir(releases_dir);
  if (!keys.ok()) return found;
  for (const std::string& key : keys.ValueOrDie()) {
    for (std::size_t id : ReleaseIdsIn(fs, releases_dir + "/" + key)) {
      found.emplace_back(key, id);
    }
  }
  return found;
}

/// Strategy keys with a "<key>.strategy" file under `strategies_dir`.
std::vector<std::string> StrategyKeysUnder(FsOps* fs,
                                           const std::string& strategies_dir) {
  std::vector<std::string> found;
  auto names = fs->ListDir(strategies_dir);
  if (!names.ok()) return found;
  for (const std::string& name : names.ValueOrDie()) {
    const std::string key = StrategyKeyOf(name);
    if (!key.empty()) found.push_back(key);
  }
  return found;
}

/// Decodes one release file for adoption: its provenance token and
/// supersession field. A file that does not decode is adopted blind
/// (empty provenance, no supersession) — it can then never be deleted,
/// which is the conservative direction for content we cannot interpret.
void DecodeForAdoption(FsOps* fs, const std::string& path,
                       std::string* provenance,
                       std::uint64_t* supersedes_plus1) {
  provenance->clear();
  *supersedes_plus1 = 0;
  auto bytes = fs->ReadFile(path);
  if (!bytes.ok()) return;
  auto decoded = serialize::DecodeReleaseArtifact(bytes.ValueOrDie());
  if (!decoded.ok()) return;
  const serialize::ReleaseArtifact& artifact = decoded.ValueOrDie();
  *provenance = ShardManifest::ProvenanceToken(artifact.dataset,
                                               artifact.batch_index);
  *supersedes_plus1 = artifact.supersedes_plus1;
}

/// Compacts one shard under its lock. See CompactStore's contract; the
/// crash-safety argument is inline at each boundary.
Status CompactShard(const StoreLayout& layout, std::size_t shard,
                    const StoreOptions& options, FsOps* fs,
                    CompactionReport* report) {
  static Counter* adopted = MetricsRegistry::Global().GetCounter(
      "dpmm.serve.store.compaction_adopted");
  TraceSpan span("CompactShard", "store");
  Status st = EnsureDir(layout.ShardDir(shard));
  if (!st.ok()) return st;
  auto shard_lock = FileLock::Acquire(layout.LockPath(shard), options.lock);
  if (!shard_lock.ok()) return shard_lock.status();
  auto loaded = ShardManifest::Load(layout.ManifestPath(shard), fs);
  if (!loaded.ok()) return loaded.status();
  ShardManifest manifest = std::move(loaded).ValueOrDie();

  // Which deaths the durable log itself records — only these files may be
  // deleted before the new snapshot is published (their death survives a
  // crash via WAL replay). Deaths discovered below by adoption are backed
  // by artifact bytes instead, so those files wait until the snapshot that
  // omits them is durable... and even then the proof is re-derivable, so a
  // crash in between at worst repeats work.
  std::set<std::pair<std::string, std::size_t>> dead_in_log;
  for (const auto& [k, state] : manifest.releases()) {
    if (!state.live) dead_in_log.insert({k.first, k.second});
  }

  const std::string shard_strategies = layout.ShardDir(shard) + "/strategies";
  const std::string shard_releases = layout.ShardDir(shard) + "/releases";

  // Adopt files the manifest has never heard of (a put that crashed
  // between artifact write and manifest append, or pre-manifest history).
  for (const std::string& key : StrategyKeysUnder(fs, shard_strategies)) {
    if (!manifest.HasStrategy(key)) {
      st = manifest.Apply(ShardManifest::StrategyRecord(key));
      if (!st.ok()) return st;
    }
  }
  std::vector<std::pair<std::string, std::size_t>> shard_files =
      ReleaseFilesUnder(fs, shard_releases);
  // Ascending (key, id) order approximates write order — ids are never
  // reused and only grow — which is what Adopt's supersession logic needs.
  std::sort(shard_files.begin(), shard_files.end());
  for (const auto& [key, id] : shard_files) {
    if (manifest.FindRelease(key, id) != nullptr) continue;
    std::string provenance;
    std::uint64_t supersedes_plus1 = 0;
    DecodeForAdoption(fs, shard_releases + "/" + key + "/" + IdName(id),
                      &provenance, &supersedes_plus1);
    manifest.Adopt(key, id, provenance, supersedes_plus1);
    adopted->Add(1);
  }

  // Re-home the v1 flat artifacts this shard owns. Copies are byte-verbatim
  // (ReadFile -> WriteViaRename) so a fully migrated store is byte-identical
  // to its flat ancestor, file by file. Idempotent: a copy that already
  // happened (crash after copy, before the originals were removed) is
  // skipped.
  std::vector<std::string> flat_originals;
  std::set<std::string> dirs_to_sync;
  if (layout.migrating()) {
    for (const std::string& key :
         StrategyKeysUnder(fs, layout.root() + "/strategies")) {
      if (layout.ShardOf(key) != shard) continue;
      const std::string flat_path = layout.FlatStrategyPath(key);
      const std::string shard_path = layout.StrategyPath(key);
      if (!ExistsVia(fs, shard_path)) {
        auto bytes = fs->ReadFile(flat_path);
        if (!bytes.ok()) return bytes.status();
        st = EnsureDir(shard_strategies);
        if (!st.ok()) return st;
        st = WriteViaRename(shard_path, bytes.ValueOrDie(), fs);
        if (!st.ok()) return st;
        ++report->flat_migrated;
      }
      if (!manifest.HasStrategy(key)) {
        st = manifest.Apply(ShardManifest::StrategyRecord(key));
        if (!st.ok()) return st;
      }
      flat_originals.push_back(flat_path);
    }
    std::vector<std::pair<std::string, std::size_t>> flat_files =
        ReleaseFilesUnder(fs, layout.root() + "/releases");
    std::sort(flat_files.begin(), flat_files.end());
    for (const auto& [key, id] : flat_files) {
      if (layout.ShardOf(key) != shard) continue;
      const std::string flat_path =
          layout.FlatReleaseDir(key) + "/" + IdName(id);
      if (manifest.FindRelease(key, id) == nullptr) {
        std::string provenance;
        std::uint64_t supersedes_plus1 = 0;
        DecodeForAdoption(fs, flat_path, &provenance, &supersedes_plus1);
        manifest.Adopt(key, id, provenance, supersedes_plus1);
        adopted->Add(1);
      }
      const ManifestRelease* state = manifest.FindRelease(key, id);
      const std::string shard_path =
          layout.ReleaseDir(key) + "/" + IdName(id);
      if (state != nullptr && state->live && !ExistsVia(fs, shard_path)) {
        auto bytes = fs->ReadFile(flat_path);
        if (!bytes.ok()) return bytes.status();
        st = EnsureDir(layout.ReleaseDir(key));
        if (!st.ok()) return st;
        st = WriteViaRename(shard_path, bytes.ValueOrDie(), fs);
        if (!st.ok()) return st;
        ++report->flat_migrated;
      }
      // Dead flat releases are not copied; their files go with the other
      // originals once the snapshot is durable.
      flat_originals.push_back(flat_path);
    }
  }

  // Delete the files the durable log already proves dead. Safe before the
  // snapshot: a crash here replays the old log, which still marks them
  // dead — the files are just gone a little early.
  for (const auto& [key, id] : dead_in_log) {
    const std::string path = layout.ReleaseDir(key) + "/" + IdName(id);
    if (ExistsVia(fs, path)) {
      st = fs->Remove(path);
      if (!st.ok()) return st;
      dirs_to_sync.insert(layout.ReleaseDir(key));
      ++report->files_removed;
    }
  }

  // Publish the live-only manifest snapshot. WriteViaRename makes this the
  // snapshot-durable-before-truncate step in one atomic move: until the
  // rename lands the old log replays, after it the snapshot *is* the log.
  st = WriteViaRename(layout.ManifestPath(shard), manifest.EncodeSnapshot(),
                      fs);
  if (!st.ok()) return st;

  // Now delete what only adoption proved dead (the proof — the newer
  // artifact's bytes — is itself durable, so a crash between these removes
  // just re-derives it next pass), plus the migrated flat originals.
  for (const auto& [k, state] : manifest.releases()) {
    if (state.live || dead_in_log.count({k.first, k.second}) > 0) continue;
    const std::string path =
        layout.ReleaseDir(k.first) + "/" + IdName(k.second);
    if (ExistsVia(fs, path)) {
      st = fs->Remove(path);
      if (!st.ok()) return st;
      dirs_to_sync.insert(layout.ReleaseDir(k.first));
      ++report->files_removed;
    }
  }
  for (const std::string& path : flat_originals) {
    if (!ExistsVia(fs, path)) continue;
    st = fs->Remove(path);
    if (!st.ok()) return st;
    const std::size_t slash = path.find_last_of('/');
    dirs_to_sync.insert(path.substr(0, slash));
    ++report->files_removed;
  }
  for (const std::string& dir : dirs_to_sync) {
    st = fs->FsyncDir(dir);
    if (!st.ok()) return st;
  }

  report->live_kept += manifest.num_live();
  ++report->shards_compacted;
  return Status::OK();
}

}  // namespace

Result<StoreStat> StatStore(const std::string& root,
                            const StoreOptions& options) {
  FsOps* fs = options.fs != nullptr ? options.fs : SystemFsOps();
  auto resolved = StoreLayout::Resolve(root, options.shards, fs);
  if (!resolved.ok()) return resolved.status();
  const StoreLayout layout = std::move(resolved).ValueOrDie();
  StoreStat stat;
  stat.sharded = layout.sharded();
  stat.num_shards = layout.num_shards();
  stat.migrating = layout.migrating();
  stat.flat_strategies = StrategyKeysUnder(fs, root + "/strategies").size();
  stat.flat_releases = ReleaseFilesUnder(fs, root + "/releases").size();
  for (std::size_t shard = 0; shard < layout.num_shards(); ++shard) {
    auto loaded = ShardManifest::Load(layout.ManifestPath(shard), fs);
    if (!loaded.ok()) return loaded.status();
    const ShardManifest& manifest = loaded.ValueOrDie();
    ShardStat s;
    s.shard = shard;
    s.strategies =
        StrategyKeysUnder(fs, layout.ShardDir(shard) + "/strategies").size();
    s.live = manifest.num_live();
    s.superseded = manifest.num_superseded();
    s.tombstoned = manifest.num_tombstoned();
    for (const auto& [key, id] :
         ReleaseFilesUnder(fs, layout.ShardDir(shard) + "/releases")) {
      if (manifest.FindRelease(key, id) == nullptr) ++s.unmanifested;
    }
    stat.shards.push_back(s);
  }
  return stat;
}

Result<CompactionReport> CompactStore(const std::string& root,
                                      const StoreOptions& options) {
  FsOps* fs = options.fs != nullptr ? options.fs : SystemFsOps();
  auto resolved = StoreLayout::Resolve(root, options.shards, fs);
  if (!resolved.ok()) return resolved.status();
  StoreLayout layout = std::move(resolved).ValueOrDie();
  if (!layout.sharded()) {
    return Status::InvalidArgument(
        "store at " + root +
        " is flat; pass --shards N to shard it as part of compaction");
  }
  // Pin the shard count first: every artifact moved below must land under
  // a root that already declares its layout.
  Status st = EnsureDir(root);
  if (!st.ok()) return st;
  st = layout.Persist(fs);
  if (!st.ok()) return st;
  CompactionReport report;
  for (std::size_t shard = 0; shard < layout.num_shards(); ++shard) {
    st = CompactShard(layout, shard, options, fs, &report);
    if (!st.ok()) return st;
  }
  static Counter* deleted = MetricsRegistry::Global().GetCounter(
      "dpmm.serve.store.compaction_deleted");
  static Counter* rehomed = MetricsRegistry::Global().GetCounter(
      "dpmm.serve.store.compaction_rehomed");
  deleted->Add(report.files_removed);
  rehomed->Add(report.flat_migrated);
  return report;
}

}  // namespace serve
}  // namespace dpmm
