// Ad-hoc query serving over a stored release. The engine answers predicate
// (axis-aligned box) counting queries against the persisted least-squares
// estimate x_hat: the answer is w_q · x_hat (pure post-processing — no
// further privacy cost, and all answers are mutually consistent because they
// derive from the single estimate), and the error bar is the analytic
// per-query standard deviation sd_q = sigma * sqrt(w_q (A^T A)^+ w_q^T)
// (Def. 5 / Prop. 4), computed through the strategy's normal equations via
// the engine-agnostic LinearStrategy interface — dense and Kronecker
// strategies serve identically (the implicit engine never forms an n x n
// matrix).
//
// The budget-independent roots sqrt(w_q (A^T A)^+ w_q^T) are the expensive
// part (one normal solve per distinct query); the engine caches
// them under a canonical per-attribute bucket-mask key, so repeated and
// semantically-identical queries cost one box sum over the selected cells
// of x_hat after first touch. A predicate is an axis-aligned box, so its
// key and value come from one short bucket list per attribute
// (query::BoxSelection); only a cache miss builds the n-length row.
// Single predicates and batches take one path: queries are answered in
// chunks of the Prop. 4 solve loop's width (NormalSolveWidth, from n under
// a fixed byte budget), and each chunk's uncached roots go through that
// loop (QueryRoots in mechanism/error.h), whose per-row results are
// bit-identical to solo solves — answers never depend on how queries were
// grouped. The engine is safe for concurrent readers: the cache is
// mutex-guarded, the strategy and release artifacts are immutable shared
// state.
//
// Exactness contract (tested): values are bit-identical to
// ExplicitWorkload::Answer(x_hat) on the same rows, and error bars
// bit-identical to release::QueryErrorProfile for the same workload,
// strategy and budget.
#ifndef DPMM_SERVE_ANSWER_ENGINE_H_
#define DPMM_SERVE_ANSWER_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/predicate.h"
#include "serialize/artifact.h"
#include "util/lru_cache.h"
#include "util/mutex.h"
#include "util/status.h"

namespace dpmm {
namespace serve {

class AnswerEngine {
 public:
  struct Answer {
    double value = 0;   // w_q · x_hat
    double stddev = 0;  // sigma * sqrt(w_q (A^T A)^+ w_q^T)
  };

  /// Default bound on cached roots. A root is one double behind a short
  /// string key (~100 bytes an entry all-in), so the default costs well
  /// under a megabyte while covering every distinct predicate most serve
  /// sessions ever ask; size it to the expected distinct-query working set
  /// when overriding. Eviction can never change an answer — an evicted
  /// root recomputes bit-identically from the same normal solve.
  static constexpr std::size_t kDefaultRootCacheCapacity = 4096;

  /// Validates that the release belongs to the strategy (same signature,
  /// same domain) before serving from the pair. `root_cache_capacity`
  /// bounds the root cache (entries, not bytes); zero is InvalidArgument.
  [[nodiscard]] static Result<AnswerEngine> Create(
      std::shared_ptr<const serialize::StrategyArtifact> strategy,
      std::shared_ptr<const serialize::ReleaseArtifact> release,
      Domain domain,
      std::size_t root_cache_capacity = kDefaultRootCacheCapacity);

  const Domain& domain() const { return domain_; }
  const serialize::StrategyArtifact& strategy_artifact() const {
    return *strategy_;
  }
  const serialize::ReleaseArtifact& release_artifact() const {
    return *release_;
  }
  /// The Gaussian noise scale of the stored release's budget.
  double noise_scale() const { return sigma_; }

  /// Parses the predicate against the domain and answers it.
  [[nodiscard]] Result<Answer> AnswerText(const std::string& predicate_text) const;

  /// Answers one parsed predicate: the batch path at width 1.
  Answer AnswerPredicate(const query::Predicate& predicate) const;

  /// Answers a batch of concurrent queries in chunks of NormalSolveWidth(n):
  /// cached roots are reused, duplicate queries within a chunk solve once
  /// (across chunks, via the cache), and the remaining distinct roots go
  /// through the solve loop. Live memory is bounded by the loop's block
  /// budget regardless of the batch size. Entry i of the result is
  /// bit-identical to AnswerPredicate(predicates[i]).
  std::vector<Answer> AnswerBatch(
      const std::vector<query::Predicate>& predicates) const;

  /// Cache observability (tests and the serve loop's stats line).
  std::size_t root_cache_size() const;
  std::uint64_t root_cache_hits() const;
  std::uint64_t root_cache_evictions() const;

 private:
  AnswerEngine(std::shared_ptr<const serialize::StrategyArtifact> strategy,
               std::shared_ptr<const serialize::ReleaseArtifact> release,
               Domain domain, double sigma, std::size_t root_cache_capacity);

  /// Answers `count` predicates (at most the solve loop's width). Each
  /// predicate's BoxSelection gives its cache key (the per-attribute bucket
  /// masks: equal keys mean equal rows, so the key is collision-free by
  /// construction) and its value (a box sum over x_hat). Cached roots are
  /// reused; only the distinct misses build an n-length row, inside one
  /// QueryRoots call. AnswerPredicate is this at width 1.
  void AnswerChunk(const query::Predicate* predicates, std::size_t count,
                   Answer* answers) const;

  std::shared_ptr<const serialize::StrategyArtifact> strategy_;
  std::shared_ptr<const serialize::ReleaseArtifact> release_;
  Domain domain_;
  double sigma_;

  // Behind a pointer so the engine stays movable (Result<AnswerEngine>);
  // the mutex guards the LRU and the hit counter (the LRU itself is not
  // thread-safe by design — see util/lru_cache.h).
  struct RootCache {
    explicit RootCache(std::size_t capacity) : roots(capacity) {}
    Mutex mu{LockRank::kAnswerEngineRootCache};
    util::LruCache<std::string, double> roots DPMM_GUARDED_BY(mu);
    std::uint64_t hits DPMM_GUARDED_BY(mu) = 0;
  };
  std::unique_ptr<RootCache> cache_;
};

}  // namespace serve
}  // namespace dpmm

#endif  // DPMM_SERVE_ANSWER_ENGINE_H_
