#include "serve/answer_engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "mechanism/error.h"
#include "mechanism/privacy.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace dpmm {
namespace serve {

namespace {

/// Registry instruments, resolved once. Recording is pure observation —
/// answers and released bytes are computed exactly as before.
struct EngineMetrics {
  Counter* queries = MetricsRegistry::Global().GetCounter(
      "dpmm.serve.answer_engine.queries");
  Counter* cache_hit = MetricsRegistry::Global().GetCounter(
      "dpmm.serve.answer_engine.root_cache_hit");
  Counter* cache_miss = MetricsRegistry::Global().GetCounter(
      "dpmm.serve.answer_engine.root_cache_miss");
  Counter* cache_evict = MetricsRegistry::Global().GetCounter(
      "dpmm.serve.answer_engine.root_cache_evict");
  Histogram* query_ns = MetricsRegistry::Global().GetHistogram(
      "dpmm.serve.answer_engine.query_ns");
  Histogram* batch_size = MetricsRegistry::Global().GetHistogram(
      "dpmm.serve.answer_engine.batch_size");
};

EngineMetrics& Instruments() {
  static EngineMetrics m;
  return m;
}

}  // namespace

Result<AnswerEngine> AnswerEngine::Create(
    std::shared_ptr<const serialize::StrategyArtifact> strategy,
    std::shared_ptr<const serialize::ReleaseArtifact> release, Domain domain,
    std::size_t root_cache_capacity) {
  if (strategy == nullptr || release == nullptr ||
      strategy->strategy == nullptr) {
    return Status::InvalidArgument("answer engine needs both artifacts");
  }
  if (release->signature != strategy->signature) {
    return Status::InvalidArgument(
        "release is for '" + release->signature + "' but the strategy is '" +
        strategy->signature + "' — refusing to serve a mismatched pair");
  }
  if (strategy->domain_sizes != domain.sizes() ||
      release->domain_sizes != domain.sizes()) {
    return Status::InvalidArgument(
        "artifact domain disagrees with the serving domain " +
        domain.ToString());
  }
  if (strategy->strategy->num_cells() != domain.NumCells() ||
      release->x_hat.size() != domain.NumCells()) {
    return Status::InvalidArgument("artifact sizes disagree with the domain");
  }
  if (root_cache_capacity == 0) {
    return Status::InvalidArgument("root cache capacity must be positive");
  }
  // Refuse a budget the Gaussian calibration would abort on (NaN included).
  const PrivacyParams& budget = release->budget;
  if (!(budget.epsilon > 0 && std::isfinite(budget.epsilon)) ||
      !(budget.delta > 0 && budget.delta < 1)) {
    return Status::InvalidArgument(
        "release budget must have epsilon > 0 and 0 < delta < 1");
  }
  const double sigma = GaussianNoiseScale(
      release->budget, strategy->strategy->L2Sensitivity());
  return AnswerEngine(std::move(strategy), std::move(release),
                      std::move(domain), sigma, root_cache_capacity);
}

AnswerEngine::AnswerEngine(
    std::shared_ptr<const serialize::StrategyArtifact> strategy,
    std::shared_ptr<const serialize::ReleaseArtifact> release, Domain domain,
    double sigma, std::size_t root_cache_capacity)
    : strategy_(std::move(strategy)),
      release_(std::move(release)),
      domain_(std::move(domain)),
      sigma_(sigma),
      cache_(new RootCache(root_cache_capacity)) {}

void AnswerEngine::AnswerChunk(const query::Predicate* predicates,
                               std::size_t count, Answer* answers) const {
  EngineMetrics& m = Instruments();
  PerfContext* perf = GetPerfContext();
  std::vector<query::BoxSelection> boxes;
  boxes.reserve(count);
  std::vector<double> roots(count, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    boxes.emplace_back(predicates[i], domain_);
    answers[i].value = boxes[i].Sum(release_->x_hat);
  }

  // Resolve cached keys and collect the distinct misses (duplicates within
  // the chunk solve once).
  std::vector<std::size_t> miss_rep;  // representative index per new key
  std::unordered_map<std::string, std::size_t> miss_slot;
  perf->root_cache_probes += count;
  {
    MutexLock lock(&cache_->mu);
    for (std::size_t i = 0; i < count; ++i) {
      if (const double* hit = cache_->roots.Get(boxes[i].key())) {
        roots[i] = *hit;
        ++cache_->hits;
        m.cache_hit->Add(1);
        ++perf->root_cache_hits;
      } else if (miss_slot.emplace(boxes[i].key(), miss_rep.size()).second) {
        miss_rep.push_back(i);
      }
    }
  }
  m.cache_miss->Add(miss_rep.size());
  perf->root_solves += miss_rep.size();

  // Solve outside the lock so concurrent readers make progress; racing
  // solvers of the same key compute the identical root, so last-writer-wins
  // insertion is harmless.
  linalg::Vector miss_roots;
  if (!miss_rep.empty()) {
    {
      PerfTimer solve_timer(&perf->normal_solve_ns);
      miss_roots =
          QueryRoots(*strategy_->strategy, miss_rep.size(),
                     [&](std::size_t s) { return boxes[miss_rep[s]].ToRow(); });
    }
    MutexLock lock(&cache_->mu);
    const std::uint64_t evictions_before = cache_->roots.evictions();
    for (const auto& [key, slot] : miss_slot) {
      cache_->roots.Put(key, miss_roots[slot]);
    }
    m.cache_evict->Add(cache_->roots.evictions() - evictions_before);
  }
  for (std::size_t i = 0; i < count; ++i) {
    auto it = miss_slot.find(boxes[i].key());
    if (it != miss_slot.end()) roots[i] = miss_roots[it->second];
    answers[i].stddev = sigma_ * roots[i];
  }
}

AnswerEngine::Answer AnswerEngine::AnswerPredicate(
    const query::Predicate& predicate) const {
  EngineMetrics& m = Instruments();
  TraceSpan span("AnswerPredicate", "serve");
  const std::uint64_t t0 = MonotonicNanos();
  Answer out;
  AnswerChunk(&predicate, 1, &out);
  m.queries->Add(1);
  m.query_ns->Record(MonotonicNanos() - t0);
  return out;
}

Result<AnswerEngine::Answer> AnswerEngine::AnswerText(
    const std::string& predicate_text) const {
  auto parsed = query::ParsePredicate(predicate_text, domain_);
  if (!parsed.ok()) return parsed.status();
  return AnswerPredicate(parsed.ValueOrDie());
}

std::vector<AnswerEngine::Answer> AnswerEngine::AnswerBatch(
    const std::vector<query::Predicate>& predicates) const {
  const std::size_t q = predicates.size();
  EngineMetrics& m = Instruments();
  TraceSpan span("AnswerBatch", "serve");
  const std::uint64_t t0 = MonotonicNanos();
  m.batch_size->Record(q);
  std::vector<Answer> answers(q);
  // One chunk at the solve loop's width at a time, so live memory is
  // bounded no matter how many predicates a client batches. Chunking cannot
  // change results: each root's solve is bit-identical to a solo solve, and
  // a duplicate landing in a later chunk reads the root its predecessor
  // just cached.
  const std::size_t width = NormalSolveWidth(domain_.NumCells());
  for (std::size_t c0 = 0; c0 < q; c0 += width) {
    AnswerChunk(&predicates[c0], std::min(q - c0, width), &answers[c0]);
  }
  m.queries->Add(q);
  if (q > 0) m.query_ns->Record((MonotonicNanos() - t0) / q);
  return answers;
}

std::size_t AnswerEngine::root_cache_size() const {
  MutexLock lock(&cache_->mu);
  return cache_->roots.size();
}

std::uint64_t AnswerEngine::root_cache_hits() const {
  MutexLock lock(&cache_->mu);
  return cache_->hits;
}

std::uint64_t AnswerEngine::root_cache_evictions() const {
  MutexLock lock(&cache_->mu);
  return cache_->roots.evictions();
}

}  // namespace serve
}  // namespace dpmm
