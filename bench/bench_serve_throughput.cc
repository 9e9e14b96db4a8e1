// Serving throughput over stored artifacts: the "design once, serve many"
// claim measured. One process designs and stores a strategy + release; a
// simulated fresh serving process cold-loads the artifacts and answers
// streams of random ad-hoc box predicates through the AnswerEngine at
// several batch sizes, cold-root vs cache-hit. The headline number is the
// per-query latency of a cached strategy vs re-paying the eigen-design per
// query (the pre-subsystem cost model): the acceptance bar is >= 10x.
//
// Also cross-checks serving exactness (engine answers bit-identical to
// Workload::Answer on x_hat and to release::QueryErrorProfile) so the bench
// can never report a fast-but-wrong engine. Emits
// BENCH_serve_throughput.json (path via --out=FILE).
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace dpmm;

namespace {

struct BatchPoint {
  std::size_t batch = 0;
  double cold_qps = 0;  // distinct predicates, root solves included
  double hit_qps = 0;   // same predicates again, cache hits
};

struct ServeBenchResult {
  std::size_t n = 0;
  std::size_t num_queries = 0;
  std::size_t completion_rows = 0;
  double design_seconds = 0;
  double store_seconds = 0;      // design-side: artifact encode + write
  double cold_load_seconds = 0;  // serve-side: load + decode + engine create
  double redesign_per_query_seconds = 0;  // design + one answer (old model)
  double cached_per_query_seconds = 0;    // steady-state engine answer
  double speedup = 0;
  std::vector<BatchPoint> points;
  bool exact_match = false;
};

/// The dense-engine serve path (format v2): a forced-dense design stored
/// and served through the same store/engine stack as the kron path.
struct DenseServeResult {
  std::size_t n = 0;
  double design_seconds = 0;
  double cold_load_seconds = 0;
  double cold_qps = 0;  // distinct predicates, factored root solves
  double hit_qps = 0;   // same stream again, cache hits
  bool exact_match = false;
};

std::vector<query::Predicate> RandomBoxes(const Domain& domain,
                                          std::size_t count, Rng* rng) {
  std::vector<query::Predicate> preds;
  preds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<query::Condition> conjuncts;
    for (std::size_t a = 0; a < domain.num_attributes(); ++a) {
      const std::size_t d = domain.size(a);
      std::size_t lo = rng->UniformInt(d);
      std::size_t hi = rng->UniformInt(d);
      if (lo > hi) std::swap(lo, hi);
      query::Condition c;
      c.attr = a;
      c.op = query::Condition::Op::kBetween;
      c.value = lo;
      c.value2 = hi;
      conjuncts.push_back(c);
    }
    preds.emplace_back(std::move(conjuncts));
  }
  return preds;
}

serve::AnswerEngine FreshEngine(serve::StrategyStore* sstore,
                                serve::ReleaseStore* rstore,
                                const std::string& signature,
                                const Domain& domain) {
  auto strategy = sstore->Get(signature);
  DPMM_CHECK_MSG(strategy.ok(), strategy.status().ToString());
  auto release = rstore->Get(signature, 0);
  DPMM_CHECK_MSG(release.ok(), release.status().ToString());
  auto engine = serve::AnswerEngine::Create(
      std::move(strategy).ValueOrDie(), std::move(release).ValueOrDie(),
      domain);
  DPMM_CHECK_MSG(engine.ok(), engine.status().ToString());
  return std::move(engine).ValueOrDie();
}

ServeBenchResult Run(std::size_t side, std::size_t num_queries) {
  ServeBenchResult res;
  res.num_queries = num_queries;
  Domain domain({side, side});
  AllRangeWorkload w(domain);
  res.n = w.num_cells();
  const PrivacyParams budget{0.5, 1e-4};
  const std::string signature = serve::CanonicalSignature("allrange", domain);

  std::string root = "/tmp/dpmm_serve_bench_XXXXXX";
  DPMM_CHECK_MSG(::mkdtemp(root.data()) != nullptr, "mkdtemp failed");

  // [1] The design-side process: design, release, store.
  std::printf("\n[1] design + release + store: 2D all-range %zu^2 (n = %zu)\n",
              side, res.n);
  optimize::DesignOptions options;
  options.solver.max_iterations = 600;
  options.engine = optimize::EngineSelection::kKron;
  Stopwatch sw;
  auto design = optimize::Design(w, options);
  res.design_seconds = sw.Seconds();
  DPMM_CHECK_MSG(design.ok(), "kron eigen-design failed");
  auto& d = design.ValueOrDie();
  res.completion_rows = d.strategy->num_queries() - d.rank;
  std::printf("  designed in %.3f s (rank %zu, %zu completion rows)\n",
              res.design_seconds, d.rank, res.completion_rows);

  linalg::Vector x(res.n);
  {
    Rng data_rng(99);
    for (auto& v : x) v = static_cast<double>(data_rng.UniformInt(100));
  }
  Rng rng(20260728);
  auto batch = release::ReleaseBatch(*d.strategy, x, {budget}, &rng);

  sw.Restart();
  {
    serialize::StrategyArtifact sa;
    sa.signature = signature;
    sa.domain_sizes = domain.sizes();
    sa.strategy = d.strategy;
    sa.solver_report = d.solver_report;
    sa.duality_gap = d.duality_gap;
    sa.rank = d.rank;
    serve::StrategyStore sstore(root);
    DPMM_CHECK_MSG(sstore.Put(sa).ok(), "strategy store put failed");
    serialize::ReleaseArtifact ra;
    ra.signature = signature;
    ra.domain_sizes = domain.sizes();
    ra.budget = budget;
    ra.dataset = "bench";
    ra.seed = 20260728;
    ra.batch_index = 0;
    ra.x_hat = batch.x_hats[0];
    DPMM_CHECK_MSG(serve::ReleaseStore(root).Put(ra).ok(),
                   "release store put failed");
  }
  res.store_seconds = sw.Seconds();
  std::printf("  stored both artifacts in %.4f s under %s\n",
              res.store_seconds, root.c_str());

  // [2] A fresh serving process: cold-load the artifacts from disk.
  std::printf("\n[2] cold start of a serving process\n");
  sw.Restart();
  serve::StrategyStore sstore(root);
  serve::ReleaseStore rstore(root);
  serve::AnswerEngine engine = FreshEngine(&sstore, &rstore, signature, domain);
  res.cold_load_seconds = sw.Seconds();
  std::printf("  loaded strategy + release + engine in %.4f s\n",
              res.cold_load_seconds);

  // Exactness cross-check before any timing is trusted.
  {
    Rng check_rng(5);
    const auto preds = RandomBoxes(domain, 8, &check_rng);
    linalg::Matrix rows(preds.size(), domain.NumCells());
    for (std::size_t q = 0; q < preds.size(); ++q) {
      rows.SetRow(q, preds[q].ToRow(domain));
    }
    ExplicitWorkload reference(domain, rows, "bench-adhoc");
    const linalg::Vector values = reference.Answer(batch.x_hats[0]);
    const linalg::Vector profile =
        release::QueryErrorProfile(reference, *d.strategy, budget);
    res.exact_match = true;
    const auto answers = engine.AnswerBatch(preds);
    for (std::size_t q = 0; q < preds.size(); ++q) {
      if (std::memcmp(&answers[q].value, &values[q], sizeof(double)) != 0 ||
          std::memcmp(&answers[q].stddev, &profile[q], sizeof(double)) != 0) {
        res.exact_match = false;
      }
    }
    std::printf("  exactness vs Workload::Answer + QueryErrorProfile: %s\n",
                res.exact_match ? "bit-identical" : "MISMATCH");
  }

  // [3] Throughput vs batch size: distinct predicates (cold roots), then
  // the same stream again (cache hits).
  std::printf("\n[3] ad-hoc query throughput (%zu random boxes per run)\n",
              num_queries);
  const std::size_t batch_sizes[] = {1, 4, 16, 32};
  for (std::size_t bs : batch_sizes) {
    Rng qrng(1000 + bs);
    const auto preds = RandomBoxes(domain, num_queries, &qrng);
    serve::AnswerEngine fresh =
        FreshEngine(&sstore, &rstore, signature, domain);
    BatchPoint point;
    point.batch = bs;
    sw.Restart();
    for (std::size_t q0 = 0; q0 < preds.size(); q0 += bs) {
      const std::size_t q1 = std::min(preds.size(), q0 + bs);
      if (bs == 1) {
        fresh.AnswerPredicate(preds[q0]);
      } else {
        fresh.AnswerBatch(std::vector<query::Predicate>(
            preds.begin() + static_cast<std::ptrdiff_t>(q0),
            preds.begin() + static_cast<std::ptrdiff_t>(q1)));
      }
    }
    const double cold_seconds = sw.Seconds();
    point.cold_qps = static_cast<double>(preds.size()) / cold_seconds;
    sw.Restart();
    for (std::size_t q0 = 0; q0 < preds.size(); q0 += bs) {
      const std::size_t q1 = std::min(preds.size(), q0 + bs);
      if (bs == 1) {
        fresh.AnswerPredicate(preds[q0]);
      } else {
        fresh.AnswerBatch(std::vector<query::Predicate>(
            preds.begin() + static_cast<std::ptrdiff_t>(q0),
            preds.begin() + static_cast<std::ptrdiff_t>(q1)));
      }
    }
    const double hit_seconds = sw.Seconds();
    point.hit_qps = static_cast<double>(preds.size()) / hit_seconds;
    std::printf("  batch %2zu: %9.1f q/s cold roots, %11.1f q/s cache hits\n",
                bs, point.cold_qps, point.hit_qps);
    if (bs == 1) {
      res.cached_per_query_seconds = cold_seconds /
                                     static_cast<double>(preds.size());
    }
    res.points.push_back(point);
  }

  // [4] The headline: per-query latency with vs without the store. Without
  // it, every query re-pays the eigen-design (the pre-subsystem model).
  res.redesign_per_query_seconds =
      res.design_seconds + res.cached_per_query_seconds;
  res.speedup = res.redesign_per_query_seconds / res.cached_per_query_seconds;
  std::printf("\n[4] per-query latency: redesign-every-time %.3f s vs cached "
              "%.6f s  ->  %.0fx\n",
              res.redesign_per_query_seconds, res.cached_per_query_seconds,
              res.speedup);
  return res;
}

DenseServeResult RunDense(std::size_t side, std::size_t num_queries) {
  DenseServeResult res;
  Domain domain({side, side});
  AllRangeWorkload w(domain);
  res.n = w.num_cells();
  const PrivacyParams budget{0.5, 1e-4};
  const std::string signature =
      serve::CanonicalSignature("allrange-dense", domain);

  std::string root = "/tmp/dpmm_serve_bench_dense_XXXXXX";
  DPMM_CHECK_MSG(::mkdtemp(root.data()) != nullptr, "mkdtemp failed");

  std::printf("\n[5] dense engine: 2D all-range %zu^2 (n = %zu), forced "
              "--engine dense\n",
              side, res.n);
  optimize::DesignOptions options;
  options.engine = optimize::EngineSelection::kDense;
  options.solver.max_iterations = 600;
  Stopwatch sw;
  auto design = optimize::Design(w, options);
  res.design_seconds = sw.Seconds();
  DPMM_CHECK_MSG(design.ok(), "dense design failed");
  auto& d = design.ValueOrDie();
  DPMM_CHECK_MSG(d.engine == StrategyEngine::kDense, "engine not dense");

  linalg::Vector x(res.n);
  {
    Rng data_rng(99);
    for (auto& v : x) v = static_cast<double>(data_rng.UniformInt(100));
  }
  Rng rng(20260728);
  auto batch = release::ReleaseBatch(*d.strategy, x, {budget}, &rng);
  {
    serialize::StrategyArtifact sa;
    sa.signature = signature;
    sa.domain_sizes = domain.sizes();
    sa.strategy = d.strategy;
    sa.solver_report = d.solver_report;
    sa.duality_gap = d.duality_gap;
    sa.rank = d.rank;
    DPMM_CHECK_MSG(serve::StrategyStore(root).Put(sa).ok(),
                   "dense strategy store put failed");
    serialize::ReleaseArtifact ra;
    ra.signature = signature;
    ra.domain_sizes = domain.sizes();
    ra.budget = budget;
    ra.dataset = "bench-dense";
    ra.seed = 20260728;
    ra.batch_index = 0;
    ra.x_hat = batch.x_hats[0];
    DPMM_CHECK_MSG(serve::ReleaseStore(root).Put(ra).ok(),
                   "dense release store put failed");
  }

  sw.Restart();
  serve::StrategyStore sstore(root);
  serve::ReleaseStore rstore(root);
  serve::AnswerEngine engine = FreshEngine(&sstore, &rstore, signature, domain);
  res.cold_load_seconds = sw.Seconds();
  std::printf("  designed in %.3f s, cold-loaded dense artifact + engine in "
              "%.4f s\n",
              res.design_seconds, res.cold_load_seconds);

  {
    Rng check_rng(5);
    const auto preds = RandomBoxes(domain, 8, &check_rng);
    linalg::Matrix rows(preds.size(), domain.NumCells());
    for (std::size_t q = 0; q < preds.size(); ++q) {
      rows.SetRow(q, preds[q].ToRow(domain));
    }
    ExplicitWorkload reference(domain, rows, "bench-adhoc-dense");
    const linalg::Vector values = reference.Answer(batch.x_hats[0]);
    const linalg::Vector profile =
        release::QueryErrorProfile(reference, *d.strategy, budget);
    res.exact_match = true;
    const auto answers = engine.AnswerBatch(preds);
    for (std::size_t q = 0; q < preds.size(); ++q) {
      if (std::memcmp(&answers[q].value, &values[q], sizeof(double)) != 0 ||
          std::memcmp(&answers[q].stddev, &profile[q], sizeof(double)) != 0) {
        res.exact_match = false;
      }
    }
    std::printf("  exactness vs Workload::Answer + QueryErrorProfile: %s\n",
                res.exact_match ? "bit-identical" : "MISMATCH");
  }

  Rng qrng(4242);
  const auto preds = RandomBoxes(domain, num_queries, &qrng);
  sw.Restart();
  engine.AnswerBatch(preds);
  res.cold_qps = static_cast<double>(preds.size()) / sw.Seconds();
  sw.Restart();
  engine.AnswerBatch(preds);
  res.hit_qps = static_cast<double>(preds.size()) / sw.Seconds();
  std::printf("  %9.1f q/s cold roots, %11.1f q/s cache hits\n", res.cold_qps,
              res.hit_qps);
  return res;
}

void WriteJson(const std::string& path, const ServeBenchResult& r,
               const DenseServeResult& dense) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("could not open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"serve_throughput\",\n");
  std::fprintf(f, "  \"n\": %zu,\n", r.n);
  std::fprintf(f, "  \"num_queries\": %zu,\n", r.num_queries);
  std::fprintf(f, "  \"completion_rows\": %zu,\n", r.completion_rows);
  std::fprintf(f, "  \"design_seconds\": %.6f,\n", r.design_seconds);
  std::fprintf(f, "  \"store_seconds\": %.6f,\n", r.store_seconds);
  std::fprintf(f, "  \"cold_load_seconds\": %.6f,\n", r.cold_load_seconds);
  std::fprintf(f, "  \"redesign_per_query_seconds\": %.6f,\n",
               r.redesign_per_query_seconds);
  std::fprintf(f, "  \"cached_per_query_seconds\": %.9f,\n",
               r.cached_per_query_seconds);
  std::fprintf(f, "  \"speedup_cached_vs_redesign\": %.1f,\n", r.speedup);
  std::fprintf(f, "  \"throughput\": [\n");
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    std::fprintf(f,
                 "    {\"batch\": %zu, \"cold_qps\": %.1f, "
                 "\"hit_qps\": %.1f}%s\n",
                 r.points[i].batch, r.points[i].cold_qps, r.points[i].hit_qps,
                 i + 1 < r.points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"exact_match\": %s,\n", r.exact_match ? "true" : "false");
  std::fprintf(f, "  \"dense\": {\n");
  std::fprintf(f, "    \"n\": %zu,\n", dense.n);
  std::fprintf(f, "    \"design_seconds\": %.6f,\n", dense.design_seconds);
  std::fprintf(f, "    \"cold_load_seconds\": %.6f,\n",
               dense.cold_load_seconds);
  std::fprintf(f, "    \"cold_qps\": %.1f,\n", dense.cold_qps);
  std::fprintf(f, "    \"hit_qps\": %.1f,\n", dense.hit_qps);
  std::fprintf(f, "    \"exact_match\": %s\n",
               dense.exact_match ? "true" : "false");
  std::fprintf(f, "  },\n");
  bench::WriteMetricsJsonMember(f);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("Serving throughput over stored artifacts",
                "beyond-paper: design once, serve many (ROADMAP serving tier)");
  const bool small = bench::SmallScale(argc, argv);
  std::string out = "BENCH_serve_throughput.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out = arg.substr(6);
  }
  const ServeBenchResult r = small ? Run(16, 64) : Run(32, 256);
  const DenseServeResult dense = small ? RunDense(8, 64) : RunDense(16, 256);
  WriteJson(out, r, dense);
  return r.exact_match && dense.exact_match && r.speedup >= 10.0 ? 0 : 1;
}
