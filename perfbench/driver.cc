// Benchmark driver for the dpmm library. One process runs one named
// workload through the public API — the call sequence `dpmm_cli design`,
// `release --store` and `serve` run — and prints one JSON report line:
//
//   perfbench_driver --workload design|release|serve|adhoc --seed N
//                    --seconds S --trace 0|1 --work-dir DIR [--spans FILE]
//
// Every workload is a single closed-loop client: the next request is issued
// only after the previous one returned. Set-up is repeated kSetupReps times
// (median reported) and excluded from the measured phase, which runs for
// --seconds and at least the workload's counter window of requests.
//
// --trace 0 reports the end-to-end metrics. --trace 1 also wraps every
// public call the driver makes in a span (perfbench/tracer.h), runs a fixed
// probe of each layer's public functions on the workload's own strategy and
// data, and reports the per-layer metrics; the spans are written to --spans.
// Registry counters are deltas over the first `window` requests, so they
// repeat exactly for a fixed seed in either mode.
//
// Every run checks what it produced; each failed check or request counts in
// "failed" and makes the process exit 1 after printing its report.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dpmm/dpmm.h"
#include "perfbench/tracer.h"

namespace perfbench {
namespace {

using dpmm::Domain;
using dpmm::LinearStrategy;
using dpmm::PrivacyParams;
using dpmm::Rng;
using dpmm::Stopwatch;
using dpmm::linalg::Matrix;
using dpmm::linalg::Vector;
namespace optimize = dpmm::optimize;
namespace release = dpmm::release;
namespace serialize = dpmm::serialize;
namespace serve = dpmm::serve;
namespace query = dpmm::query;

/// The paper's privacy setting, charged once per request.
const PrivacyParams kBudget{0.5, 1e-4};
/// Lifetime budget of every benchmark dataset: room for this many requests.
constexpr double kLifetimeRequests = 10000;
const PrivacyParams kLifetime{kBudget.epsilon * kLifetimeRequests,
                              kBudget.delta * kLifetimeRequests};
constexpr int kSetupReps = 5;
/// The probe set behind answer_sd and the noise audit is fixed (not drawn
/// from --seed), so answer_sd moves only when the strategy does.
constexpr std::uint64_t kProbeSeed = 20120827;
constexpr std::size_t kProbeQueries = 32;
constexpr std::uint64_t kAdhocBoxesSeed = 2048;
/// Served values and error bars must match the reference computed from
/// x_hat and release::QueryErrorProfile to this relative tolerance.
constexpr double kMatchRelTol = 1e-9;
constexpr double kSensitivityTol = 1e-9;
/// Two-sided bound on the RMS z-score of released probe answers.
constexpr double kAuditLow = 0.85;
constexpr double kAuditHigh = 1.15;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string spans;
};

struct Report {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, double> counters;
  std::map<std::string, double> info;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one operation (request, set-up or check) and its outcome.
  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
};

// ---- Small numeric helpers -----------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Rms(const Vector& v) {
  double s = 0;
  for (double x : v) s += x * x;
  return v.empty() ? 0 : std::sqrt(s / static_cast<double>(v.size()));
}

double Dot(const Vector& a, const Vector& b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

bool RelClose(double got, double want, double tol) {
  return std::fabs(got - want) <= tol * std::max(1.0, std::fabs(want));
}

std::uint64_t Digest(const Vector& v) {
  return serialize::Fnv1a64(v.data(), v.size() * sizeof(double));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs fn `reps` times, each in a span, and returns the median in ms.
double TimedMs(Tracer* tracer, const char* name, int reps,
               const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Span span(tracer, name);
    Stopwatch sw;
    fn();
    ms.push_back(sw.Millis());
  }
  return Median(ms);
}

// ---- Inputs ----------------------------------------------------------------

Vector SeededCounts(std::size_t n, Rng* rng) {
  Vector x(n);
  for (double& v : x) v = static_cast<double>(rng->UniformInt(100));
  return x;
}

std::vector<query::Predicate> RandomBoxes(const Domain& domain,
                                          std::size_t count, Rng* rng) {
  std::vector<query::Predicate> boxes;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<query::Condition> conjuncts;
    for (std::size_t a = 0; a < domain.num_attributes(); ++a) {
      std::size_t lo = rng->UniformInt(domain.size(a));
      std::size_t hi = rng->UniformInt(domain.size(a));
      if (lo > hi) std::swap(lo, hi);
      query::Condition c;
      c.attr = a;
      c.op = query::Condition::Op::kBetween;
      c.value = lo;
      c.value2 = hi;
      conjuncts.push_back(c);
    }
    boxes.emplace_back(std::move(conjuncts));
  }
  return boxes;
}

std::string BoxText(const query::Predicate& p, const Domain& domain) {
  std::string text;
  for (const query::Condition& c : p.conjuncts()) {
    if (!text.empty()) text += " AND ";
    text += domain.attribute_name(c.attr) + " IN [" + std::to_string(c.value) +
            ", " + std::to_string(c.value2) + "]";
  }
  return text;
}

dpmm::ExplicitWorkload RowsWorkload(const Domain& domain,
                                    const std::vector<query::Predicate>& preds,
                                    const std::string& name) {
  Matrix rows(preds.size(), domain.NumCells());
  for (std::size_t q = 0; q < preds.size(); ++q) {
    rows.SetRow(q, preds[q].ToRow(domain));
  }
  return dpmm::ExplicitWorkload(domain, std::move(rows), name);
}

/// The fixed probe set of box queries over a domain.
dpmm::ExplicitWorkload ProbeWorkload(const Domain& domain) {
  Rng rng(kProbeSeed);
  return RowsWorkload(domain, RandomBoxes(domain, kProbeQueries, &rng),
                      "probe");
}

// ---- Quality and correctness checks ----------------------------------------

/// Predicted per-query error of a design (Def. 5, from its trace term) over
/// the Thm. 2 SVD lower bound for the same workload.
double ErrRatio(const optimize::DesignResult& d, const Vector& spectrum,
                std::size_t num_queries) {
  dpmm::ErrorOptions opts;
  opts.privacy = kBudget;
  return dpmm::ErrorFromTrace(1.0, d.predicted_objective, num_queries, opts) /
         dpmm::SvdErrorLowerBound(spectrum, num_queries, opts);
}

/// The workload Gram spectrum: factored for structured workloads, a dense
/// eigensolve for explicit ones.
Vector Spectrum(const dpmm::Workload& w) {
  if (auto eigen = w.ImplicitEigen()) return eigen->values;
  auto dense = dpmm::linalg::SymmetricEigen(w.Gram());
  return dense.ok() ? dense.ValueOrDie().values : Vector{};
}

void CheckDesign(const std::string& label, const optimize::DesignResult& d,
                 const dpmm::Workload& w, Report* r, double* err_ratio) {
  const double sens = d.strategy->L2Sensitivity();
  r->Op(std::fabs(sens - 1.0) <= kSensitivityTol,
        "check: " + label + " strategy L2 sensitivity " +
            std::to_string(sens) + " != 1");
  const double ratio = ErrRatio(d, Spectrum(w), w.num_queries());
  r->Op(std::isfinite(ratio) && ratio >= 1.0 - 1e-9,
        "check: " + label + " error below the SVD lower bound (ratio " +
            std::to_string(ratio) + ")");
  *err_ratio = std::max(*err_ratio, ratio);
  r->info["err_ratio." + label] = ratio;
  r->info["gap." + label] = d.duality_gap;
}

/// Every stored release re-reads bit-identical through a fresh store.
struct StoredRelease {
  std::size_t id;
  std::uint64_t digest;
  std::size_t batch_index;
};

void CheckReread(const std::string& root, const std::string& signature,
                 const std::vector<StoredRelease>& stored, Report* r) {
  serve::ReleaseStore fresh(root);
  std::size_t bad = 0;
  for (const StoredRelease& s : stored) {
    auto got = fresh.Get(signature, s.id);
    if (!got.ok() || Digest(got.ValueOrDie()->x_hat) != s.digest ||
        got.ValueOrDie()->batch_index != s.batch_index) {
      ++bad;
    }
  }
  r->Op(bad == 0 && !stored.empty(),
        "check: " + std::to_string(bad) + " of " +
            std::to_string(stored.size()) + " stored releases re-read "
            "differently");
  r->info["releases_stored"] = static_cast<double>(stored.size());
}

/// The ledger's final spend equals the successful charges times the budget.
void CheckLedger(const std::string& root, const std::string& dataset,
                 std::size_t charges, Report* r) {
  serve::BudgetLedger ledger(root);
  auto entry = ledger.Read(dataset);
  const double want_eps = static_cast<double>(charges) * kBudget.epsilon;
  const double want_delta = static_cast<double>(charges) * kBudget.delta;
  const bool ok = entry.ok() && entry.ValueOrDie().charges == charges &&
                  RelClose(entry.ValueOrDie().spent.epsilon, want_eps, 1e-12) &&
                  RelClose(entry.ValueOrDie().spent.delta, want_delta, 1e-9);
  r->Op(ok, "check: ledger spent does not equal " + std::to_string(charges) +
                " charges x eps");
}

// ---- Registry counters -----------------------------------------------------

std::map<std::string, double> CounterSnapshot() {
  const dpmm::MetricsSnapshot snap = dpmm::MetricsRegistry::Global().Snapshot();
  std::map<std::string, double> m;
  for (const auto& c : snap.counters) {
    m[c.first] = static_cast<double>(c.second);
  }
  for (const auto& h : snap.histograms) {
    m[h.name + ".count"] = static_cast<double>(h.count);
    m[h.name + ".sum"] = static_cast<double>(h.sum);
  }
  return m;
}

void ReportCounters(const std::map<std::string, double>& before,
                    const std::map<std::string, double>& after, Report* r) {
  auto delta = [&](const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  };
  const double hits = delta("dpmm.serve.answer_engine.root_cache_hit");
  const double misses = delta("dpmm.serve.answer_engine.root_cache_miss");
  r->counters["serve.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  r->counters["serve.wal_appends"] = delta("dpmm.serve.wal.appends");
  r->counters["serve.wal_fsyncs"] = delta("dpmm.serve.wal.fsync_ns.count");
  r->counters["serve.ledger_checkpoints"] =
      delta("dpmm.serve.budget_ledger.checkpoints");
  r->counters["serve.store_writes"] =
      delta("dpmm.serve.store.artifact_writes");
  r->counters["mechanism.releases"] =
      delta("dpmm.mechanism.matrix_mechanism.releases");
  r->counters["query.parses"] = delta("dpmm.query.predicate.parses");
  r->counters["util.pool_regions"] = delta("dpmm.util.thread_pool.regions");
  r->counters["optimize.solver_iterations"] =
      delta("dpmm.optimize.dual_solver.iterations.sum");
}

// ---- The closed loop -------------------------------------------------------

/// Runs `request` until --seconds have passed and at least `window`
/// requests completed; registry counters are taken over the first `window`.
/// Returns each request's latency in seconds. `after` runs between
/// requests, outside the timed region (driver-side checks).
std::vector<double> ClosedLoop(const Options& opt, Tracer* tracer,
                               std::size_t window,
                               const std::function<bool()>& request,
                               const std::function<void()>& after,
                               Report* r) {
  std::vector<double> latencies;
  const auto before = CounterSnapshot();
  Stopwatch elapsed;
  while (elapsed.Seconds() < opt.seconds || latencies.size() < window) {
    bool ok = false;
    {
      Span span(tracer, "bench.request");
      Stopwatch sw;
      ok = request();
      latencies.push_back(sw.Seconds());
    }
    r->Op(ok, "request " + std::to_string(latencies.size()) + " failed");
    if (after) after();
    if (latencies.size() == window) ReportCounters(before, CounterSnapshot(), r);
  }
  return latencies;
}

void ReportLatencies(const std::vector<double>& lat_s, double tail_q,
                     Report* r) {
  r->e2e["throughput_per_s"] = static_cast<double>(lat_s.size()) / Sum(lat_s);
  r->e2e["lat_p50_ms"] = Median(lat_s) * 1e3;
  r->e2e["lat_tail_ms"] = Quantile(lat_s, tail_q) * 1e3;
  r->info["requests"] = static_cast<double>(lat_s.size());
  r->info["tail_quantile"] = tail_q;
}

// ---- The layer probe (traced runs only) -------------------------------------

/// One designed strategy with the inputs the probe needs.
struct Subject {
  const dpmm::Workload* workload;
  std::shared_ptr<const LinearStrategy> strategy;
  const Vector* x;
  std::string signature;
  std::size_t batch;  // releases per ReleaseBatch on this workload's path
};

/// Times one public call per layer on the subject (median of a few calls,
/// each in its own span) and returns metric -> value. Calls the measured
/// phase already makes are reported from its spans instead (ReportLayers).
std::map<std::string, double> ProbeLayers(const Subject& s,
                                          const std::string& root,
                                          Tracer* t, Report* r) {
  std::map<std::string, double> m;
  const Domain& domain = s.workload->domain();
  const std::size_t n = domain.NumCells();
  const Vector& x = *s.x;
  Span probe(t, "bench.probe");

  // workload + linalg: the Gram spectrum, then one pass of its eigenbasis
  // (Kronecker vec-trick, 2 n sum(d_i) flops; dense matvec, 2 n^2).
  double flops = 0;
  if (s.workload->ImplicitEigen().has_value()) {
    std::optional<dpmm::linalg::KronEigenResult> eigen;
    m["workload.eigen_ms"] = TimedMs(t, "workload.eigen", 3, [&] {
      eigen = s.workload->ImplicitEigen();
    });
    double sum_d = 0;
    for (std::size_t a = 0; a < domain.num_attributes(); ++a) {
      sum_d += static_cast<double>(domain.size(a));
    }
    flops = 2.0 * static_cast<double>(n) * sum_d;
    m["linalg.pass_us"] = 1e3 * TimedMs(t, "linalg.pass", 5, [&] {
      eigen->basis.Apply(x);
    });
  } else {
    dpmm::linalg::SymmetricEigenResult eigen;
    m["workload.eigen_ms"] = TimedMs(t, "workload.eigen", 3, [&] {
      auto e = dpmm::linalg::SymmetricEigen(s.workload->Gram());
      r->Op(e.ok(), "probe: dense eigensolve failed");
      if (e.ok()) eigen = std::move(e).ValueOrDie();
    });
    flops = 2.0 * static_cast<double>(n) * static_cast<double>(n);
    m["linalg.pass_us"] = 1e3 * TimedMs(t, "linalg.pass", 5, [&] {
      dpmm::linalg::MatVec(eigen.vectors, x);
    });
  }
  m["linalg.pass_gflops"] = flops / (m["linalg.pass_us"] * 1e3);

  // strategy: A x, one normal solve, a block solve of 8 right-hand sides.
  Rng rng(kProbeSeed + 1);
  const auto boxes = RandomBoxes(domain, 8, &rng);
  std::vector<Vector> rows;
  for (const auto& b : boxes) rows.push_back(b.ToRow(domain));
  m["strategy.apply_ms"] = TimedMs(t, "strategy.apply", 5, [&] {
    s.strategy->Apply(x);
  });
  m["strategy.solve_ms"] = TimedMs(t, "strategy.solve", 3, [&] {
    s.strategy->SolveNormal(rows[0]);
  });
  m["strategy.solve_batch_ms"] = TimedMs(t, "strategy.solve_batch", 2, [&] {
    s.strategy->SolveNormalBatch(rows);
  });

  // mechanism: prepare once per budget, release from a prepared mechanism.
  std::unique_ptr<dpmm::Mechanism> mech;
  m["mechanism.prepare_ms"] = TimedMs(t, "mechanism.prepare", 3, [&] {
    auto prepared = dpmm::Mechanism::Prepare(s.strategy, kBudget);
    r->Op(prepared.ok(), "probe: Mechanism::Prepare failed");
    if (prepared.ok()) {
      mech = std::make_unique<dpmm::Mechanism>(
          std::move(prepared).ValueOrDie());
    }
  });
  if (mech != nullptr) {
    m["mechanism.release_ms"] = TimedMs(t, "mechanism.release", 3, [&] {
      mech->Release(x, &rng);
    });
  }

  // release + serialize + serve: the store-and-serve path on this subject.
  const auto budgets = release::SplitBudget(
      kBudget, std::vector<double>(s.batch, 1.0));
  release::BatchReleaseResult batch;
  m["release.batch_ms"] = TimedMs(t, "release.batch", 2, [&] {
    batch = release::ReleaseBatch(*s.strategy, x, budgets, &rng);
  });
  serialize::ReleaseArtifact rel;
  rel.signature = s.signature;
  rel.domain_sizes = domain.sizes();
  rel.budget = budgets[0];
  rel.dataset = "probe";
  rel.seed = kProbeSeed;
  rel.x_hat = batch.x_hats[0];
  m["serialize.encode_us"] = 1e3 * TimedMs(t, "serialize.encode", 5, [&] {
    serialize::EncodeReleaseArtifact(rel);
  });
  serialize::StrategyArtifact art;
  art.signature = s.signature;
  art.domain_sizes = domain.sizes();
  art.strategy = s.strategy;
  TimedMs(t, "serve.strategy_put", 1, [&] {
    r->Op(serve::StrategyStore(root).Put(art).ok(),
          "probe: StrategyStore::Put failed");
  });
  serve::ReleaseStore rstore(root);
  m["serve.put_ms"] = TimedMs(t, "serve.put", 3, [&] {
    r->Op(rstore.Put(rel).ok(), "probe: ReleaseStore::Put failed");
  });
  serve::BudgetLedger ledger(root);
  std::vector<double> charge_ms;
  for (int i = 0; i < 9; ++i) {  // crosses one checkpoint (every 8th)
    charge_ms.push_back(TimedMs(t, "serve.charge", 1, [&] {
      r->Op(ledger.Charge("probe", kLifetime, kBudget).ok(),
            "probe: BudgetLedger::Charge failed");
    }));
  }
  m["serve.charge_p50_ms"] = Median(charge_ms);
  m["serve.charge_max_ms"] = Quantile(charge_ms, 1.0);

  std::unique_ptr<serve::AnswerEngine> engine;
  m["serve.cold_load_ms"] = TimedMs(t, "serve.cold_load", 3, [&] {
    serve::StrategyStore sstore(root);
    serve::ReleaseStore fresh(root);
    auto strategy = sstore.Get(s.signature);
    auto released = fresh.Get(s.signature, 0);
    if (!strategy.ok() || !released.ok()) {
      r->Op(false, "probe: cold load failed");
      return;
    }
    auto created = serve::AnswerEngine::Create(
        std::move(strategy).ValueOrDie(), std::move(released).ValueOrDie(),
        domain);
    r->Op(created.ok(), "probe: AnswerEngine::Create failed");
    if (created.ok()) {
      engine = std::make_unique<serve::AnswerEngine>(
          std::move(created).ValueOrDie());
    }
  });

  // query + serve: parse, indicator row, then each predicate answered
  // twice — a root-cache miss, then a hit.
  std::vector<std::string> texts;
  for (const auto& b : boxes) texts.push_back(BoxText(b, domain));
  std::vector<double> parse_ms, row_ms, hit_ms, miss_ms;
  for (const std::string& text : texts) {
    std::unique_ptr<query::Predicate> parsed;
    parse_ms.push_back(TimedMs(t, "query.parse", 1, [&] {
      auto p = query::ParsePredicate(text, domain);
      r->Op(p.ok(), "probe: ParsePredicate failed on '" + text + "'");
      if (p.ok()) {
        parsed = std::make_unique<query::Predicate>(std::move(p).ValueOrDie());
      }
    }));
    if (parsed != nullptr) {
      row_ms.push_back(TimedMs(t, "query.to_row", 1, [&] {
        parsed->ToRow(domain);
      }));
    }
  }
  if (engine != nullptr) {
    for (int round = 0; round < 2; ++round) {
      for (const std::string& text : texts) {
        const std::uint64_t hits_before = engine->root_cache_hits();
        Span span(t, "serve.answer");
        Stopwatch sw;
        r->Op(engine->AnswerText(text).ok(), "probe: AnswerText failed");
        const double ms = sw.Millis();
        const bool hit = engine->root_cache_hits() > hits_before;
        span.Rename(hit ? "serve.hit" : "serve.miss");
        (hit ? hit_ms : miss_ms).push_back(ms);
      }
    }
  }
  m["query.parse_us"] = 1e3 * Median(parse_ms);
  m["query.to_row_us"] = 1e3 * Median(row_ms);
  m["serve.hit_us"] = 1e3 * Median(hit_ms);
  m["serve.miss_ms"] = Median(miss_ms);
  return m;
}

/// Per-layer timings of calls on the measured path come from the measured
/// phase's own spans (median over every call), everything else from the
/// probe. `from` is the first span index of the measured phase.
void ReportLayers(const Tracer& t, std::size_t from,
                  const std::map<std::string, double>& probe, Report* r) {
  r->layer = probe;
  auto from_loop = [&](const char* span, const std::string& metric,
                       double scale) {
    const std::vector<double> ms = t.Millis(span, from);
    if (!ms.empty()) r->layer[metric] = scale * Median(ms);
  };
  from_loop("release.batch", "release.batch_ms", 1.0);
  from_loop("serve.put", "serve.put_ms", 1.0);
  from_loop("serve.hit", "serve.hit_us", 1e3);
  from_loop("serve.miss", "serve.miss_ms", 1.0);
  const std::vector<double> charges = t.Millis("serve.charge", from);
  if (!charges.empty()) {
    r->layer["serve.charge_p50_ms"] = Median(charges);
    r->layer["serve.charge_max_ms"] = Quantile(charges, 1.0);
  }
  for (const auto& layer : t.SelfSecondsByLayer()) {
    r->layer["self_s." + layer.first] = layer.second;
  }
  r->layer["trace.spans"] = static_cast<double>(t.spans().size());
  // Cost of recording one span, calibrated on a scratch tracer.
  Tracer scratch(true);
  Stopwatch sw;
  constexpr int kCalibration = 100000;
  for (int i = 0; i < kCalibration; ++i) Span span(&scratch, "bench.calibrate");
  r->layer["trace.record_ns"] = static_cast<double>(sw.Nanos()) / kCalibration;
}

/// Design-result layer metrics (optimize.*), summed over the designs. The
/// library reports only the solver's own seconds, so assembly is the rest of
/// Design() and includes its eigendecomposition.
void ReportDesignLayers(const std::vector<optimize::DesignResult>& designs,
                        const std::vector<double>& design_s, Report* r) {
  double solve = 0, iterations = 0, gap = 0, total = 0;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    solve += designs[i].solver_report.seconds;
    iterations += designs[i].solver_iterations;
    gap = std::max(gap, designs[i].duality_gap);
    total += design_s[i];
  }
  r->layer["optimize.solve_s"] = solve;
  r->layer["optimize.iterations"] = iterations;
  r->layer["optimize.gap"] = gap;
  r->layer["optimize.assemble_s"] = total - solve;
}

/// Sums the probe metrics of several subjects. Rates do not add, so the
/// pass rate is recomputed from the summed flops and time.
std::map<std::string, double> SumProbes(
    const std::vector<std::map<std::string, double>>& probes) {
  std::map<std::string, double> sum;
  double gflop = 0;
  for (const auto& m : probes) {
    for (const auto& kv : m) sum[kv.first] += kv.second;
    gflop += m.at("linalg.pass_gflops") * m.at("linalg.pass_us") * 1e-6;
  }
  sum["linalg.pass_gflops"] = gflop / (sum["linalg.pass_us"] * 1e-6);
  return sum;
}

optimize::DesignResult DesignOrDie(const dpmm::Workload& w, Tracer* t,
                                   double* seconds) {
  Span span(t, "optimize.design");
  Stopwatch sw;
  auto d = optimize::Design(w, {});
  *seconds = sw.Seconds();
  DPMM_CHECK_MSG(d.ok(), d.status().ToString());
  return std::move(d).ValueOrDie();
}

void PutStrategy(const std::string& root, const std::string& signature,
                 const Domain& domain, const optimize::DesignResult& d,
                 Tracer* t, Report* r) {
  serialize::StrategyArtifact art;
  art.signature = signature;
  art.domain_sizes = domain.sizes();
  art.strategy = d.strategy;
  art.solver_report = d.solver_report;
  art.duality_gap = d.duality_gap;
  art.rank = d.rank;
  Span span(t, "serve.strategy_put");
  r->Op(serve::StrategyStore(root).Put(art).ok(), "StrategyStore::Put failed");
}

std::string SetupRoot(const Options& opt, int rep) {
  return opt.work_dir + "/setup-" + std::to_string(rep);
}

// ---- Workload: design --------------------------------------------------------

void RunDesign(const Options& opt, Tracer* t, Report* r) {
  struct Shape {
    std::string label;
    std::unique_ptr<dpmm::Workload> w;
    Vector x;
  };
  std::vector<Shape> shapes;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Span span(t, "bench.setup");
    Stopwatch sw;
    Rng rng(opt.seed);
    shapes.clear();
    shapes.push_back({"range3d",
                      std::make_unique<dpmm::AllRangeWorkload>(
                          Domain({32, 32, 32})),
                      {}});
    shapes.push_back({"marg2way",
                      std::make_unique<dpmm::MarginalsWorkload>(
                          dpmm::MarginalsWorkload::AllKWay(
                              Domain({16, 16, 16, 16, 16}), 2)),
                      {}});
    for (Shape& s : shapes) s.x = SeededCounts(s.w->num_cells(), &rng);
    setup_s.push_back(sw.Seconds());
  }
  r->e2e["setup_s"] = Median(setup_s);

  std::vector<optimize::DesignResult> designs(shapes.size());
  std::vector<double> shape_s(shapes.size());
  const std::size_t loop_from = t->spans().size();
  const auto lat = ClosedLoop(
      opt, t, 1,
      [&] {
        for (std::size_t i = 0; i < shapes.size(); ++i) {
          // Free the previous pass's strategy first, so peak memory does
          // not depend on how many passes fit in the run.
          designs[i] = {};
          designs[i] = DesignOrDie(*shapes[i].w, t, &shape_s[i]);
        }
        return true;
      },
      nullptr, r);
  ReportLatencies(lat, 0.9, r);
  r->e2e["design_s"] = Median(lat);

  double err_ratio = 0, sd2 = 0;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    CheckDesign(shapes[i].label, designs[i], *shapes[i].w, r, &err_ratio);
    r->info["design_s." + shapes[i].label] = shape_s[i];
    // answer_sd on the iteration-bound shape only: probe error bars on
    // marg2way take one 2^20-cell normal solve each.
    if (i == 0) {
      const Vector sd = release::QueryErrorProfile(
          ProbeWorkload(shapes[i].w->domain()), *designs[i].strategy, kBudget);
      sd2 = Rms(sd);
    }
  }
  r->e2e["err_ratio"] = err_ratio;
  r->e2e["answer_sd"] = sd2;

  if (!t->enabled()) return;
  std::vector<std::map<std::string, double>> probes;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Subject subject{shapes[i].w.get(),
                          designs[i].strategy, &shapes[i].x,
                          serve::CanonicalSignature(shapes[i].label,
                                                    shapes[i].w->domain()),
                          8};
    auto m = ProbeLayers(subject, opt.work_dir + "/probe-" + shapes[i].label,
                         t, r);
    for (const auto& kv : m) r->info[kv.first + "." + shapes[i].label] = kv.second;
    probes.push_back(std::move(m));
  }
  const std::map<std::string, double> sum = SumProbes(probes);
  ReportLayers(*t, loop_from, sum, r);
  ReportDesignLayers(designs, shape_s, r);
}

// ---- Workloads: release and adhoc (the data owner's write path) -------------

/// Set-up of a write-path workload: builds the workload and data, designs
/// the strategy and stores it.
struct WritePath {
  std::unique_ptr<dpmm::Workload> w;
  Vector x;
  std::string signature;
  optimize::DesignResult design;
  double design_s = 0;
};

void RunWritePath(const Options& opt, Tracer* t, Report* r,
                  const std::function<WritePath(Rng*)>& build,
                  std::size_t batch, std::size_t window, bool audit_check) {
  WritePath wp;
  std::vector<double> setup_s, design_s;
  std::string root;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Span span(t, "bench.setup");
    Stopwatch sw;
    Rng rng(opt.seed);
    wp = build(&rng);
    wp.design = DesignOrDie(*wp.w, t, &wp.design_s);
    root = SetupRoot(opt, rep);
    PutStrategy(root, wp.signature, wp.w->domain(), wp.design, t, r);
    setup_s.push_back(sw.Seconds());
    design_s.push_back(wp.design_s);
  }
  r->e2e["setup_s"] = Median(setup_s);
  r->e2e["design_s"] = Median(design_s);
  const Domain& domain = wp.w->domain();

  // Audit inputs, outside every timed region: probe rows, their true
  // answers and their per-release standard deviations.
  const auto budgets =
      release::SplitBudget(kBudget, std::vector<double>(batch, 1.0));
  const dpmm::ExplicitWorkload probe = ProbeWorkload(domain);
  const Vector truth = probe.Answer(wp.x);
  const Vector sd = release::QueryErrorProfile(probe, *wp.design.strategy,
                                               budgets[0]);

  serve::BudgetLedger ledger(root);
  serve::ReleaseStore rstore(root);
  Rng noise(opt.seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<StoredRelease> stored;
  std::vector<Vector> last;
  std::size_t charges = 0;
  double z2 = 0;
  std::size_t z_count = 0;
  const std::size_t loop_from = t->spans().size();
  const auto lat = ClosedLoop(
      opt, t, window,
      [&] {
        last.clear();
        bool charged = false;
        {
          Span span(t, "serve.charge");
          charged = ledger.Charge("bench", kLifetime, kBudget).ok();
        }
        if (!charged) return false;
        ++charges;
        {
          Span span(t, "release.batch");
          last = release::ReleaseBatch(*wp.design.strategy, wp.x, budgets,
                                       &noise)
                     .x_hats;
        }
        bool ok = true;
        for (std::size_t b = 0; b < last.size(); ++b) {
          serialize::ReleaseArtifact rel;
          rel.signature = wp.signature;
          rel.domain_sizes = domain.sizes();
          rel.budget = budgets[b];
          rel.dataset = "bench";
          rel.seed = opt.seed;
          rel.batch_index = b;
          rel.x_hat = last[b];
          Span span(t, "serve.put");
          auto id = rstore.Put(rel);
          ok = ok && id.ok();
          if (id.ok()) stored.push_back({id.ValueOrDie(), Digest(last[b]), b});
        }
        return ok;
      },
      [&] {
        // Plain loops, not library calls, so the counters see only the
        // requests.
        const Matrix& rows = *probe.matrix();
        for (const Vector& x_hat : last) {
          for (std::size_t q = 0; q < rows.rows(); ++q) {
            double answer = 0;
            const double* row = rows.RowPtr(q);
            for (std::size_t j = 0; j < x_hat.size(); ++j) {
              answer += row[j] * x_hat[j];
            }
            const double z = (answer - truth[q]) / sd[q];
            z2 += z * z;
          }
          z_count += rows.rows();
        }
      },
      r);
  ReportLatencies(lat, 0.9, r);

  double err_ratio = 0;
  CheckDesign("strategy", wp.design, *wp.w, r, &err_ratio);
  r->e2e["err_ratio"] = err_ratio;
  r->e2e["answer_sd"] = Rms(sd);
  CheckReread(root, wp.signature, stored, r);
  CheckLedger(root, "bench", charges, r);
  const double z_rms = z_count == 0 ? 0 : std::sqrt(z2 / static_cast<double>(z_count));
  r->info["audit.z_rms"] = z_rms;
  r->info["audit.samples"] = static_cast<double>(z_count);
  if (audit_check) {
    r->Op(z_rms >= kAuditLow && z_rms <= kAuditHigh,
          "check: noise audit RMS z-score " + std::to_string(z_rms) +
              " outside [" + std::to_string(kAuditLow) + ", " +
              std::to_string(kAuditHigh) + "]");
  }

  if (!t->enabled()) return;
  const Subject subject{wp.w.get(), wp.design.strategy, &wp.x,
                        wp.signature, batch};
  const auto probe_metrics = ProbeLayers(subject, opt.work_dir + "/probe", t, r);
  ReportLayers(*t, loop_from, probe_metrics, r);
  ReportDesignLayers({wp.design}, {wp.design_s}, r);
}

void RunRelease(const Options& opt, Tracer* t, Report* r) {
  RunWritePath(
      opt, t, r,
      [](Rng* rng) {
        WritePath wp;
        dpmm::DataVector data = dpmm::data::GenCensusLike(rng->NextU64());
        wp.w = std::make_unique<dpmm::AllRangeWorkload>(data.domain);
        wp.x = std::move(data.counts);
        wp.signature = serve::CanonicalSignature("allrange", wp.w->domain());
        return wp;
      },
      /*batch=*/8, /*window=*/50, /*audit_check=*/true);
}

void RunAdhoc(const Options& opt, Tracer* t, Report* r) {
  RunWritePath(
      opt, t, r,
      [](Rng* rng) {
        // The query set is part of the workload's definition (a fixed
        // seed): its shape sets the solver's iteration count, which would
        // otherwise swamp the run-to-run spread. --seed drives data and
        // noise.
        WritePath wp;
        const Domain domain({16, 32});
        Rng boxes(kAdhocBoxesSeed);
        wp.w = std::make_unique<dpmm::ExplicitWorkload>(RowsWorkload(
            domain, RandomBoxes(domain, 2048, &boxes), "adhoc-boxes"));
        wp.x = SeededCounts(domain.NumCells(), rng);
        wp.signature = serve::CanonicalSignature("adhoc-boxes", domain);
        return wp;
      },
      /*batch=*/1, /*window=*/20, /*audit_check=*/false);
}

// ---- Workload: serve (the analyst's read path) -------------------------------

/// Seeded predicate texts over a 2-D domain — boxes, =, <, >=, != and the
/// total query "*" — each text produced at most once.
class PredicateSource {
 public:
  PredicateSource(const Domain& domain, std::uint64_t seed)
      : domain_(domain), rng_(seed) {}

  std::string Next() {
    for (;;) {
      std::string text = Draw();
      if (seen_.insert(text).second) return text;
    }
  }

 private:
  std::string Value(std::size_t attr, std::size_t lo) {
    return std::to_string(lo + rng_.UniformInt(domain_.size(attr) - lo));
  }

  std::string Draw() {
    if (seen_.empty()) return "*";
    const std::string a1 = domain_.attribute_name(0);
    const std::string a2 = domain_.attribute_name(1);
    switch (rng_.UniformInt(6)) {
      case 0:
      case 1:
        return BoxText(RandomBoxes(domain_, 1, &rng_)[0], domain_);
      case 2: {
        const std::size_t attr = rng_.UniformInt(2);
        std::string text = domain_.attribute_name(attr) + " = " + Value(attr, 0);
        if (rng_.UniformInt(2) == 0) text += " AND " + a2 + " >= " + Value(1, 0);
        return text;
      }
      case 3:
        return a1 + " < " + Value(0, 1);
      case 4:
        return a2 + " >= " + Value(1, 0);
      default:
        return a1 + " != " + Value(0, 0) + " AND " + a2 + " < " + Value(1, 1);
    }
  }

  const Domain& domain_;
  Rng rng_;
  std::set<std::string> seen_;
};

void RunServe(const Options& opt, Tracer* t, Report* r) {
  const Domain domain({32, 32});
  const dpmm::AllRangeWorkload w(domain);
  const std::string signature = serve::CanonicalSignature("allrange", domain);
  Vector x;
  optimize::DesignResult design;
  std::unique_ptr<serve::AnswerEngine> engine;
  std::vector<StoredRelease> stored;
  std::vector<double> setup_s, design_s, cold_ms;
  double d_s = 0;
  std::string root;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Span span(t, "bench.setup");
    Stopwatch sw;
    Rng rng(opt.seed);
    root = SetupRoot(opt, rep);
    x = SeededCounts(domain.NumCells(), &rng);
    design = DesignOrDie(w, t, &d_s);
    design_s.push_back(d_s);
    PutStrategy(root, signature, domain, design, t, r);
    {
      Span charge(t, "serve.charge");
      r->Op(serve::BudgetLedger(root).Charge("bench", kLifetime, kBudget).ok(),
            "BudgetLedger::Charge failed");
    }
    release::BatchReleaseResult batch;
    {
      Span rel_span(t, "release.batch");
      batch = release::ReleaseBatch(*design.strategy, x, {kBudget}, &rng);
    }
    serialize::ReleaseArtifact rel;
    rel.signature = signature;
    rel.domain_sizes = domain.sizes();
    rel.budget = kBudget;
    rel.dataset = "bench";
    rel.seed = opt.seed;
    rel.x_hat = batch.x_hats[0];
    {
      Span put(t, "serve.put");
      auto id = serve::ReleaseStore(root).Put(rel);
      r->Op(id.ok(), "ReleaseStore::Put failed");
      stored.assign(1, {id.ok() ? id.ValueOrDie() : 0, Digest(rel.x_hat), 0});
    }
    // A fresh serving process: cold-load both artifacts, build the engine.
    Stopwatch cold;
    Span load(t, "serve.cold_load");
    serve::StrategyStore sstore(root);
    serve::ReleaseStore rstore(root);
    auto strategy = sstore.Get(signature);
    auto released = rstore.Get(signature, stored[0].id);
    DPMM_CHECK_MSG(strategy.ok() && released.ok(), "cold load failed");
    auto created = serve::AnswerEngine::Create(
        std::move(strategy).ValueOrDie(), std::move(released).ValueOrDie(),
        domain);
    DPMM_CHECK_MSG(created.ok(), created.status().ToString());
    engine = std::make_unique<serve::AnswerEngine>(
        std::move(created).ValueOrDie());
    cold_ms.push_back(cold.Millis());
    setup_s.push_back(sw.Seconds());
  }
  r->e2e["setup_s"] = Median(setup_s);
  r->e2e["design_s"] = Median(design_s);
  r->info["cold_load_ms"] = Median(cold_ms);

  // The request stream: nine in ten requests draw Zipf(1) from a seeded
  // pool of 600 predicates; every tenth asks a predicate never asked before,
  // so a tenth of the requests miss the root cache however long the run is.
  // Texts are chosen between requests, outside the timed region.
  constexpr std::size_t kPool = 600;
  PredicateSource source(domain, opt.seed ^ 0x5eedULL);
  std::vector<std::string> texts;
  std::vector<double> cdf;
  double acc = 0;
  std::vector<query::Predicate> warm;
  for (std::size_t i = 0; i < kPool; ++i) {
    texts.push_back(source.Next());
    acc += 1.0 / static_cast<double>(i + 1);
    cdf.push_back(acc);
    auto parsed = query::ParsePredicate(texts.back(), domain);
    if (parsed.ok()) warm.push_back(std::move(parsed).ValueOrDie());
  }
  // The pool's roots are cached before timing (one block solve through
  // AnswerBatch), so the measured phase is the steady state; otherwise the
  // warm-up transient, whose share depends on the host's speed, would set
  // the throughput.
  {
    Span span(t, "serve.warm");
    Stopwatch sw;
    engine->AnswerBatch(warm);
    r->info["warm_s"] = sw.Seconds();
  }
  Rng rng(opt.seed ^ 0x21ffULL);
  struct Served {
    std::size_t pick;
    serve::AnswerEngine::Answer answer;
  };
  std::vector<Served> served;
  std::size_t next = 0;
  auto choose = [&] {
    if (served.size() % 10 == 9) {
      texts.push_back(source.Next());
      next = texts.size() - 1;
      return;
    }
    const auto it = std::lower_bound(cdf.begin(), cdf.end(),
                                     rng.UniformDouble() * acc);
    next = std::min(static_cast<std::size_t>(it - cdf.begin()), kPool - 1);
  };
  choose();
  const std::size_t loop_from = t->spans().size();
  const auto lat = ClosedLoop(
      opt, t, 2000,
      [&] {
        const std::uint64_t hits_before = engine->root_cache_hits();
        Span span(t, "serve.answer");
        auto got = engine->AnswerText(texts[next]);
        span.Rename(engine->root_cache_hits() > hits_before ? "serve.hit"
                                                            : "serve.miss");
        if (!got.ok()) return false;
        served.push_back({next, got.ValueOrDie()});
        return true;
      },
      choose, r);
  // A tenth of the requests miss, so p95 is the median root solve. p99, the
  // solves' own 90th percentile, mostly measured how often a shared host
  // descheduled the vCPU during a 10 ms solve (spread 0.44 over ten seeds).
  ReportLatencies(lat, 0.95, r);

  // Every served value against w . x_hat; every repeat of a predicate
  // against its first error bar.
  const Vector& x_hat = engine->release_artifact().x_hat;
  std::map<std::size_t, serve::AnswerEngine::Answer> reference;
  std::size_t mismatches = 0;
  for (const Served& s : served) {
    auto it = reference.find(s.pick);
    if (it == reference.end()) {
      auto parsed = query::ParsePredicate(texts[s.pick], domain);
      serve::AnswerEngine::Answer want{std::nan(""), s.answer.stddev};
      if (parsed.ok()) want.value = Dot(parsed.ValueOrDie().ToRow(domain), x_hat);
      it = reference.emplace(s.pick, want).first;
    }
    if (!RelClose(s.answer.value, it->second.value, kMatchRelTol) ||
        s.answer.stddev != it->second.stddev) {
      ++mismatches;
    }
  }
  r->Op(mismatches == 0, "check: " + std::to_string(mismatches) +
                             " served values differ from w . x_hat");
  r->info["distinct_predicates"] = static_cast<double>(reference.size());

  // Error bars of up to 32 served predicates against QueryErrorProfile.
  {
    std::vector<query::Predicate> sample;
    std::vector<double> bars;
    for (const auto& kv : reference) {
      if (sample.size() == kProbeQueries) break;
      auto parsed = query::ParsePredicate(texts[kv.first], domain);
      if (!parsed.ok()) continue;
      sample.push_back(std::move(parsed).ValueOrDie());
      bars.push_back(kv.second.stddev);
    }
    const Vector profile = release::QueryErrorProfile(
        RowsWorkload(domain, sample, "served"), *design.strategy, kBudget);
    std::size_t bad = 0;
    for (std::size_t q = 0; q < bars.size(); ++q) {
      if (!RelClose(bars[q], profile[q], kMatchRelTol)) ++bad;
    }
    r->Op(bad == 0 && !bars.empty(),
          "check: " + std::to_string(bad) +
              " served error bars differ from QueryErrorProfile");
  }

  double err_ratio = 0;
  CheckDesign("strategy", design, w, r, &err_ratio);
  r->e2e["err_ratio"] = err_ratio;
  CheckReread(root, signature, stored, r);
  CheckLedger(root, "bench", 1, r);
  {
    Rng probe_rng(kProbeSeed);
    Vector sd;
    for (const auto& p : RandomBoxes(domain, kProbeQueries, &probe_rng)) {
      sd.push_back(engine->AnswerPredicate(p).stddev);
    }
    r->e2e["answer_sd"] = Rms(sd);
  }

  if (!t->enabled()) return;
  const Subject subject{&w, design.strategy, &x, signature, 1};
  const auto probe_metrics = ProbeLayers(subject, opt.work_dir + "/probe", t, r);
  ReportLayers(*t, loop_from, probe_metrics, r);
  ReportDesignLayers({design}, {d_s}, r);
}

// ---- Output ------------------------------------------------------------------

void PrintMap(const char* key, const std::map<std::string, double>& m,
              bool last) {
  std::printf("\"%s\": {", key);
  bool first = true;
  for (const auto& kv : m) {
    std::printf("%s\"%s\": ", first ? "" : ", ", kv.first.c_str());
    if (std::isfinite(kv.second)) {
      std::printf("%.17g", kv.second);
    } else {
      std::printf("null");
    }
    first = false;
  }
  std::printf("}%s", last ? "" : ", ");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else if (key == "--work-dir") {
      opt->work_dir = value;
    } else if (key == "--spans") {
      opt->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && !opt->work_dir.empty() &&
         opt->seconds > 0;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload design|release|serve|"
                 "adhoc --seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--spans FILE]\n");
    return 2;
  }
  const std::map<std::string, std::function<void(const Options&, Tracer*,
                                                 Report*)>>
      workloads = {{"design", RunDesign},
                   {"release", RunRelease},
                   {"serve", RunServe},
                   {"adhoc", RunAdhoc}};
  const auto run = workloads.find(opt.workload);
  if (run == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  Tracer tracer(opt.trace);
  Report report;
  run->second(opt, &tracer, &report);
  if (tracer.enabled() && !opt.spans.empty() &&
      !tracer.WriteChromeTrace(opt.spans)) {
    report.Op(false, "could not write " + opt.spans);
  }
  report.e2e["ok_frac"] =
      1.0 - static_cast<double>(report.failed) /
                static_cast<double>(std::max<std::uint64_t>(report.attempted, 1));
  report.e2e["peak_rss_mb"] = PeakRssMb();
  report.info["threads"] = dpmm::NumThreads();

  std::printf("{\"attempted\": %llu, \"failed\": %llu, ",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::printf("\"failures\": [");
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ",
                JsonString(report.failures[i]).c_str());
  }
  std::printf("], ");
  PrintMap("e2e", report.e2e, false);
  PrintMap("layer", report.layer, false);
  PrintMap("counters", report.counters, false);
  PrintMap("info", report.info, true);
  std::printf("}\n");
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
