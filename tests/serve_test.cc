// Tests for the query-serving subsystem: the artifact stores, the budget
// ledger's persistent accounting, and the answer engine's exactness
// contract — served answers bit-identical to Workload answers on the stored
// x_hat, error bars bit-identical to release::QueryErrorProfile, through
// the root-cache hit path, the batch path, and concurrent readers (this
// suite runs under DPMM_THREADS=4 and in the TSan CI pass).
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "optimize/eigen_design.h"
#include "query/predicate.h"
#include "release/release.h"
#include "serve/answer_engine.h"
#include "serve/budget_ledger.h"
#include "serve/store.h"
#include "util/rng.h"
#include "workload/marginal_workloads.h"
#include "workload/range_workloads.h"

namespace dpmm {
namespace {

using serialize::ReleaseArtifact;
using serialize::StrategyArtifact;
using serve::AnswerEngine;
using serve::BudgetLedger;
using serve::ReleaseStore;
using serve::StrategyStore;

/// A fresh store root per test, so release ids and ledger state never leak
/// between tests (or between repeated runs against one TempDir).
std::string FreshRoot() {
  std::string tmpl = ::testing::TempDir() + "/dpmm_serve_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

std::shared_ptr<const StrategyArtifact> DesignArtifact(
    const Workload& w, std::string spec,
    optimize::EngineSelection engine = optimize::EngineSelection::kAuto) {
  optimize::DesignOptions options;
  options.engine = engine;
  auto design = optimize::Design(w, options);
  EXPECT_TRUE(design.ok()) << design.status().ToString();
  auto& d = design.ValueOrDie();
  auto artifact = std::make_shared<StrategyArtifact>();
  artifact->signature = serve::CanonicalSignature(spec, w.domain());
  artifact->domain_sizes = w.domain().sizes();
  artifact->strategy = d.strategy;
  artifact->solver_report = d.solver_report;
  artifact->duality_gap = d.duality_gap;
  artifact->rank = d.rank;
  return artifact;
}

/// One designed strategy + one stored release over deterministic data.
struct Fixture {
  Domain domain{std::vector<std::size_t>{4, 4}};
  PrivacyParams budget{0.5, 1e-4};
  std::shared_ptr<const StrategyArtifact> strategy;
  std::shared_ptr<const ReleaseArtifact> release;
  linalg::Vector data;
};

/// Which (workload, engine) pair the fixture serves. The three variants pin
/// the three root-solve paths of the answer engine: kron-PCG (all-range
/// carries completion rows), kron-diagonal (1-way marginals), and the dense
/// factored (Cholesky) solve.
enum class FixtureKind { kAllRange, kMarginals, kDenseAllRange };

Fixture MakeFixture(FixtureKind kind = FixtureKind::kAllRange) {
  Fixture f;
  std::unique_ptr<Workload> w;
  std::string spec;
  auto engine = optimize::EngineSelection::kAuto;
  if (kind == FixtureKind::kMarginals) {
    w.reset(new MarginalsWorkload(MarginalsWorkload::AllKWay(f.domain, 1)));
    spec = "marginals:1";
  } else {
    w.reset(new AllRangeWorkload(f.domain));
    spec = "allrange";
    if (kind == FixtureKind::kDenseAllRange) {
      engine = optimize::EngineSelection::kDense;
    }
  }
  f.strategy = DesignArtifact(*w, spec, engine);

  f.data.resize(f.domain.NumCells());
  Rng data_rng(99);
  for (auto& v : f.data) v = static_cast<double>(data_rng.UniformInt(50));

  Rng rng(11);
  auto batch =
      release::ReleaseBatch(*f.strategy->strategy, f.data, {f.budget}, &rng);
  auto rel = std::make_shared<ReleaseArtifact>();
  rel->signature = f.strategy->signature;
  rel->domain_sizes = f.domain.sizes();
  rel->budget = f.budget;
  rel->dataset = "unit-test";
  rel->seed = 11;
  rel->batch_index = 0;
  rel->x_hat = batch.x_hats[0];
  f.release = rel;
  return f;
}

AnswerEngine MakeEngine(const Fixture& f) {
  auto engine = AnswerEngine::Create(f.strategy, f.release, f.domain);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).ValueOrDie();
}

const char* const kPredicates[] = {
    "*",
    "A1 >= 2",
    "A2 IN [1, 2]",
    "A1 = 0 AND A2 <= 1",
    "A1 != 3",
    "A1 IN [1, 2] AND A2 >= 2",
};

std::vector<query::Predicate> ParseAll(const Domain& domain) {
  std::vector<query::Predicate> preds;
  for (const char* text : kPredicates) {
    auto parsed = query::ParsePredicate(text, domain);
    EXPECT_TRUE(parsed.ok()) << text;
    preds.push_back(std::move(parsed).ValueOrDie());
  }
  return preds;
}

// ---- Stores

TEST(StrategyStore, PutGetCachesAndDetectsMismatch) {
  const std::string root = FreshRoot();
  Fixture f = MakeFixture();
  StrategyStore store(root);
  EXPECT_FALSE(store.Contains(f.strategy->signature));
  ASSERT_TRUE(store.Put(*f.strategy).ok());
  EXPECT_TRUE(store.Contains(f.strategy->signature));

  auto got = store.Get(f.strategy->signature);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto again = store.Get(f.strategy->signature);
  ASSERT_TRUE(again.ok());
  // Load-once cache: the same immutable object is shared.
  EXPECT_EQ(got.ValueOrDie().get(), again.ValueOrDie().get());
  EXPECT_EQ(got.ValueOrDie()->duality_gap, f.strategy->duality_gap);

  auto missing = store.Get("allrange@9,9");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // A renamed (or hash-colliding) file is detected, not served.
  const std::string src =
      root + "/strategies/" + serve::StoreKey(f.strategy->signature) +
      ".strategy";
  const std::string dst =
      root + "/strategies/" + serve::StoreKey("allrange@9,9") + ".strategy";
  ASSERT_EQ(std::rename(src.c_str(), dst.c_str()), 0);
  StrategyStore fresh_store(root);
  auto wrong = fresh_store.Get("allrange@9,9");
  ASSERT_FALSE(wrong.ok());
  EXPECT_NE(wrong.status().message().find("renamed file or key collision"),
            std::string::npos);
}

TEST(ReleaseStore, AssignsMonotonicIdsAndListsThem) {
  const std::string root = FreshRoot();
  Fixture f = MakeFixture();
  ReleaseStore store(root);
  EXPECT_TRUE(store.List(f.release->signature).empty());
  EXPECT_EQ(store.LatestId(f.release->signature).status().code(),
            StatusCode::kNotFound);

  ReleaseArtifact rel = *f.release;
  for (std::size_t b = 0; b < 3; ++b) {
    rel.batch_index = b;
    auto id = store.Put(rel);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(id.ValueOrDie(), b);
  }
  EXPECT_EQ(store.List(f.release->signature),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(store.LatestId(f.release->signature).ValueOrDie(), 2u);

  auto got = store.Get(f.release->signature, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie()->batch_index, 1u);
  EXPECT_EQ(got.ValueOrDie()->x_hat, f.release->x_hat);
  EXPECT_EQ(store.Get(f.release->signature, 9).status().code(),
            StatusCode::kNotFound);
}

TEST(StoreKey, IsStableAndFilenameSafe) {
  const std::string key = serve::StoreKey("allrange@8,16,16");
  EXPECT_EQ(key.size(), 16u);
  EXPECT_EQ(key, serve::StoreKey("allrange@8,16,16"));
  EXPECT_NE(key, serve::StoreKey("allrange@8,16,17"));
  Domain d({8, 16, 16});
  EXPECT_EQ(serve::CanonicalSignature("allrange", d), "allrange@8,16,16");
}

// ---- Budget ledger

TEST(BudgetLedger, ChargesAccumulateAndPersist) {
  const std::string root = FreshRoot();
  const PrivacyParams total{1.0, 2e-4};
  {
    BudgetLedger ledger(root);
    auto first = ledger.Charge("census", total, {0.5, 1e-4});
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first.ValueOrDie().charges, 1u);
    EXPECT_DOUBLE_EQ(first.ValueOrDie().spent.epsilon, 0.5);
    EXPECT_DOUBLE_EQ(first.ValueOrDie().Remaining().epsilon, 0.5);
  }
  // A separate ledger instance (a new process) sees the same state.
  BudgetLedger ledger(root);
  auto read = ledger.Read("census");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_DOUBLE_EQ(read.ValueOrDie().spent.epsilon, 0.5);
  EXPECT_FALSE(read.ValueOrDie().Overdrawn());

  auto second = ledger.Charge("census", total, {0.5, 1e-4});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.ValueOrDie().charges, 2u);
  EXPECT_DOUBLE_EQ(second.ValueOrDie().Remaining().epsilon, 0.0);
}

TEST(BudgetLedger, RefusesOverBudgetWithoutRecording) {
  const std::string root = FreshRoot();
  BudgetLedger ledger(root);
  const PrivacyParams total{1.0, 1e-4};
  ASSERT_TRUE(ledger.Charge("d", total, {0.75, 5e-5}).ok());

  // Over in epsilon.
  auto refused = ledger.Charge("d", total, {0.5, 1e-6});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // Over in delta only.
  auto refused2 = ledger.Charge("d", total, {0.1, 9e-5});
  ASSERT_FALSE(refused2.ok());
  EXPECT_EQ(refused2.status().code(), StatusCode::kResourceExhausted);

  // The refused charges must not have been recorded.
  auto read = ledger.Read("d");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.ValueOrDie().charges, 1u);
  EXPECT_DOUBLE_EQ(read.ValueOrDie().spent.epsilon, 0.75);

  // A request that still fits goes through.
  EXPECT_TRUE(ledger.Charge("d", total, {0.25, 5e-5}).ok());
}

TEST(BudgetLedger, ExactSplitConsumesTheWholeBudget) {
  // The CLI splits one budget into B equal parts by sequential composition;
  // charging all parts must succeed despite floating accumulation, and the
  // next smallest request must be refused.
  const std::string root = FreshRoot();
  BudgetLedger ledger(root);
  const PrivacyParams total{0.7, 7e-5};
  const auto parts = release::SplitBudget(total, std::vector<double>(8, 1.0));
  for (const auto& part : parts) {
    ASSERT_TRUE(ledger.Charge("d", total, part).ok());
  }
  auto refused = ledger.Charge("d", total, {1e-6, 1e-12});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetLedger, TotalIsNotRenegotiable) {
  const std::string root = FreshRoot();
  BudgetLedger ledger(root);
  ASSERT_TRUE(ledger.Charge("d", {1.0, 1e-4}, {0.1, 1e-5}).ok());
  auto changed = ledger.Charge("d", {2.0, 1e-4}, {0.1, 1e-5});
  ASSERT_FALSE(changed.ok());
  EXPECT_EQ(changed.status().code(), StatusCode::kInvalidArgument);
}

TEST(BudgetLedger, MissingAndMalformedEntriesFailClosed) {
  const std::string root = FreshRoot();
  BudgetLedger ledger(root);
  EXPECT_EQ(ledger.Read("ghost").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(ledger.Charge("d", {1.0, 1e-4}, {0.1, 1e-5}).ok());
  // Damage the snapshot. The ledger must quarantine it (never parse-and-
  // guess, never silently recreate) and fail closed with DataLoss on every
  // operation — a damaged entry must not be mistaken for "never charged".
  const std::string path =
      root + "/ledger/" + serve::StoreKey("d") + ".ledger";
  FILE* file = std::fopen(path.c_str(), "w");
  std::fputs("# dpmm-ledger 1\ndataset d\ntotal nope 1e-4\n", file);
  std::fclose(file);
  EXPECT_EQ(ledger.Read("d").status().code(), StatusCode::kDataLoss);
  // The damaged bytes were preserved under .corrupt-0, not destroyed.
  const std::string quarantined = path + ".corrupt-0";
  FILE* moved = std::fopen(quarantined.c_str(), "r");
  ASSERT_NE(moved, nullptr) << "expected quarantine file " << quarantined;
  std::fclose(moved);
  // Charging is also refused — no fresh entry over the damage.
  auto charge = ledger.Charge("d", {1.0, 1e-4}, {0.1, 1e-5});
  EXPECT_EQ(charge.status().code(), StatusCode::kDataLoss);
  // The WAL holds the dataset's full history (one charge, never
  // compacted), so explicit recovery can rebuild the entry.
  auto recovered = ledger.Recover("d");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.ValueOrDie().charges, 1u);
  EXPECT_DOUBLE_EQ(recovered.ValueOrDie().spent.epsilon, 0.1);
  EXPECT_TRUE(ledger.Charge("d", {1.0, 1e-4}, {0.1, 1e-5}).ok());
}

// ---- Answer engine

TEST(AnswerEngine, RejectsMismatchedArtifacts) {
  Fixture f = MakeFixture();
  auto wrong_release = std::make_shared<ReleaseArtifact>(*f.release);
  wrong_release->signature = "other@4,4";
  EXPECT_FALSE(
      AnswerEngine::Create(f.strategy, wrong_release, f.domain).ok());
  EXPECT_FALSE(
      AnswerEngine::Create(f.strategy, f.release, Domain({2, 8})).ok());
  EXPECT_FALSE(AnswerEngine::Create(nullptr, f.release, f.domain).ok());
}

TEST(AnswerEngine, RejectsBudgetOutsideTheGaussianRange) {
  // An in-memory artifact the decoder would refuse: the engine must return
  // InvalidArgument rather than abort in the noise calibration.
  Fixture f = MakeFixture();
  for (const double delta : {0.0, 1.0, 2.0, std::nan("")}) {
    auto bad = std::make_shared<ReleaseArtifact>(*f.release);
    bad->budget.delta = delta;
    auto engine = AnswerEngine::Create(f.strategy, bad, f.domain);
    ASSERT_FALSE(engine.ok()) << "delta " << delta;
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  }
  auto bad_eps = std::make_shared<ReleaseArtifact>(*f.release);
  bad_eps->budget.epsilon = 0.0;
  EXPECT_EQ(AnswerEngine::Create(f.strategy, bad_eps, f.domain)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

/// Served answers and error bars must be bit-identical to the library's
/// reference computations: Workload::Answer on the stored x_hat, and
/// release::QueryErrorProfile for the same (workload, strategy, budget) —
/// on every engine and solve path.
void CheckExactness(FixtureKind kind) {
  Fixture f = MakeFixture(kind);
  if (kind == FixtureKind::kDenseAllRange) {
    EXPECT_EQ(f.strategy->engine(), StrategyEngine::kDense);
  } else {
    // The two kron fixtures pin the two implicit normal-solve paths: the
    // all-range design carries completion rows (PCG solve), the 1-way
    // marginals design does not (diagonal solve in the eigenbasis).
    const auto& kron =
        dynamic_cast<const KronStrategy&>(*f.strategy->strategy);
    EXPECT_EQ(kron.has_completion(), kind == FixtureKind::kAllRange);
  }
  AnswerEngine engine = MakeEngine(f);
  const std::vector<query::Predicate> preds = ParseAll(f.domain);

  linalg::Matrix rows(preds.size(), f.domain.NumCells());
  for (std::size_t q = 0; q < preds.size(); ++q) {
    rows.SetRow(q, preds[q].ToRow(f.domain));
  }
  ExplicitWorkload reference(f.domain, rows, "adhoc");
  const linalg::Vector values = reference.Answer(f.release->x_hat);
  const linalg::Vector profile =
      release::QueryErrorProfile(reference, *f.strategy->strategy, f.budget);

  // Scalar path (cold cache).
  for (std::size_t q = 0; q < preds.size(); ++q) {
    const AnswerEngine::Answer a = engine.AnswerPredicate(preds[q]);
    EXPECT_EQ(a.value, values[q]) << kPredicates[q];
    EXPECT_EQ(a.stddev, profile[q]) << kPredicates[q];
  }
  EXPECT_EQ(engine.root_cache_size(), preds.size());
  EXPECT_EQ(engine.root_cache_hits(), 0u);

  // Cache-hit path: identical answers, hits counted.
  for (std::size_t q = 0; q < preds.size(); ++q) {
    const AnswerEngine::Answer a = engine.AnswerPredicate(preds[q]);
    EXPECT_EQ(a.value, values[q]);
    EXPECT_EQ(a.stddev, profile[q]);
  }
  EXPECT_EQ(engine.root_cache_size(), preds.size());
  EXPECT_EQ(engine.root_cache_hits(), preds.size());

  // Batch path on a fresh engine (cold cache, block solve), including a
  // duplicate inside the batch.
  AnswerEngine cold = MakeEngine(f);
  std::vector<query::Predicate> batch = preds;
  batch.push_back(preds[1]);
  const auto answers = cold.AnswerBatch(batch);
  ASSERT_EQ(answers.size(), preds.size() + 1);
  for (std::size_t q = 0; q < preds.size(); ++q) {
    EXPECT_EQ(answers[q].value, values[q]) << kPredicates[q];
    EXPECT_EQ(answers[q].stddev, profile[q]) << kPredicates[q];
  }
  EXPECT_EQ(answers.back().value, values[1]);
  EXPECT_EQ(answers.back().stddev, profile[1]);
  // The duplicate solved once.
  EXPECT_EQ(cold.root_cache_size(), preds.size());

  // Batch path over a warm cache: pure hits, same bits.
  const auto warm = cold.AnswerBatch(batch);
  for (std::size_t q = 0; q < preds.size(); ++q) {
    EXPECT_EQ(warm[q].value, values[q]);
    EXPECT_EQ(warm[q].stddev, profile[q]);
  }
}

// Covers the PCG normal-solve path (the 4x4 all-range design completes 12
// deficient columns).
TEST(AnswerEngine, ExactlyMatchesReferenceAllRange) {
  CheckExactness(FixtureKind::kAllRange);
}

// Covers the diagonal normal-solve path (no completion rows).
TEST(AnswerEngine, ExactlyMatchesReferenceMarginals) {
  CheckExactness(FixtureKind::kMarginals);
}

// Covers the dense engine: same serving loop, same exactness contract,
// roots solved through the cached Gram factorization.
TEST(AnswerEngine, ExactlyMatchesReferenceDenseEngine) {
  CheckExactness(FixtureKind::kDenseAllRange);
}

TEST(AnswerEngine, AnswerTextParsesAndAnswers) {
  Fixture f = MakeFixture();
  AnswerEngine engine = MakeEngine(f);
  auto ok = engine.AnswerText("A1 >= 2");
  ASSERT_TRUE(ok.ok());
  auto pred = query::ParsePredicate("A1 >= 2", f.domain);
  EXPECT_EQ(ok.ValueOrDie().value,
            engine.AnswerPredicate(pred.ValueOrDie()).value);
  EXPECT_FALSE(engine.AnswerText("A9 = 1").ok());
  EXPECT_FALSE(engine.AnswerText("A1 @@ 1").ok());
}

TEST(AnswerEngine, SemanticallyEqualPredicatesShareOneRoot) {
  Fixture f = MakeFixture();
  AnswerEngine engine = MakeEngine(f);
  // Same selected buckets, different syntax: one cache entry, one solve.
  auto a = engine.AnswerText("A1 >= 2");
  auto b = engine.AnswerText("A1 IN [2, 3]");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.ValueOrDie().value, b.ValueOrDie().value);
  EXPECT_EQ(a.ValueOrDie().stddev, b.ValueOrDie().stddev);
  EXPECT_EQ(engine.root_cache_size(), 1u);
  EXPECT_EQ(engine.root_cache_hits(), 1u);
}

TEST(AnswerEngine, BatchesLargerThanOneChunkMatchScalarPath) {
  // AnswerBatch processes 32-query chunks (bounded memory); a batch
  // spanning several chunks — with duplicates landing in later chunks —
  // must still be bit-identical to the scalar path.
  Fixture f = MakeFixture();
  std::vector<query::Predicate> batch;
  Rng rng(17);
  for (std::size_t i = 0; i < 70; ++i) {
    std::vector<query::Condition> conjuncts;
    for (std::size_t a = 0; a < f.domain.num_attributes(); ++a) {
      std::size_t lo = rng.UniformInt(f.domain.size(a));
      std::size_t hi = rng.UniformInt(f.domain.size(a));
      if (lo > hi) std::swap(lo, hi);
      query::Condition c;
      c.attr = a;
      c.op = query::Condition::Op::kBetween;
      c.value = lo;
      c.value2 = hi;
      conjuncts.push_back(c);
    }
    batch.emplace_back(std::move(conjuncts));
  }
  AnswerEngine scalar = MakeEngine(f);
  AnswerEngine batched = MakeEngine(f);
  const auto answers = batched.AnswerBatch(batch);
  ASSERT_EQ(answers.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const AnswerEngine::Answer ref = scalar.AnswerPredicate(batch[i]);
    EXPECT_EQ(answers[i].value, ref.value) << i;
    EXPECT_EQ(answers[i].stddev, ref.stddev) << i;
  }
  EXPECT_EQ(batched.root_cache_size(), scalar.root_cache_size());
}

/// Many readers hammer one shared engine — mixed scalar and batch calls,
/// overlapping keys, cold cache — and must agree bitwise with a serial
/// reference. Run under DPMM_THREADS=4 and TSan in CI. The dense variant
/// additionally races the strategy's lazy Gram factorization (call_once)
/// across readers.
void CheckConcurrentReaders(FixtureKind kind) {
  // The serial reference runs on an independently designed (bit-identical,
  // deterministic) fixture so the shared engine's strategy-level lazy
  // caches are still cold when the reader threads start — otherwise the
  // reference loop would warm the dense engine's call_once factorization and
  // the race this test exists to exercise would never happen.
  Fixture ref = MakeFixture(kind);
  AnswerEngine serial = MakeEngine(ref);
  const std::vector<query::Predicate> preds = ParseAll(ref.domain);
  std::vector<AnswerEngine::Answer> reference;
  for (const auto& p : preds) reference.push_back(serial.AnswerPredicate(p));

  Fixture f = MakeFixture(kind);
  AnswerEngine shared_engine = MakeEngine(f);
  constexpr int kReaders = 4;
  constexpr int kRounds = 8;
  std::vector<std::vector<AnswerEngine::Answer>> got(kReaders);
  {
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          if ((t + round) % 2 == 0) {
            for (std::size_t q = 0; q < preds.size(); ++q) {
              got[t].push_back(shared_engine.AnswerPredicate(
                  preds[(q + static_cast<std::size_t>(t)) % preds.size()]));
            }
          } else {
            const auto answers = shared_engine.AnswerBatch(preds);
            got[t].insert(got[t].end(), answers.begin(), answers.end());
          }
        }
      });
    }
    for (auto& reader : readers) reader.join();
  }
  for (int t = 0; t < kReaders; ++t) {
    std::size_t i = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t q = 0; q < preds.size(); ++q, ++i) {
        const std::size_t which =
            (t + round) % 2 == 0
                ? (q + static_cast<std::size_t>(t)) % preds.size()
                : q;
        EXPECT_EQ(got[t][i].value, reference[which].value);
        EXPECT_EQ(got[t][i].stddev, reference[which].stddev);
      }
    }
  }
  EXPECT_EQ(shared_engine.root_cache_size(), preds.size());
}

TEST(AnswerEngine, ConcurrentReadersAgreeWithSerialReference) {
  CheckConcurrentReaders(FixtureKind::kMarginals);
}

TEST(AnswerEngine, ConcurrentReadersOnDenseEngineStore) {
  CheckConcurrentReaders(FixtureKind::kDenseAllRange);
}

/// A dense artifact survives the store round-trip and a fresh process
/// (fresh store instance) serves from it — the full dense store-and-serve
/// loop at the library level.
TEST(AnswerEngine, DenseArtifactServesThroughStoreRoundTrip) {
  const std::string root = FreshRoot();
  Fixture f = MakeFixture(FixtureKind::kDenseAllRange);
  {
    StrategyStore sstore(root);
    ASSERT_TRUE(sstore.Put(*f.strategy).ok());
    ReleaseStore rstore(root);
    ASSERT_TRUE(rstore.Put(*f.release).ok());
  }
  StrategyStore sstore(root);
  ReleaseStore rstore(root);
  auto strategy = sstore.Get(f.strategy->signature);
  ASSERT_TRUE(strategy.ok()) << strategy.status().ToString();
  EXPECT_EQ(strategy.ValueOrDie()->engine(), StrategyEngine::kDense);
  auto release = rstore.Get(f.strategy->signature, 0);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  auto engine = AnswerEngine::Create(strategy.ValueOrDie(),
                                     release.ValueOrDie(), f.domain);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Loaded-from-disk answers match the in-memory engine bit for bit.
  AnswerEngine direct = MakeEngine(f);
  for (const auto& pred : ParseAll(f.domain)) {
    const AnswerEngine::Answer a = engine.ValueOrDie().AnswerPredicate(pred);
    const AnswerEngine::Answer b = direct.AnswerPredicate(pred);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.stddev, b.stddev);
  }
}


// ---- Row-free box answers

/// The bits of a double, so +0 and -0 compare unequal.
std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// A predicate's row built cell by cell: the multi-index of every cell
/// checked against every condition.
linalg::Vector ReferenceRow(const query::Predicate& p, const Domain& d) {
  linalg::Vector row(d.NumCells(), 0.0);
  for (std::size_t cell = 0; cell < d.NumCells(); ++cell) {
    const std::vector<std::size_t> multi = d.MultiIndex(cell);
    bool selected = true;
    for (const query::Condition& c : p.conjuncts()) {
      selected = selected && c.Matches(multi[c.attr]);
    }
    if (selected) row[cell] = 1.0;
  }
  return row;
}

/// Served values come from a box sum over the selected cells, not a dot
/// product with the row: it must agree with Dot(row, x_hat) bit for bit —
/// sign of zero included — on boxes that span every operator, several
/// conditions on one attribute, an empty selection and the total query.
TEST(AnswerEngine, BoxSumMatchesRowDotBitForBit) {
  const Domain d({3, 4, 5});
  std::unique_ptr<Workload> w(
      new MarginalsWorkload(MarginalsWorkload::AllKWay(d, 1)));
  auto strategy = DesignArtifact(*w, "marginals:1");

  // A hand-set x_hat: mixed signs and magnitudes, so summation order shows
  // in the low bits, and cells 0 and 1 cancel exactly, so a running sum
  // reaches zero before -0 terms (0 * negative cell) arrive in the dot.
  auto release = std::make_shared<ReleaseArtifact>();
  release->signature = strategy->signature;
  release->domain_sizes = d.sizes();
  release->budget = PrivacyParams{0.5, 1e-4};
  release->x_hat.resize(d.NumCells());
  for (std::size_t i = 0; i < d.NumCells(); ++i) {
    const double sign = (i % 3 == 1) ? -1.0 : 1.0;
    release->x_hat[i] = sign * (0.1 * static_cast<double>(i) + 0.3) +
                        (i % 7 == 0 ? 1e9 : 0.0);
  }
  release->x_hat[0] = 1.5;
  release->x_hat[1] = -1.5;

  auto created = AnswerEngine::Create(strategy, release, d);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const AnswerEngine& engine = created.ValueOrDie();

  const char* const texts[] = {
      "*",
      "A1 = 1",
      "A2 != 2",
      "A3 < 3",
      "A3 <= 3",
      "A2 > 1",
      "A2 >= 1",
      "A3 IN [1, 3]",
      "A3 >= 1 AND A3 != 3",
      "A1 != 0 AND A2 IN [0, 2] AND A3 > 0",
      "A2 < 100",
      "A1 < 0",
      "A1 = 0 AND A2 = 0 AND A3 <= 1",
  };
  for (int pass = 0; pass < 2; ++pass) {  // cold cache, then warm
    for (const char* text : texts) {
      auto parsed = query::ParsePredicate(text, d);
      ASSERT_TRUE(parsed.ok()) << text;
      const query::Predicate& p = parsed.ValueOrDie();
      const linalg::Vector row = p.ToRow(d);
      EXPECT_EQ(row, ReferenceRow(p, d)) << text;
      const double want = linalg::Dot(row, release->x_hat);
      EXPECT_EQ(Bits(engine.AnswerPredicate(p).value), Bits(want))
          << text << " pass " << pass;
    }
  }
  // Every warm query hits, and so does the cold "A2 < 100": it clips to
  // the box of "*".
  EXPECT_EQ(engine.root_cache_hits(), std::size(texts) + 1);

  // The two zero answers are +0, as the dot product gives them.
  auto empty = query::ParsePredicate("A1 < 0", d).ValueOrDie();
  EXPECT_EQ(Bits(engine.AnswerPredicate(empty).value), Bits(0.0));
  auto cancel =
      query::ParsePredicate("A1 = 0 AND A2 = 0 AND A3 <= 1", d).ValueOrDie();
  EXPECT_EQ(Bits(engine.AnswerPredicate(cancel).value), Bits(0.0));
}

}  // namespace
}  // namespace dpmm
