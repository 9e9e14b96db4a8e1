// dpmm_cli — command-line front end for the adaptive mechanism.
//
// Subcommands:
//   error    --domain 8,16,16 --workload allrange [--epsilon E --delta D]
//            Analytic error comparison (eigen design vs baselines vs bound).
//   design   --domain 8,16,16 --workload allrange --out strategy.bin
//            Run the Eigen-Design once and persist the strategy (selection
//            is database-independent and reusable).
//   release  --data hist.csv --workload allrange --epsilon E [--delta D]
//            [--seed S] [--strategy strategy.bin] [--out answers.csv]
//            [--batch B]
//            One private release of the workload answers — or, with
//            --batch B, B releases in one pass (the budget is split evenly
//            by sequential composition; structured workloads share the
//            factorization and the block normal solve across the batch).
//   synth    --data hist.csv --epsilon E [--delta D] [--seed S]
//            [--strategy strategy.bin] [--out synth.csv]
//            Private synthetic histogram (designed for the all-range
//            workload, then post-processed to nonnegative integers).
//   serve    --store DIR --domain 8,16,16 [--workload allrange]
//            [--release N]
//            Line-oriented query loop over a stored release: one predicate
//            per line in ("A1 >= 3 AND A3 IN [4, 9]", or "*" for the total
//            query; ';'-separated predicates answer as one batch), answer
//            "value ± stddev" out. No design, no data access, no budget
//            spent — everything is post-processing of the stored estimate.
//   stats    [--json 1]
//            Print the process metric inventory (every standard counter,
//            gauge and histogram, zero in a fresh process) as aligned
//            tables, or as one machine-readable JSON object with --json 1.
//            Live numbers come from the process that did the work:
//            DPMM_STATS=1 makes any command dump its recorded metrics to
//            stderr at exit, the serve loop answers a \stats meta-command
//            and takes --stats-every N for a periodic summary line, and
//            DPMM_TRACE=out.json writes a Chrome trace_event file.
//   store    <stat|compact> --store DIR [--shards N]
//            Storage-engine maintenance. stat prints the layout (flat vs
//            sharded, migrating) and per-shard occupancy; compact rewrites
//            every shard down to its live artifacts (adopting unmanifested
//            files, re-homing v1 flat artifacts, deleting superseded and
//            tombstoned files) under the shard locks. Compacting a v1 flat
//            store with --shards N is the upgrade path to the sharded
//            layout.
//
// The store-and-serve pipeline ("design once, serve many"):
//   design  --save DIR   persists the designed implicit strategy under the
//                        canonical (domain, workload) key;
//   release --store DIR  reuses the stored strategy (designing it on first
//                        use), charges the dataset's persistent budget
//                        ledger, and stores the released estimate(s);
//   serve   --store DIR  answers ad-hoc predicate queries from the stored
//                        artifacts in a fresh process.
//
// Option parsing is strict: unknown or misspelled options, missing values,
// malformed numeric/boolean values and out-of-range
// --solver/--gap-tol/--engine values are hard errors (exit 2), never
// silently-ignored fallbacks.
// A release refused by the budget ledger (it would exceed the dataset's
// lifetime (eps, delta)) exits with the distinct code 3.
// Commands that run a design accept --engine auto|dense|kron (auto = the
// implicit pipeline whenever the workload has Kronecker eigenstructure,
// dense otherwise), --solver ascent|fista|lbfgs and --gap-tol G; release
// output reports the engine, the achieved duality gap and the iteration
// count.
//
// Workload specs: allrange | cdf | marginals:K | rangemarginals:K | fig1
// Histogram CSV format: see data::SaveCsv (header "# domain: d1,d2,...").
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dpmm/dpmm.h"

using namespace dpmm;

namespace {

struct Args {
  std::string command;
  /// Sub-verb of the `ledger` (show|recover|hold) and `store`
  /// (stat|compact) commands.
  std::string verb;
  std::map<std::string, std::string> options;
};

/// Exit codes: 2 for every usage/parse/IO error (strict-parsing contract),
/// 3 — and only 3 — when the persistent budget ledger refuses a release
/// that would exceed the dataset's lifetime (eps, delta), 4 when the
/// dataset's ledger lock could not be acquired within --lock-timeout-ms
/// (another release/recover process owns it; retry later), 5 when the
/// ledger state is damaged (quarantined snapshot) and serving fails closed
/// until `ledger recover` or a backup restore. Scripts can tell "you asked
/// wrong" from "the budget is gone" from "busy" from "broken".
constexpr int kExitUsage = 2;
constexpr int kExitBudget = 3;
constexpr int kExitUnavailable = 4;
constexpr int kExitDataLoss = 5;

/// Maps a failed ledger or store operation's Status to the exit-code
/// contract above.
int FailureExitCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kResourceExhausted: return kExitBudget;
    case StatusCode::kUnavailable: return kExitUnavailable;
    case StatusCode::kDataLoss: return kExitDataLoss;
    default: return kExitUsage;
  }
}

/// The ledger's (and `store` maintenance verbs') filesystem seam.
/// DPMM_FS_CRASH_AFTER=N injects a crash at the (N+1)-th filesystem
/// operation performed through the seam — every later op fails as if the
/// process had died mid-charge (or mid-compaction). This exists so
/// shell-level tests (tools/cli_api_test.sh) can drive the crash-recovery
/// paths through the real binary; it is not a user feature. The
/// design/release/serve artifact stores deliberately stay on the real
/// filesystem so ledger crash points keep their historical tick numbers.
serve::FsOps* CliLedgerFsOps() {
  static serve::FsOps* ops = [ticks = std::getenv("DPMM_FS_CRASH_AFTER")]() -> serve::FsOps* {
    if (ticks == nullptr) return serve::SystemFsOps();
    auto* injected = new serve::FaultInjectionFsOps(serve::SystemFsOps());
    injected->set_crash_after(std::atol(ticks));
    return injected;
  }();
  return ops;
}

/// Known options per command — anything else is a hard error, so a typo
/// cannot silently fall back to a default.
const std::map<std::string, std::set<std::string>>& KnownOptions() {
  static const auto* kKnown = new std::map<std::string, std::set<std::string>>{
      {"error", {"domain", "workload", "epsilon", "delta", "solver", "gap-tol"}},
      {"design",
       {"domain", "workload", "out", "save", "solver", "gap-tol", "engine",
        "shards"}},
      {"release",
       {"data", "workload", "epsilon", "delta", "seed", "strategy", "out",
        "engine", "batch", "solver", "gap-tol", "store", "dataset",
        "total-epsilon", "total-delta", "lock-timeout-ms", "charge-id",
        "shards"}},
      {"ledger", {"store", "dataset", "lock-timeout-ms", "hold-ms"}},
      {"synth",
       {"data", "workload", "epsilon", "delta", "seed", "strategy", "out",
        "engine", "solver", "gap-tol"}},
      {"serve",
       {"store", "domain", "workload", "release", "shards", "stats-every"}},
      {"store", {"store", "shards", "lock-timeout-ms"}},
      {"stats", {"json"}},
  };
  return *kKnown;
}

/// Strict option scan: every option is --key value, the key must be known
/// for the command, and no key may repeat. Returns false after printing the
/// problem.
bool ParseOptions(int argc, char** argv, Args* args, int first = 2) {
  const auto& known = KnownOptions().at(args->command);
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s' (options are --key value)\n",
                   key.c_str());
      return false;
    }
    key = key.substr(2);
    if (known.count(key) == 0) {
      std::fprintf(stderr, "unknown option --%s for '%s'\n", key.c_str(),
                   args->command.c_str());
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "option --%s is missing a value\n", key.c_str());
      return false;
    }
    if (!args->options.emplace(key, argv[i + 1]).second) {
      std::fprintf(stderr, "option --%s given more than once\n", key.c_str());
      return false;
    }
    ++i;
  }
  return true;
}

std::string Opt(const Args& args, const std::string& key,
                const std::string& fallback = "") {
  auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseU64(const std::string& s, unsigned long long* out) {
  if (s.empty() || s[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseBool(const std::string& s, bool* out) {
  if (s == "1" || s == "true") {
    *out = true;
    return true;
  }
  if (s == "0" || s == "false") {
    *out = false;
    return true;
  }
  return false;
}

/// Parses and validates an option value; prints the offense and returns
/// false on malformed input (the fallback is used when the option is
/// absent).
bool DoubleOpt(const Args& args, const std::string& key, double fallback,
               double* out) {
  const auto it = args.options.find(key);
  if (it == args.options.end()) {
    *out = fallback;
    return true;
  }
  if (!ParseDouble(it->second, out)) {
    std::fprintf(stderr, "option --%s expects a number, got '%s'\n",
                 key.c_str(), it->second.c_str());
    return false;
  }
  return true;
}

bool U64Opt(const Args& args, const std::string& key,
            unsigned long long fallback, unsigned long long* out) {
  const auto it = args.options.find(key);
  if (it == args.options.end()) {
    *out = fallback;
    return true;
  }
  if (!ParseU64(it->second, out)) {
    std::fprintf(stderr, "option --%s expects a nonnegative integer, got '%s'\n",
                 key.c_str(), it->second.c_str());
    return false;
  }
  return true;
}

Result<Domain> ParseDomain(const std::string& spec) {
  std::vector<std::size_t> sizes;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    const std::string tok = spec.substr(pos, next - pos);
    unsigned long long size = 0;
    if (!ParseU64(tok, &size) || size == 0) {
      return Status::InvalidArgument("bad domain spec '" + spec + "'");
    }
    sizes.push_back(static_cast<std::size_t>(size));
    pos = next + 1;
  }
  if (sizes.empty()) return Status::InvalidArgument("empty domain spec");
  return Domain(sizes);
}

Result<std::shared_ptr<Workload>> ParseWorkload(const std::string& spec,
                                                const Domain& domain) {
  if (spec == "allrange") {
    return std::shared_ptr<Workload>(new AllRangeWorkload(domain));
  }
  if (spec == "fig1") {
    // The paper's Fig. 1 running example: 8 explicit queries over the
    // 2 x 4 gender x gpa domain — an unstructured workload that exercises
    // the dense engine end to end (design --save, release --store, serve).
    linalg::Matrix m = builders::Fig1Matrix();
    if (domain.NumCells() != m.cols()) {
      return Status::InvalidArgument(
          "fig1 workload needs a domain with " + std::to_string(m.cols()) +
          " cells (e.g. --domain 2,4)");
    }
    return std::shared_ptr<Workload>(
        new ExplicitWorkload(domain, std::move(m), "Fig1"));
  }
  if (spec == "cdf") {
    if (domain.num_attributes() != 1) {
      return Status::InvalidArgument("cdf workload requires a 1-D domain");
    }
    return std::shared_ptr<Workload>(new PrefixWorkload(domain.size(0)));
  }
  const auto colon = spec.find(':');
  if (colon != std::string::npos) {
    const std::string kind = spec.substr(0, colon);
    unsigned long long way = 0;
    if (!ParseU64(spec.substr(colon + 1), &way) || way == 0) {
      return Status::InvalidArgument("bad marginal order in '" + spec + "'");
    }
    if (way > domain.num_attributes()) {
      return Status::InvalidArgument("marginal order exceeds attribute count");
    }
    if (kind == "marginals") {
      return std::shared_ptr<Workload>(new MarginalsWorkload(
          MarginalsWorkload::AllKWay(domain, way)));
    }
    if (kind == "rangemarginals") {
      return std::shared_ptr<Workload>(
          new MarginalsWorkload(MarginalsWorkload::AllKWay(
              domain, way, MarginalsWorkload::Flavor::kRangeMarginal)));
    }
  }
  return Status::InvalidArgument("unknown workload spec '" + spec + "'");
}

/// Program-1 solver selection, shared by every design-running command. Out-
/// of-range values are hard errors (exit 2) like every other option — a
/// misspelled method or an impossible tolerance must not silently fall back
/// to the default solver.
bool ParseSolverOptions(const Args& args, optimize::DesignOptions* options) {
  const auto it = args.options.find("solver");
  if (it != args.options.end()) {
    const auto method = optimize::ParseSolverMethod(it->second);
    if (!method.has_value()) {
      std::fprintf(stderr,
                   "option --solver expects ascent|fista|lbfgs, got '%s'\n",
                   it->second.c_str());
      return false;
    }
    options->solver.method = *method;
    // Choosing an accelerated solver without an explicit tolerance means
    // "give me the deep gap": default to 1e-10 instead of the ascent
    // default, which would stop the pipeline at 1e-6 before its curvature
    // phases earn their keep.
    if (*method != optimize::SolverMethod::kAscent) {
      options->solver.relative_gap_tol = 1e-10;
    }
  }
  double gap_tol = options->solver.relative_gap_tol;
  if (!DoubleOpt(args, "gap-tol", gap_tol, &gap_tol)) return false;
  if (!std::isfinite(gap_tol) || gap_tol <= 0.0 || gap_tol >= 1.0) {
    std::fprintf(stderr,
                 "--gap-tol must be a relative duality gap in (0, 1)\n");
    return false;
  }
  options->solver.relative_gap_tol = gap_tol;
  return true;
}

/// Engine selection for every design-running command: --engine
/// auto|dense|kron (strict: anything else exits 2).
bool ParseEngineOption(const Args& args, optimize::EngineSelection* engine) {
  const auto engine_it = args.options.find("engine");
  if (engine_it == args.options.end()) return true;
  const auto parsed = optimize::ParseEngineSelection(engine_it->second);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "option --engine expects auto|dense|kron, got '%s'\n",
                 engine_it->second.c_str());
    return false;
  }
  *engine = *parsed;
  return true;
}

/// True when a reused (stored or file-loaded) strategy's engine satisfies
/// an explicit --engine request; auto accepts anything. An explicit engine
/// is an assertion — silently releasing through the other engine would
/// defeat exactly the guarantee the flag exists to give.
bool EngineMatchesSelection(StrategyEngine engine,
                            optimize::EngineSelection selection) {
  switch (selection) {
    case optimize::EngineSelection::kAuto:
      return true;
    case optimize::EngineSelection::kDense:
      return engine == StrategyEngine::kDense;
    case optimize::EngineSelection::kKron:
      return engine == StrategyEngine::kKron;
  }
  return true;
}

/// The engine and Program-1 certificate of a fresh design, as release
/// output reports it.
std::string CertificateNote(const optimize::DesignResult& d) {
  char note[128];
  std::snprintf(note, sizeof(note),
                ", engine=%s solver=%s gap=%.3e iterations=%d",
                StrategyEngineName(d.engine),
                optimize::SolverMethodName(d.solver_report.method),
                d.duality_gap, d.solver_report.iterations);
  return note;
}

bool ParsePrivacy(const Args& args, PrivacyParams* privacy) {
  if (!DoubleOpt(args, "epsilon", 0.5, &privacy->epsilon) ||
      !DoubleOpt(args, "delta", 1e-4, &privacy->delta)) {
    return false;
  }
  // Finiteness matters as much as sign: NaN slips past a <= 0 test, and an
  // infinite epsilon would emit an exact release labeled as private.
  // delta >= 1 is no privacy at all, and the Gaussian calibration
  // log(2 / delta) / eps^2 is not defined for it.
  if (!std::isfinite(privacy->epsilon) || !std::isfinite(privacy->delta) ||
      privacy->epsilon <= 0.0 || privacy->delta <= 0.0 ||
      privacy->delta >= 1.0) {
    std::fprintf(stderr,
                 "--epsilon must be positive and finite, and --delta in "
                 "(0, 1)\n");
    return false;
  }
  return true;
}

/// --shards/--lock-timeout-ms for every artifact-store-touching command.
/// 0 shards means "respect whatever the root already is" — a flat store
/// stays flat, a pinned shard count is honored; a conflicting nonzero count
/// is refused by StoreLayout::Resolve at open time.
bool ParseStoreOptions(const Args& args, serve::StoreOptions* options) {
  unsigned long long shards = 0;
  if (!U64Opt(args, "shards", 0, &shards)) return false;
  options->shards = static_cast<std::size_t>(shards);
  unsigned long long lock_timeout_ms = 10000;
  if (!U64Opt(args, "lock-timeout-ms", 10000, &lock_timeout_ms)) return false;
  options->lock.timeout_ms = static_cast<int>(lock_timeout_ms);
  return true;
}

int CmdError(const Args& args) {
  auto domain = ParseDomain(Opt(args, "domain"));
  if (!domain.ok()) {
    std::fprintf(stderr, "%s\n", domain.status().ToString().c_str());
    return 2;
  }
  auto workload = ParseWorkload(Opt(args, "workload", "allrange"),
                                domain.ValueOrDie());
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *workload.ValueOrDie();
  ErrorOptions opts;
  if (!ParsePrivacy(args, &opts.privacy)) return 2;
  optimize::DesignOptions design_options;
  if (!ParseSolverOptions(args, &design_options)) return 2;

  std::printf("workload: %s (%zu queries over %zu cells)\n",
              w.Name().c_str(), w.num_queries(), w.num_cells());
  const linalg::Matrix gram = w.Gram();
  const Strategy design =
      optimize::Design(linalg::SymmetricEigen(gram).ValueOrDie(),
                       design_options)
          .ValueOrDie()
          .strategy->Materialize();
  const Domain& dom = w.domain();

  TablePrinter table({"strategy", "per-query RMSE", "vs bound"});
  const double bound = SvdErrorLowerBound(gram, w.num_queries(), opts);
  auto add = [&](const std::string& name, double err) {
    table.AddRow({name, TablePrinter::Num(err, 3),
                  TablePrinter::Num(err / bound, 3) + "x"});
  };
  add("EigenDesign", StrategyError(gram, w.num_queries(), design, opts));
  add("Wavelet", StrategyError(gram, w.num_queries(), WaveletStrategy(dom), opts));
  add("Hierarchical",
      StrategyError(gram, w.num_queries(), HierarchicalStrategy(dom), opts));
  add("Identity", StrategyError(gram, w.num_queries(),
                                IdentityStrategy(w.num_cells()), opts));
  add("LowerBound", bound);
  table.Print();
  return 0;
}

int CmdDesign(const Args& args) {
  auto domain = ParseDomain(Opt(args, "domain"));
  if (!domain.ok()) {
    std::fprintf(stderr, "%s\n", domain.status().ToString().c_str());
    return kExitUsage;
  }
  const std::string spec = Opt(args, "workload", "allrange");
  auto workload = ParseWorkload(spec, domain.ValueOrDie());
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return kExitUsage;
  }
  const std::string out = Opt(args, "out");
  const std::string save_root = Opt(args, "save");
  if (out.empty() && save_root.empty()) {
    std::fprintf(stderr,
                 "design requires --out <strategy file> and/or "
                 "--save <store dir>\n");
    return kExitUsage;
  }
  optimize::DesignOptions design_options;
  if (!ParseSolverOptions(args, &design_options)) return kExitUsage;
  if (!ParseEngineOption(args, &design_options.engine)) return kExitUsage;
  const Workload& w = *workload.ValueOrDie();

  // One unified design run serves both sinks: the store artifact keeps the
  // strategy in its native engine form (implicit strategies stay a few
  // small factors, explicit strategies a p x n matrix), the standalone
  // --out file gets the dense form.
  Stopwatch sw;
  auto design = optimize::Design(w, design_options);
  if (!design.ok()) {
    std::fprintf(stderr, "%s\n", design.status().ToString().c_str());
    return kExitUsage;
  }
  auto& d = design.ValueOrDie();

  if (!save_root.empty()) {
    serialize::StrategyArtifact artifact;
    artifact.signature = serve::CanonicalSignature(spec, w.domain());
    artifact.domain_sizes = w.domain().sizes();
    artifact.strategy = d.strategy;
    artifact.solver_report = d.solver_report;
    artifact.duality_gap = d.duality_gap;
    artifact.rank = d.rank;
    serve::StoreOptions store_options;
    if (!ParseStoreOptions(args, &store_options)) return kExitUsage;
    serve::StrategyStore store(save_root, store_options);
    Status st = store.Put(artifact);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return FailureExitCode(st);
    }
    std::printf("designed strategy for %s in %.1fs (engine %s, rank %zu, "
                "solver %s, gap %.1e in %d iterations); stored as %s "
                "(key %s)\n",
                w.Name().c_str(), sw.Seconds(), StrategyEngineName(d.engine),
                d.rank, optimize::SolverMethodName(d.solver_report.method),
                d.duality_gap, d.solver_iterations,
                artifact.signature.c_str(),
                serve::StoreKey(artifact.signature).c_str());
  }
  if (!out.empty()) {
    Status st = strategy_io::SaveStrategy(d.strategy->Materialize(), out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return kExitUsage;
    }
    if (save_root.empty()) {
      std::printf("designed strategy for %s in %.1fs (engine %s, rank %zu, "
                  "solver %s, gap %.1e in %d iterations); wrote %s\n",
                  w.Name().c_str(), sw.Seconds(),
                  StrategyEngineName(d.engine), d.rank,
                  optimize::SolverMethodName(d.solver_report.method),
                  d.duality_gap, d.solver_iterations, out.c_str());
    } else {
      std::printf("wrote %s\n", out.c_str());
    }
  }
  return 0;
}

int CmdReleaseOrSynth(const Args& args, bool synth) {
  // Validate every cheap option before touching the data file, so a typo
  // is reported immediately instead of after parsing a large histogram
  // (or being masked by an I/O error).
  PrivacyParams privacy;
  if (!ParsePrivacy(args, &privacy)) return 2;
  optimize::DesignOptions design_options;
  if (!ParseSolverOptions(args, &design_options)) return 2;
  if (!ParseEngineOption(args, &design_options.engine)) return 2;
  unsigned long long seed = 0;
  unsigned long long batch = 1;
  if (!U64Opt(args, "seed", 42, &seed) || !U64Opt(args, "batch", 1, &batch)) {
    return 2;
  }
  // Upper bound keeps a typo'd batch from aborting on a multi-hundred-GB
  // budget-split allocation instead of exiting cleanly.
  constexpr unsigned long long kMaxBatch = 10000;
  if (batch == 0 || batch > kMaxBatch) {
    std::fprintf(stderr, "--batch must be between 1 and %llu\n", kMaxBatch);
    return 2;
  }

  auto loaded = data::LoadCsv(Opt(args, "data"));
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 2;
  }
  const DataVector& data_vec = loaded.ValueOrDie();
  auto workload =
      ParseWorkload(Opt(args, "workload", "allrange"), data_vec.domain);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *workload.ValueOrDie();
  // One budget per release: even split by sequential composition (the
  // single-release case degenerates to the whole budget).
  const std::vector<PrivacyParams> budgets = release::SplitBudget(
      privacy, std::vector<double>(static_cast<std::size_t>(batch), 1.0));

  // Reuse a persisted strategy when provided; otherwise design now —
  // through the engine --engine selects (auto = the implicit Kronecker
  // pipeline when the workload has one, so structured releases never
  // materialize an n x n matrix; dense for unstructured workloads). The
  // release assembly itself is engine-agnostic: release::ReleaseBatch
  // dispatches through the LinearStrategy interface.
  Rng rng(seed);
  std::vector<linalg::Vector> x_hats;
  // Release output reports the Program-1 convergence certificate whenever a
  // design ran (empty for persisted strategies: no solve happened).
  std::string solver_note;
  const std::string strategy_path = Opt(args, "strategy");
  const std::string store_root = Opt(args, "store");
  if (!store_root.empty() && !strategy_path.empty()) {
    std::fprintf(stderr,
                 "--store and --strategy are mutually exclusive (the store "
                 "keys strategies by workload signature itself)\n");
    return kExitUsage;
  }
  if (!store_root.empty()) {
    // Store-backed release: reuse the stored implicit strategy (designing
    // and storing it on first use), charge the dataset's persistent budget
    // ledger before any noise is drawn, and persist every released
    // estimate for later `serve` processes.
    const std::string spec = Opt(args, "workload", "allrange");
    const std::string signature =
        serve::CanonicalSignature(spec, data_vec.domain);
    serve::StoreOptions store_options;
    if (!ParseStoreOptions(args, &store_options)) return kExitUsage;
    serve::StrategyStore sstore(store_root, store_options);
    std::shared_ptr<const serialize::StrategyArtifact> artifact;
    auto stored = sstore.Get(signature);
    if (stored.ok()) {
      artifact = std::move(stored).ValueOrDie();
      if (!EngineMatchesSelection(artifact->engine(), design_options.engine)) {
        std::fprintf(
            stderr,
            "stored strategy for %s uses the %s engine, but --engine %s was "
            "requested; drop --engine or re-design into a fresh store\n",
            signature.c_str(), StrategyEngineName(artifact->engine()),
            optimize::EngineSelectionName(design_options.engine));
        return kExitUsage;
      }
      char note[160];
      std::snprintf(note, sizeof(note),
                    ", stored strategy (engine=%s design solver=%s gap=%.3e)",
                    StrategyEngineName(artifact->engine()),
                    optimize::SolverMethodName(
                        artifact->solver_report.method),
                    artifact->duality_gap);
      solver_note = note;
      std::fprintf(stderr,
                   "reusing stored strategy for %s (key %s) — no "
                   "eigen-design run\n",
                   signature.c_str(), serve::StoreKey(signature).c_str());
    } else if (stored.status().code() == StatusCode::kNotFound) {
      auto design = optimize::Design(w, design_options);
      if (!design.ok()) {
        std::fprintf(stderr, "%s\n", design.status().ToString().c_str());
        return kExitUsage;
      }
      auto& d = design.ValueOrDie();
      auto fresh = std::make_shared<serialize::StrategyArtifact>();
      fresh->signature = signature;
      fresh->domain_sizes = data_vec.domain.sizes();
      fresh->strategy = d.strategy;
      fresh->solver_report = d.solver_report;
      fresh->duality_gap = d.duality_gap;
      fresh->rank = d.rank;
      Status st = sstore.Put(*fresh);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return FailureExitCode(st);
      }
      solver_note = CertificateNote(d);
      std::fprintf(stderr,
                   "designed and stored strategy for %s (key %s, engine %s, "
                   "rank %zu)\n",
                   signature.c_str(), serve::StoreKey(signature).c_str(),
                   StrategyEngineName(d.engine), d.rank);
      artifact = std::move(fresh);
    } else {
      std::fprintf(stderr, "%s\n", stored.status().ToString().c_str());
      return kExitUsage;
    }

    // Persistent accounting: the whole run's (eps, delta) is charged
    // against the dataset's lifetime budget before any noise is drawn. The
    // lifetime total is fixed by the first charge — explicitly via
    // --total-epsilon/--total-delta, else that first run's budget. Later
    // runs inherit the recorded total per component, so an unspecified
    // component can never masquerade as a renegotiation attempt; an
    // explicitly passed component must match the record (the ledger
    // refuses renegotiation).
    const std::string dataset = Opt(args, "dataset", Opt(args, "data"));
    unsigned long long lock_timeout_ms = 10000;
    if (!U64Opt(args, "lock-timeout-ms", 10000, &lock_timeout_ms)) {
      return kExitUsage;
    }
    serve::LedgerOptions ledger_options;
    ledger_options.fs = CliLedgerFsOps();
    ledger_options.lock.timeout_ms = static_cast<int>(lock_timeout_ms);
    serve::BudgetLedger ledger(store_root, ledger_options);
    PrivacyParams total = privacy;
    {
      auto existing = ledger.Read(dataset);
      if (existing.ok()) total = existing.ValueOrDie().total;
    }
    if (!DoubleOpt(args, "total-epsilon", total.epsilon, &total.epsilon) ||
        !DoubleOpt(args, "total-delta", total.delta, &total.delta)) {
      return kExitUsage;
    }
    if (!std::isfinite(total.epsilon) || !std::isfinite(total.delta) ||
        total.epsilon <= 0.0 || total.delta <= 0.0) {
      std::fprintf(stderr,
                   "--total-epsilon and --total-delta must be positive and "
                   "finite\n");
      return kExitUsage;
    }
    // --charge-id makes a rerun of a crashed release idempotent at the
    // accounting layer: if the crashed run's charge already made it into
    // the durable WAL, the retry is recognized and not charged again.
    auto charged =
        ledger.Charge(dataset, total, privacy, Opt(args, "charge-id"));
    if (!charged.ok()) {
      std::fprintf(stderr, "%s\n", charged.status().ToString().c_str());
      return FailureExitCode(charged.status());
    }
    const auto& entry = charged.ValueOrDie();
    std::fprintf(stderr,
                 "budget ledger '%s': spent (eps=%g, delta=%g) of lifetime "
                 "(eps=%g, delta=%g) across %zu release runs\n",
                 dataset.c_str(), entry.spent.epsilon, entry.spent.delta,
                 entry.total.epsilon, entry.total.delta, entry.charges);

    x_hats = release::ReleaseBatch(*artifact->strategy, data_vec.counts,
                                   budgets, &rng)
                 .x_hats;

    serve::ReleaseStore rstore(store_root, store_options);
    for (std::size_t b = 0; b < x_hats.size(); ++b) {
      serialize::ReleaseArtifact rel;
      rel.signature = signature;
      rel.domain_sizes = data_vec.domain.sizes();
      rel.budget = budgets[b];
      rel.dataset = dataset;
      rel.seed = seed;
      rel.batch_index = b;
      rel.x_hat = x_hats[b];
      auto id = rstore.Put(rel);
      if (!id.ok()) {
        std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
        return FailureExitCode(id.status());
      }
      std::fprintf(stderr, "stored release %zu of %s\n", id.ValueOrDie(),
                   signature.c_str());
    }
  } else if (!strategy_path.empty()) {
    auto loaded_strategy = strategy_io::LoadStrategy(strategy_path);
    if (!loaded_strategy.ok()) {
      std::fprintf(stderr, "%s\n",
                   loaded_strategy.status().ToString().c_str());
      return 2;
    }
    Strategy strategy = std::move(loaded_strategy).ValueOrDie();
    if (!EngineMatchesSelection(strategy.engine(), design_options.engine)) {
      std::fprintf(stderr,
                   "--strategy files hold dense strategies, but --engine %s "
                   "was requested\n",
                   optimize::EngineSelectionName(design_options.engine));
      return 2;
    }
    if (strategy.num_cells() != data_vec.domain.NumCells()) {
      std::fprintf(stderr, "strategy has %zu cells, data has %zu\n",
                   strategy.num_cells(), data_vec.domain.NumCells());
      return 2;
    }
    x_hats = release::ReleaseBatch(strategy, data_vec.counts, budgets, &rng)
                 .x_hats;
  } else {
    auto designed = optimize::Design(w, design_options);
    if (!designed.ok()) {
      std::fprintf(stderr, "%s\n", designed.status().ToString().c_str());
      return 2;
    }
    auto& d = designed.ValueOrDie();
    solver_note = CertificateNote(d);
    if (d.engine == StrategyEngine::kKron) {
      std::fprintf(stderr,
                   "kron fast path: implicit strategy over %zu cells "
                   "(rank %zu%s)\n",
                   w.num_cells(), d.rank, solver_note.c_str());
    }
    x_hats = release::ReleaseBatch(*d.strategy, data_vec.counts, budgets,
                                   &rng)
                 .x_hats;
  }

  const std::string out = Opt(args, "out");
  if (synth) {
    DataVector synth_data = release::SyntheticData(data_vec.domain, x_hats[0]);
    if (out.empty()) {
      std::printf("# private synthetic histogram (eps=%.3f, delta=%g)\n",
                  privacy.epsilon, privacy.delta);
      for (std::size_t i = 0; i < synth_data.counts.size(); ++i) {
        std::printf("%zu,%.0f\n", i, synth_data.counts[i]);
      }
    } else {
      Status st = data::SaveCsv(synth_data, out);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 2;
      }
      std::printf("wrote %s\n", out.c_str());
    }
    return 0;
  }

  std::vector<linalg::Vector> answers;
  answers.reserve(x_hats.size());
  for (const auto& x_hat : x_hats) answers.push_back(w.Answer(x_hat));
  FILE* sink = stdout;
  if (!out.empty()) {
    sink = std::fopen(out.c_str(), "w");
    if (sink == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out.c_str());
      return 2;
    }
  }
  if (answers.size() == 1) {
    std::fprintf(sink,
                 "# query,private_answer (eps=%.3f, delta=%g, seed=%llu%s)\n",
                 privacy.epsilon, privacy.delta,
                 static_cast<unsigned long long>(seed), solver_note.c_str());
  } else {
    std::fprintf(sink,
                 "# query,answer_0..answer_%zu (total eps=%.3f, delta=%g "
                 "split evenly across %zu releases, seed=%llu%s)\n",
                 answers.size() - 1, privacy.epsilon, privacy.delta,
                 answers.size(), static_cast<unsigned long long>(seed),
                 solver_note.c_str());
  }
  for (std::size_t q = 0; q < answers[0].size(); ++q) {
    std::fprintf(sink, "%zu", q);
    for (const auto& a : answers) std::fprintf(sink, ",%.6f", a[q]);
    std::fprintf(sink, "\n");
  }
  if (sink != stdout) {
    std::fclose(sink);
    std::printf("wrote %zu answers x %zu releases to %s\n", answers[0].size(),
                answers.size(), out.c_str());
  }
  return 0;
}

/// Compact metrics dump on stderr — serve's stdout carries only answer
/// lines, so the `\stats` meta-command and the DPMM_STATS end-of-command
/// snapshot must not interleave with it. Zero-valued instruments are
/// suppressed (the full inventory lives in `dpmm_cli stats`).
void DumpStatsToStderr() {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::fprintf(stderr, "-- metrics --\n");
  for (const auto& c : snap.counters) {
    if (c.second == 0) continue;
    std::fprintf(stderr, "%-48s %llu\n", c.first.c_str(),
                 static_cast<unsigned long long>(c.second));
  }
  for (const auto& g : snap.gauges) {
    if (g.second == 0) continue;
    std::fprintf(stderr, "%-48s %lld\n", g.first.c_str(),
                 static_cast<long long>(g.second));
  }
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    std::fprintf(stderr,
                 "%-48s count=%llu p50=%llu p95=%llu p99=%llu max=%llu\n",
                 h.name.c_str(), static_cast<unsigned long long>(h.count),
                 static_cast<unsigned long long>(h.p50),
                 static_cast<unsigned long long>(h.p95),
                 static_cast<unsigned long long>(h.p99),
                 static_cast<unsigned long long>(h.max));
  }
  std::fprintf(stderr, "perf: %s\n", GetPerfContext()->ToString().c_str());
}

int CmdServe(const Args& args) {
  const std::string store_root = Opt(args, "store");
  if (store_root.empty()) {
    std::fprintf(stderr, "serve requires --store <store dir>\n");
    return kExitUsage;
  }
  unsigned long long stats_every = 0;
  if (!U64Opt(args, "stats-every", 0, &stats_every)) return kExitUsage;
  auto domain = ParseDomain(Opt(args, "domain"));
  if (!domain.ok()) {
    std::fprintf(stderr, "%s\n", domain.status().ToString().c_str());
    return kExitUsage;
  }
  const std::string spec = Opt(args, "workload", "allrange");
  const std::string signature =
      serve::CanonicalSignature(spec, domain.ValueOrDie());

  serve::StoreOptions store_options;
  if (!ParseStoreOptions(args, &store_options)) return kExitUsage;
  serve::StrategyStore sstore(store_root, store_options);
  auto strategy = sstore.Get(signature);
  if (!strategy.ok()) {
    std::fprintf(stderr, "%s\nrun `dpmm_cli design --save %s` first\n",
                 strategy.status().ToString().c_str(), store_root.c_str());
    return kExitUsage;
  }

  serve::ReleaseStore rstore(store_root, store_options);
  unsigned long long release_id = 0;
  const bool explicit_release = args.options.count("release") != 0;
  if (!U64Opt(args, "release", 0, &release_id)) return kExitUsage;
  if (!explicit_release) {
    auto latest = rstore.LatestId(signature);
    if (!latest.ok()) {
      std::fprintf(stderr,
                   "%s\nrun `dpmm_cli release --store %s` first\n",
                   latest.status().ToString().c_str(), store_root.c_str());
      return kExitUsage;
    }
    release_id = latest.ValueOrDie();
  }
  auto release =
      rstore.Get(signature, static_cast<std::size_t>(release_id));
  if (!release.ok()) {
    std::fprintf(stderr, "%s\n", release.status().ToString().c_str());
    return kExitUsage;
  }

  // Serving is pure post-processing, but an overdrawn ledger means the
  // accounting behind this release is broken — refuse with the budget exit
  // code rather than serve answers whose privacy story no longer holds.
  serve::BudgetLedger ledger(store_root);
  auto entry = ledger.Read(release.ValueOrDie()->dataset);
  if (entry.ok()) {
    if (entry.ValueOrDie().Overdrawn()) {
      std::fprintf(stderr,
                   "budget ledger for dataset '%s' is overdrawn "
                   "(spent eps=%g delta=%g of eps=%g delta=%g); refusing to "
                   "serve\n",
                   entry.ValueOrDie().dataset.c_str(),
                   entry.ValueOrDie().spent.epsilon,
                   entry.ValueOrDie().spent.delta,
                   entry.ValueOrDie().total.epsilon,
                   entry.ValueOrDie().total.delta);
      return kExitBudget;
    }
  } else if (entry.status().code() != StatusCode::kNotFound) {
    // DataLoss (quarantined ledger) and lock contention get their distinct
    // exit codes: a damaged accounting record means serving fails closed.
    std::fprintf(stderr, "%s\n", entry.status().ToString().c_str());
    return FailureExitCode(entry.status());
  } else {
    std::fprintf(stderr,
                 "warning: no ledger entry for dataset '%s' (release stored "
                 "by an older flow, or ledger deleted)\n",
                 release.ValueOrDie()->dataset.c_str());
  }

  auto engine =
      serve::AnswerEngine::Create(strategy.ValueOrDie(),
                                  release.ValueOrDie(), domain.ValueOrDie());
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return kExitUsage;
  }
  const serve::AnswerEngine& eng = engine.ValueOrDie();
  const auto& rel = eng.release_artifact();
  std::fprintf(stderr,
               "serving %s release %llu (engine %s, dataset '%s', eps=%g, "
               "delta=%g, seed=%llu, batch index %llu) over %zu cells\n",
               signature.c_str(), release_id,
               StrategyEngineName(eng.strategy_artifact().engine()),
               rel.dataset.c_str(), rel.budget.epsilon, rel.budget.delta,
               static_cast<unsigned long long>(rel.seed),
               static_cast<unsigned long long>(rel.batch_index),
               eng.domain().NumCells());
  std::fprintf(stderr,
               "one predicate per line (e.g. \"A1 >= 3 AND A2 IN [0, 7]\", "
               "\"*\" for the total; ';' separates a batch; \"quit\" "
               "exits)\n");

  std::string line;
  std::size_t served = 0;
  std::size_t next_stats_at = stats_every;
  while (std::getline(std::cin, line)) {
    const std::string text = util::TrimAscii(line);
    if (text.empty() || text[0] == '#') continue;
    if (text == "quit" || text == "exit") break;
    // Meta-command: dump the process-wide metrics registry and this
    // thread's perf context to stderr without consuming a query.
    if (text == "\\stats") {
      DumpStatsToStderr();
      continue;
    }

    // ';'-separated predicates answer as one batch through the block
    // normal solve; a single predicate takes the scalar path. Either way
    // each answer line is "value ± stddev" in input order.
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= text.size()) {
      std::size_t next = text.find(';', pos);
      if (next == std::string::npos) next = text.size();
      const std::string part = util::TrimAscii(text.substr(pos, next - pos));
      if (!part.empty()) parts.push_back(part);
      pos = next + 1;
    }
    if (parts.empty()) continue;

    if (parts.size() == 1) {
      auto answer = eng.AnswerText(parts[0]);
      if (!answer.ok()) {
        std::printf("error: %s\n", answer.status().message().c_str());
      } else {
        std::printf("%.6f ± %.6f\n", answer.ValueOrDie().value,
                    answer.ValueOrDie().stddev);
        ++served;
      }
    } else {
      std::vector<query::Predicate> batch;
      bool parse_ok = true;
      for (const auto& part : parts) {
        auto parsed = query::ParsePredicate(part, eng.domain());
        if (!parsed.ok()) {
          std::printf("error: %s\n", parsed.status().message().c_str());
          parse_ok = false;
          break;
        }
        batch.push_back(std::move(parsed).ValueOrDie());
      }
      if (!parse_ok) continue;
      const auto answers = eng.AnswerBatch(batch);
      for (const auto& a : answers) {
        std::printf("%.6f ± %.6f\n", a.value, a.stddev);
      }
      served += answers.size();
    }
    // Optional periodic stats line: every --stats-every served queries,
    // one summary line to stderr (cache behaviour + latency percentiles).
    if (stats_every > 0 && served >= next_stats_at) {
      next_stats_at = served + stats_every;
      const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
      std::uint64_t hits = 0, misses = 0, p50 = 0, p95 = 0;
      for (const auto& c : snap.counters) {
        if (c.first == "dpmm.serve.answer_engine.root_cache_hit") {
          hits = c.second;
        } else if (c.first == "dpmm.serve.answer_engine.root_cache_miss") {
          misses = c.second;
        }
      }
      for (const auto& h : snap.histograms) {
        if (h.name == "dpmm.serve.answer_engine.query_ns") {
          p50 = h.p50;
          p95 = h.p95;
        }
      }
      std::fprintf(stderr,
                   "stats: served=%zu root_cache_hit=%llu "
                   "root_cache_miss=%llu query_ns_p50=%llu "
                   "query_ns_p95=%llu\n",
                   served, static_cast<unsigned long long>(hits),
                   static_cast<unsigned long long>(misses),
                   static_cast<unsigned long long>(p50),
                   static_cast<unsigned long long>(p95));
    }
    std::fflush(stdout);
  }
  std::fprintf(stderr,
               "served %zu queries (root cache: %zu entries, %llu hits)\n",
               served, eng.root_cache_size(),
               static_cast<unsigned long long>(eng.root_cache_hits()));
  return 0;
}

void PrintEntry(const serve::LedgerEntry& entry) {
  std::printf("dataset  %s\n", entry.dataset.c_str());
  std::printf("total    eps=%.17g delta=%.17g\n", entry.total.epsilon,
              entry.total.delta);
  std::printf("spent    eps=%.17g delta=%.17g\n", entry.spent.epsilon,
              entry.spent.delta);
  std::printf("remaining eps=%.17g delta=%.17g\n",
              entry.Remaining().epsilon, entry.Remaining().delta);
  std::printf("charges  %zu\n", entry.charges);
  if (entry.Overdrawn()) std::printf("OVERDRAWN\n");
}

int CmdLedger(const Args& args) {
  const std::string store_root = Opt(args, "store");
  const std::string dataset = Opt(args, "dataset");
  if (store_root.empty() || dataset.empty()) {
    std::fprintf(stderr,
                 "ledger %s requires --store <store dir> and --dataset "
                 "<name>\n",
                 args.verb.c_str());
    return kExitUsage;
  }
  unsigned long long lock_timeout_ms = 10000;
  if (!U64Opt(args, "lock-timeout-ms", 10000, &lock_timeout_ms)) {
    return kExitUsage;
  }
  serve::LedgerOptions options;
  options.fs = CliLedgerFsOps();
  options.lock.timeout_ms = static_cast<int>(lock_timeout_ms);
  serve::BudgetLedger ledger(store_root, options);

  if (args.verb == "show") {
    auto entry = ledger.Read(dataset);
    if (!entry.ok()) {
      std::fprintf(stderr, "%s\n", entry.status().ToString().c_str());
      return FailureExitCode(entry.status());
    }
    PrintEntry(entry.ValueOrDie());
    return 0;
  }
  if (args.verb == "recover") {
    auto entry = ledger.Recover(dataset);
    if (!entry.ok()) {
      std::fprintf(stderr, "%s\n", entry.status().ToString().c_str());
      return FailureExitCode(entry.status());
    }
    std::fprintf(stderr,
                 "ledger for dataset '%s' recovered and checkpointed\n",
                 dataset.c_str());
    PrintEntry(entry.ValueOrDie());
    return 0;
  }
  if (args.verb == "hold") {
    // Holds the dataset's exclusive lock for --hold-ms: an arbitration
    // probe for scripts/tests exercising the Unavailable (exit 4) path.
    unsigned long long hold_ms = 1000;
    if (!U64Opt(args, "hold-ms", 1000, &hold_ms)) return kExitUsage;
    Status st = serve::internal::EnsureDir(store_root + "/ledger");
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return kExitUsage;
    }
    serve::FileLockOptions lock_options;
    lock_options.timeout_ms = static_cast<int>(lock_timeout_ms);
    auto lock = serve::FileLock::Acquire(
        store_root + "/ledger/" + serve::StoreKey(dataset) + ".lock",
        lock_options);
    if (!lock.ok()) {
      std::fprintf(stderr, "%s\n", lock.status().ToString().c_str());
      return FailureExitCode(lock.status());
    }
    std::fprintf(stderr, "holding ledger lock for dataset '%s' for %llums\n",
                 dataset.c_str(), hold_ms);
    std::fflush(stderr);
    ::usleep(static_cast<useconds_t>(hold_ms) * 1000);
    return 0;
  }
  std::fprintf(stderr, "unknown ledger verb '%s' (show|recover|hold)\n",
               args.verb.c_str());
  return kExitUsage;
}

int CmdStore(const Args& args) {
  const std::string store_root = Opt(args, "store");
  if (store_root.empty()) {
    std::fprintf(stderr, "store %s requires --store <store dir>\n",
                 args.verb.c_str());
    return kExitUsage;
  }
  serve::StoreOptions options;
  if (!ParseStoreOptions(args, &options)) return kExitUsage;
  options.fs = CliLedgerFsOps();

  if (args.verb == "stat") {
    auto stat = serve::StatStore(store_root, options);
    if (!stat.ok()) {
      std::fprintf(stderr, "%s\n", stat.status().ToString().c_str());
      return FailureExitCode(stat.status());
    }
    const serve::StoreStat& s = stat.ValueOrDie();
    if (!s.sharded) {
      std::printf("layout   flat (v1)\n");
      std::printf("strategies %zu\nreleases   %zu\n", s.flat_strategies,
                  s.flat_releases);
      return 0;
    }
    std::printf("layout   sharded, %zu shards%s\n", s.num_shards,
                s.migrating ? " (migrating: v1 flat artifacts present)" : "");
    if (s.migrating) {
      std::printf("flat     %zu strategies, %zu releases awaiting "
                  "re-homing\n",
                  s.flat_strategies, s.flat_releases);
    }
    TablePrinter table({"shard", "strategies", "live", "superseded",
                        "tombstoned", "unmanifested"});
    for (const serve::ShardStat& shard : s.shards) {
      table.AddRow({std::to_string(shard.shard),
                    std::to_string(shard.strategies),
                    std::to_string(shard.live),
                    std::to_string(shard.superseded),
                    std::to_string(shard.tombstoned),
                    std::to_string(shard.unmanifested)});
    }
    table.Print();
    return 0;
  }
  if (args.verb == "compact") {
    auto report = serve::CompactStore(store_root, options);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return FailureExitCode(report.status());
    }
    const serve::CompactionReport& r = report.ValueOrDie();
    std::printf("compacted %zu shards: %zu live artifacts kept, %zu dead "
                "files removed, %zu flat artifacts re-homed\n",
                r.shards_compacted, r.live_kept, r.files_removed,
                r.flat_migrated);
    return 0;
  }
  std::fprintf(stderr, "unknown store verb '%s' (stat|compact)\n",
               args.verb.c_str());
  return kExitUsage;
}

int CmdStats(const Args& args) {
  bool json = false;
  const std::string json_opt = Opt(args, "json");
  if (!json_opt.empty() && !ParseBool(json_opt, &json)) {
    std::fprintf(stderr, "option --json expects 0/1/true/false, got '%s'\n",
                 json_opt.c_str());
    return kExitUsage;
  }
  // A fresh process has recorded nothing yet; pre-registering the standard
  // inventory makes this print the full instrument list at zero rather
  // than an empty table, which doubles as the reference for what exists.
  MetricsRegistry::Global().RegisterStandardInventory();
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  if (json) {
    std::printf("%s\n", snap.ToJson().c_str());
    return 0;
  }
  TablePrinter counters({"counter", "value"});
  for (const auto& c : snap.counters) {
    counters.AddRow({c.first, std::to_string(c.second)});
  }
  counters.Print();
  std::printf("\n");
  TablePrinter gauges({"gauge", "value"});
  for (const auto& g : snap.gauges) {
    gauges.AddRow({g.first, std::to_string(g.second)});
  }
  gauges.Print();
  std::printf("\n");
  TablePrinter hists({"histogram", "count", "p50", "p95", "p99", "max"});
  for (const auto& h : snap.histograms) {
    hists.AddRow({h.name, std::to_string(h.count), std::to_string(h.p50),
                  std::to_string(h.p95), std::to_string(h.p99),
                  std::to_string(h.max)});
  }
  hists.Print();
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: dpmm_cli <error|design|release|synth|serve|ledger|"
               "store|stats> [--domain 8,16,16]\n"
               "                [--workload allrange|cdf|marginals:K|"
               "rangemarginals:K|fig1]\n"
               "                [--data hist.csv] [--epsilon E] [--delta D]\n"
               "                [--seed S] [--strategy strategy.bin] [--out file.csv]\n"
               "                [--batch B]   release only: B releases in one\n"
               "                pass, budget split evenly across the batch\n"
               "                [--engine auto|dense|kron]  strategy engine\n"
               "                for design/release/synth: auto (default)\n"
               "                rides the implicit Kronecker pipeline when\n"
               "                the workload has one and the dense pipeline\n"
               "                otherwise; dense/kron force one (kron on an\n"
               "                unstructured workload is an error)\n"
               "                [--solver ascent|fista|lbfgs]  Program-1 dual\n"
               "                solver (lbfgs = FISTA warm start + projected\n"
               "                L-BFGS, reaches ~1e-10 gaps where ascent\n"
               "                stalls at ~1e-5)\n"
               "                [--gap-tol G]  relative duality-gap stop, in\n"
               "                (0, 1); defaults to 1e-6 (ascent) or 1e-10\n"
               "                (fista/lbfgs); release output reports the\n"
               "                achieved gap and iteration count\n"
               "store-and-serve (design once, serve many):\n"
               "                [--save DIR]   design: persist the designed\n"
               "                strategy (either engine) in the artifact\n"
               "                store at DIR\n"
               "                [--store DIR]  release: reuse the stored\n"
               "                strategy (design on first use), charge the\n"
               "                dataset's budget ledger, store the estimate;\n"
               "                serve: answer predicate queries from the\n"
               "                store, one per line, \"value ± stddev\" out\n"
               "                [--dataset NAME]      ledger key (default:\n"
               "                the --data path)\n"
               "                [--total-epsilon E --total-delta D]  the\n"
               "                dataset's lifetime budget, fixed at first\n"
               "                release (default: this run's budget)\n"
               "                [--release N]  serve: release id (default:\n"
               "                latest)\n"
               "                [--shards N]   design/release/serve/store:\n"
               "                open the artifact store sharded across N\n"
               "                consistent-hash shard directories (pinned\n"
               "                at first write; a conflicting N is an\n"
               "                error; 0/absent respects the store as-is)\n"
               "                [--charge-id ID]  release: idempotency key\n"
               "                for the ledger charge — retrying a crashed\n"
               "                run with the same id charges exactly once\n"
               "                [--lock-timeout-ms T]  how long release/\n"
               "                ledger wait for the dataset's ledger lock\n"
               "                (default 10000)\n"
               "ledger <show|recover|hold> --store DIR --dataset NAME:\n"
               "                show: print the dataset's recovered budget\n"
               "                state; recover: replay the WAL, truncate any\n"
               "                torn tail, rebuild a quarantined snapshot\n"
               "                when the WAL holds full history, checkpoint;\n"
               "                hold [--hold-ms T]: hold the dataset's\n"
               "                exclusive lock (for contention tests)\n"
               "observability:\n"
               "                stats [--json 1]: print the metric\n"
               "                inventory (counters/gauges/histograms) as\n"
               "                tables, or one JSON object with --json 1\n"
               "                [--stats-every N]  serve: after every N\n"
               "                served queries print a one-line cache/\n"
               "                latency summary to stderr; the serve loop\n"
               "                also answers a \\stats meta-command with a\n"
               "                full dump. DPMM_STATS=1 dumps the metrics\n"
               "                any command recorded to stderr at exit;\n"
               "                DPMM_TRACE=out.json writes a Chrome\n"
               "                trace_event file of the recorded spans\n"
               "store <stat|compact> --store DIR [--shards N]:\n"
               "                stat: print the layout (flat/sharded/\n"
               "                migrating) and per-shard live/superseded/\n"
               "                tombstoned/unmanifested counts; compact:\n"
               "                rewrite every shard down to its live\n"
               "                artifacts under the shard locks, re-homing\n"
               "                v1 flat artifacts (--shards N on a flat\n"
               "                store is the v1 -> sharded upgrade)\n"
               "Unknown options, missing values, malformed numbers and\n"
               "out-of-range --solver/--gap-tol values are hard errors\n"
               "(exit 2). A release the budget ledger refuses exits 3; a\n"
               "ledger or shard lock that stays contended past\n"
               "--lock-timeout-ms exits 4; damaged (quarantined) ledger or\n"
               "manifest state exits 5.\n");
}

int Dispatch(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  if (KnownOptions().count(args.command) == 0) {
    Usage();
    return 1;
  }
  if (args.command == "ledger") {
    if (argc < 3 || argv[2][0] == '-') {
      std::fprintf(stderr, "ledger requires a verb: show|recover|hold\n");
      return kExitUsage;
    }
    args.verb = argv[2];
    if (!ParseOptions(argc, argv, &args, 3)) return kExitUsage;
    return CmdLedger(args);
  }
  if (args.command == "store") {
    if (argc < 3 || argv[2][0] == '-') {
      std::fprintf(stderr, "store requires a verb: stat|compact\n");
      return kExitUsage;
    }
    args.verb = argv[2];
    if (!ParseOptions(argc, argv, &args, 3)) return kExitUsage;
    return CmdStore(args);
  }
  if (!ParseOptions(argc, argv, &args)) return kExitUsage;
  if (args.command == "error") return CmdError(args);
  if (args.command == "design") return CmdDesign(args);
  if (args.command == "serve") return CmdServe(args);
  if (args.command == "stats") return CmdStats(args);
  if (args.command == "release") return CmdReleaseOrSynth(args, false);
  return CmdReleaseOrSynth(args, true);
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = Dispatch(argc, argv);
  // DPMM_STATS=1: dump whatever this command recorded to stderr on the way
  // out, so scripts can assert instrumented subsystems really counted
  // (tools/cli_api_test.sh drives this across design/release/serve).
  const char* stats_env = std::getenv("DPMM_STATS");
  if (stats_env != nullptr && std::strcmp(stats_env, "1") == 0) {
    DumpStatsToStderr();
  }
  return rc;
}
