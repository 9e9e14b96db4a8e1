// Kronecker fast-path scaling bench. Two claims, two sections:
//
//  (1) Speedup at a size the dense path can still handle: 2D all-range on
//      64 x 64 (n = 4096). Times end-to-end strategy selection through the
//      dense pipeline (materialized Gram -> O(n^3) eigensolve -> dense
//      weighting solve -> dense assembly) against the Kronecker pipeline
//      (two 64 x 64 eigensolves -> implicit weighting solve -> implicit
//      strategy), and validates that on a shared eigendecomposition the two
//      pipelines select strategies whose workload errors agree to 1e-6.
//      (The validation run fixes one eigenbasis: the Kronecker product has
//      repeated eigenvalues, and independent eigensolves may legitimately
//      pick different bases inside degenerate eigenspaces.)
//
//  (2) Scale the dense path cannot reach: 3D all-range on 64^3 (n = 2^18).
//      The dense pipeline would need an n x n Gram (512 GiB) plus an
//      O(n^3) ~ 1.8e16-flop eigensolve; the Kronecker path runs strategy
//      selection and a full private release end to end.
//
// Emits BENCH_kron_scaling.json (path via --out=FILE, default CWD) so later
// PRs can track the trajectory. --small shrinks both sections for smoke
// runs; --skip-scale omits section 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_common.h"

using namespace dpmm;

namespace {

struct ComparisonResult {
  std::size_t n = 0;
  double t_dense_s = 0;
  double t_kron_s = 0;
  double err_dense = 0;
  double err_kron = 0;
  double err_rel_diff = 0;
  double gap_dense = 0;
  double gap_kron = 0;
};

ComparisonResult RunComparison(std::size_t side) {
  ComparisonResult r;
  AllRangeWorkload w(Domain({side, side}));
  r.n = w.num_cells();
  const ErrorOptions eopts = bench::PaperErrorOptions();

  std::printf("\n[1] 2D all-range %zu x %zu (n = %zu)\n", side, side, r.n);

  // --- Timing: each pipeline end to end, its own eigendecomposition.
  optimize::DesignOptions options;
  options.engine = optimize::EngineSelection::kDense;
  Stopwatch sw;
  auto dense = optimize::Design(w, options);
  r.t_dense_s = sw.Seconds();
  DPMM_CHECK_MSG(dense.ok(), "dense eigen-design failed");

  sw.Restart();
  auto kron = optimize::Design(w);
  r.t_kron_s = sw.Seconds();
  DPMM_CHECK_MSG(kron.ok(), "kron eigen-design failed");

  std::printf("  dense pipeline : %8.2f s   (objective %.6g, gap %.1e)\n",
              r.t_dense_s, dense.ValueOrDie().predicted_objective,
              dense.ValueOrDie().duality_gap);
  std::printf("  kron  pipeline : %8.3f s   (objective %.6g, gap %.1e)\n",
              r.t_kron_s, kron.ValueOrDie().predicted_objective,
              kron.ValueOrDie().duality_gap);
  std::printf("  speedup        : %8.1f x\n", r.t_dense_s / r.t_kron_s);

  // --- Error match on a shared eigendecomposition with a tight solver
  // budget. Both sides run without column completion so both error paths
  // are exact closed forms (sum of kept eigenvalue / weight^2 — no
  // regularized dense solve in the reference), and the comparison isolates
  // the pipelines rather than eigensolver basis choices inside degenerate
  // Kronecker eigenspaces.
  optimize::DesignOptions tight;
  tight.solver.relative_gap_tol = 1e-9;
  tight.solver.max_iterations = 6000;
  tight.complete_columns = false;
  const auto keig = *w.ImplicitEigen();
  auto kron_tight = optimize::Design(keig, tight);
  DPMM_CHECK_MSG(kron_tight.ok(), "kron tight design failed");
  linalg::SymmetricEigenResult shared{keig.values, keig.basis.Dense()};
  auto dense_tight = optimize::Design(shared, tight);
  DPMM_CHECK_MSG(dense_tight.ok(), "dense tight design failed");

  const auto& dt = dense_tight.ValueOrDie();
  const auto& kt = kron_tight.ValueOrDie();
  r.gap_dense = dt.duality_gap;
  r.gap_kron = kt.duality_gap;
  // Same kept eigen-queries; dense row i is weight_i * eigenvector kept[i].
  const auto& kron_strategy = dynamic_cast<const KronStrategy&>(*kt.strategy);
  const std::vector<std::size_t>& kept = kron_strategy.kept();
  const linalg::Matrix dense_a = dt.strategy->Materialize().matrix();
  double tr_dense = 0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const linalg::Vector row = dense_a.Row(i);
    tr_dense += keig.values[kept[i]] / linalg::Dot(row, row);
  }
  r.err_dense = ErrorFromTrace(dt.strategy->L2Sensitivity(), tr_dense,
                               w.num_queries(), eopts);
  r.err_kron =
      StrategyError(keig.values, w.num_queries(), kron_strategy, eopts);
  r.err_rel_diff =
      std::fabs(r.err_dense - r.err_kron) / std::max(r.err_dense, 1e-300);
  std::printf("  workload error : dense %.9g vs kron %.9g  (rel diff %.2e)\n",
              r.err_dense, r.err_kron, r.err_rel_diff);
  return r;
}

struct ScaleResult {
  std::size_t n = 0;
  double t_design_s = 0;
  double t_release_s = 0;
  double gap = 0;
  double predicted_error = 0;
  std::size_t rank = 0;
};

ScaleResult RunScale(std::size_t side, std::size_t dims) {
  ScaleResult r;
  std::vector<std::size_t> sizes(dims, side);
  AllRangeWorkload w(Domain{std::vector<std::size_t>(sizes)});
  r.n = w.num_cells();
  const double dense_gram_gib =
      static_cast<double>(r.n) * r.n * 8.0 / (1024.0 * 1024.0 * 1024.0);
  std::printf("\n[2] 3D all-range %zu^%zu (n = %zu)\n", side, dims, r.n);
  std::printf("  dense path would need a %.0f GiB Gram + O(n^3) eigensolve"
              " -- not attempted\n", dense_gram_gib);

  // Strategy selection. A modest iteration budget keeps the demo in
  // seconds-to-minutes territory; the achieved duality gap is reported (a
  // gap g inflates the achievable error by at most sqrt(1 + g)).
  optimize::DesignOptions options;
  options.solver.max_iterations = 600;
  options.engine = optimize::EngineSelection::kKron;
  Stopwatch sw;
  auto design = optimize::Design(w, options);
  r.t_design_s = sw.Seconds();
  DPMM_CHECK_MSG(design.ok(), "kron eigen-design failed at scale");
  const auto& d = design.ValueOrDie();
  r.gap = d.duality_gap;
  r.rank = d.rank;
  const ErrorOptions eopts = bench::PaperErrorOptions();
  // Sensitivity is 1 by the solver's normalization, so the predicted
  // objective is the trace term directly.
  r.predicted_error =
      ErrorFromTrace(1.0, d.predicted_objective, w.num_queries(), eopts);
  std::printf("  strategy selection: %7.2f s  (rank %zu, gap %.2e,"
              " predicted per-query error %.4g)\n",
              r.t_design_s, r.rank, r.gap, r.predicted_error);

  // One full private release straight through the implicit mechanism.
  auto mech = Mechanism::Prepare(d.strategy, eopts.privacy);
  DPMM_CHECK_MSG(mech.ok(), "mechanism preparation failed at scale");
  linalg::Vector x(r.n);
  Rng rng(1234);
  for (auto& v : x) v = static_cast<double>(rng.UniformInt(100));
  sw.Restart();
  const linalg::Vector x_hat = mech.ValueOrDie().Release(x, &rng);
  r.t_release_s = sw.Seconds();
  DPMM_CHECK_EQ(x_hat.size(), r.n);
  std::printf("  private release   : %7.2f s  (least-squares estimate of"
              " all %zu cells)\n", r.t_release_s, r.n);
  return r;
}

void WriteJson(const std::string& path, const ComparisonResult& c,
               const ScaleResult* s) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("could not open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"kron_scaling\",\n");
  std::fprintf(f, "  \"comparison\": {\n");
  std::fprintf(f, "    \"n\": %zu,\n", c.n);
  std::fprintf(f, "    \"dense_seconds\": %.6f,\n", c.t_dense_s);
  std::fprintf(f, "    \"kron_seconds\": %.6f,\n", c.t_kron_s);
  std::fprintf(f, "    \"speedup\": %.3f,\n", c.t_dense_s / c.t_kron_s);
  std::fprintf(f, "    \"workload_error_dense\": %.12g,\n", c.err_dense);
  std::fprintf(f, "    \"workload_error_kron\": %.12g,\n", c.err_kron);
  std::fprintf(f, "    \"error_rel_diff\": %.6g,\n", c.err_rel_diff);
  std::fprintf(f, "    \"duality_gap_dense\": %.6g,\n", c.gap_dense);
  std::fprintf(f, "    \"duality_gap_kron\": %.6g\n", c.gap_kron);
  std::fprintf(f, "  },\n");  // "metrics" (and maybe "scale") follow
  if (s != nullptr) {
    std::fprintf(f, "  \"scale\": {\n");
    std::fprintf(f, "    \"n\": %zu,\n", s->n);
    std::fprintf(f, "    \"design_seconds\": %.6f,\n", s->t_design_s);
    std::fprintf(f, "    \"release_seconds\": %.6f,\n", s->t_release_s);
    std::fprintf(f, "    \"duality_gap\": %.6g,\n", s->gap);
    std::fprintf(f, "    \"rank\": %zu,\n", s->rank);
    std::fprintf(f, "    \"predicted_per_query_error\": %.12g\n",
                 s->predicted_error);
    std::fprintf(f, "  },\n");
  }
  bench::WriteMetricsJsonMember(f);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("Kronecker fast path: strategy selection speedup and scale",
                "Sec. 3.3 / 4 (eigen-design cost), beyond-paper domain sizes");
  const bool small = bench::SmallScale(argc, argv);
  bool skip_scale = false;
  std::string out = "BENCH_kron_scaling.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--skip-scale") skip_scale = true;
    if (arg.rfind("--out=", 0) == 0) out = arg.substr(6);
  }

  const ComparisonResult c = RunComparison(small ? 24 : 64);
  ScaleResult s;
  const bool ran_scale = !skip_scale;
  if (ran_scale) s = RunScale(small ? 32 : 64, 3);

  WriteJson(out, c, ran_scale ? &s : nullptr);
  return 0;
}
