// Batched multi-release throughput bench. One workload, one designed
// strategy, B private releases — the serving-shaped hot loop. Times B
// sequential Mechanism::Release calls against one Mechanism::ReleaseBatch over
// the same strategy, and verifies the batched path's contract: with the
// same seed, every release is byte-identical to its sequential counterpart
// (same noise draws, same block-solve iterates) — the speedup comes purely
// from sharing work (the noiseless strategy answers, the eigenbasis passes
// of the block PCG, batch-contiguous spans instead of stride-1 inner
// loops), never from changing the computation.
//
// Default: 3D all-range on 64^3 (n = 2^18, the scale bench_kron_scaling
// runs its release at) with a batch of 32. --small shrinks to 16^3 with a
// batch of 8 for smoke runs. Emits BENCH_release_throughput.json (path via
// --out=FILE).
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.h"

using namespace dpmm;

namespace {

struct ThroughputResult {
  std::size_t n = 0;
  std::size_t batch = 0;
  std::size_t completion_rows = 0;
  double design_seconds = 0;
  double sequential_seconds = 0;
  double batch_seconds = 0;
  bool byte_identical = false;
  bool rng_state_matches = false;
};

ThroughputResult Run(std::size_t side, std::size_t dims, std::size_t batch) {
  constexpr std::uint64_t kSeed = 20260728;
  ThroughputResult res;
  res.batch = batch;
  AllRangeWorkload w(Domain{std::vector<std::size_t>(dims, side)});
  res.n = w.num_cells();
  std::printf("\n[1] strategy selection: %zuD all-range %zu^%zu (n = %zu)\n",
              dims, side, dims, res.n);

  optimize::DesignOptions options;
  options.solver.max_iterations = 600;
  options.engine = optimize::EngineSelection::kKron;
  Stopwatch sw;
  auto design = optimize::Design(w, options);
  res.design_seconds = sw.Seconds();
  DPMM_CHECK_MSG(design.ok(), "kron eigen-design failed");
  const auto& d = design.ValueOrDie();
  res.completion_rows = d.strategy->num_queries() - d.rank;
  std::printf("  designed in %.2f s (rank %zu, %zu completion rows, gap %.1e)\n",
              res.design_seconds, d.rank, res.completion_rows, d.duality_gap);

  const ErrorOptions eopts = bench::PaperErrorOptions();
  auto mech = Mechanism::Prepare(d.strategy, eopts.privacy);
  DPMM_CHECK_MSG(mech.ok(), "mechanism preparation failed");
  const Mechanism& m = mech.ValueOrDie();

  linalg::Vector x(res.n);
  {
    Rng data_rng(99);
    for (auto& v : x) v = static_cast<double>(data_rng.UniformInt(100));
  }

  std::printf("\n[2] %zu sequential releases\n", batch);
  Rng seq_rng(kSeed);
  std::vector<linalg::Vector> sequential(batch);
  sw.Restart();
  for (std::size_t b = 0; b < batch; ++b) {
    sequential[b] = m.Release(x, &seq_rng);
  }
  res.sequential_seconds = sw.Seconds();
  std::printf("  %.2f s total, %.3f s per release\n", res.sequential_seconds,
              res.sequential_seconds / static_cast<double>(batch));

  std::printf("\n[3] one batched release of %zu\n", batch);
  Rng batch_rng(kSeed);
  sw.Restart();
  const std::vector<linalg::Vector> batched =
      m.ReleaseBatch(x, batch, &batch_rng);
  res.batch_seconds = sw.Seconds();
  std::printf("  %.2f s total, %.3f s per release\n", res.batch_seconds,
              res.batch_seconds / static_cast<double>(batch));
  std::printf("  speedup: %.2f x\n", res.sequential_seconds / res.batch_seconds);

  res.byte_identical = true;
  for (std::size_t b = 0; b < batch; ++b) {
    DPMM_CHECK_EQ(batched[b].size(), sequential[b].size());
    if (std::memcmp(batched[b].data(), sequential[b].data(),
                    sequential[b].size() * sizeof(double)) != 0) {
      res.byte_identical = false;
      std::printf("  release %zu differs from its sequential counterpart!\n",
                  b);
    }
  }
  res.rng_state_matches = seq_rng.NextU64() == batch_rng.NextU64();
  std::printf("  outputs byte-identical: %s, rng state matches: %s\n",
              res.byte_identical ? "yes" : "NO",
              res.rng_state_matches ? "yes" : "NO");
  return res;
}

void WriteJson(const std::string& path, const ThroughputResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("could not open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"release_throughput\",\n");
  std::fprintf(f, "  \"n\": %zu,\n", r.n);
  std::fprintf(f, "  \"batch\": %zu,\n", r.batch);
  std::fprintf(f, "  \"completion_rows\": %zu,\n", r.completion_rows);
  std::fprintf(f, "  \"design_seconds\": %.6f,\n", r.design_seconds);
  std::fprintf(f, "  \"sequential_seconds\": %.6f,\n", r.sequential_seconds);
  std::fprintf(f, "  \"batch_seconds\": %.6f,\n", r.batch_seconds);
  std::fprintf(f, "  \"speedup\": %.3f,\n",
               r.sequential_seconds / r.batch_seconds);
  std::fprintf(f, "  \"byte_identical\": %s,\n",
               r.byte_identical ? "true" : "false");
  std::fprintf(f, "  \"rng_state_matches\": %s,\n",
               r.rng_state_matches ? "true" : "false");
  bench::WriteMetricsJsonMember(f);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("Batched release throughput: block solve vs sequential",
                "beyond-paper serving scale (ROADMAP batching lever)");
  const bool small = bench::SmallScale(argc, argv);
  std::string out = "BENCH_release_throughput.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out = arg.substr(6);
  }
  const ThroughputResult r =
      small ? Run(16, 3, 8) : Run(64, 3, 32);
  WriteJson(out, r);
  return r.byte_identical && r.rng_state_matches ? 0 : 1;
}
