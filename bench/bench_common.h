// Shared helpers for the experiment harness. Every bench binary regenerates
// one table or figure of the paper's evaluation (Sec. 5); see DESIGN.md for
// the experiment index.
//
// Scaling: benches default to the paper's sizes (2048 cells; Fig. 4 at
// 2048). Set DPMM_SCALE=small (or pass --small) for a fast smoke run with
// reduced domains, or pass --full where a bench documents a larger paper
// size.
#ifndef DPMM_BENCH_BENCH_COMMON_H_
#define DPMM_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dpmm/dpmm.h"

namespace dpmm {
namespace bench {

inline bool SmallScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) return true;
  }
  const char* env = std::getenv("DPMM_SCALE");
  return env != nullptr && std::string(env) == "small";
}

inline bool FullScale(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return true;
  }
  return false;
}

/// The paper's fixed privacy setting for workload-error experiments
/// (Sec. 5: eps = 0.5, delta = 1e-4; all methods scale identically in P).
inline ErrorOptions PaperErrorOptions() {
  ErrorOptions opts;
  opts.privacy = {0.5, 1e-4};
  opts.convention = ErrorConvention::kPerQuery;
  return opts;
}

/// Program 2 from a dense eigendecomposition, as the explicit strategy the
/// dense error formulas (StrategyError) take.
inline Strategy DesignStrategy(const linalg::SymmetricEigenResult& eigen,
                               const optimize::DesignOptions& options = {}) {
  return optimize::Design(eigen, options).ValueOrDie().strategy->Materialize();
}

inline void Banner(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

/// Writes the process metrics snapshot as a `"metrics": {...}` member —
/// every BENCH_*.json embeds it as its last member, so a perf regression
/// hunt can see what the run actually did (cache hits, fsyncs, solver
/// iterations) next to the seconds it took. The caller has already written
/// the preceding member's trailing comma; the closing brace of the bench
/// object follows on the caller's side.
inline void WriteMetricsJsonMember(std::FILE* f) {
  const std::string json = MetricsRegistry::Global().Snapshot().ToJson();
  // ToJson ends with "}\n"; drop the newline so the caller's "}\n" lands
  // directly after the nested object.
  std::fprintf(f, "  \"metrics\": %.*s\n",
               static_cast<int>(json.size() - 1), json.c_str());
}

}  // namespace bench
}  // namespace dpmm

#endif  // DPMM_BENCH_BENCH_COMMON_H_
