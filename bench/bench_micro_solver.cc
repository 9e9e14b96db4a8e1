// Microbenchmarks for the Program-1 dual solver and the end-to-end
// eigen-design step (google-benchmark).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "dpmm/dpmm.h"

namespace dpmm {
namespace {

void BM_SolveWeightingRanges(benchmark::State& state) {
  const std::size_t n = state.range(0);
  AllRangeWorkload w(Domain::OneDim(n));
  auto eig = w.FactorizedEigen();
  std::vector<std::size_t> kept;
  optimize::WeightingProblem p = optimize::MakeEigenProblem(eig, 1e-10, &kept);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize::SolveWeighting(p).ValueOrDie());
  }
  state.SetLabel("iters<=" + std::to_string(optimize::SolverOptions().max_iterations));
}
BENCHMARK(BM_SolveWeightingRanges)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// One solve per method at a tight tolerance — the wall-clock cost of the
// accelerated solvers relative to the plain ascent (which stalls at a much
// looser gap; see bench_solver_convergence for the gap-vs-time curves).
void BM_SolveWeightingMethod(benchmark::State& state) {
  const auto method = static_cast<optimize::SolverMethod>(state.range(0));
  AllRangeWorkload w(Domain::OneDim(256));
  auto eig = w.FactorizedEigen();
  std::vector<std::size_t> kept;
  optimize::WeightingProblem p = optimize::MakeEigenProblem(eig, 1e-10, &kept);
  optimize::SolverOptions options;
  options.method = method;
  options.relative_gap_tol = 1e-9;
  double gap = 0;
  for (auto _ : state) {
    auto sol = optimize::SolveWeighting(p, options).ValueOrDie();
    gap = sol.relative_gap;
    benchmark::DoNotOptimize(sol);
  }
  char label[64];
  std::snprintf(label, sizeof(label), "%s gap=%.2e",
                optimize::SolverMethodName(method), gap);
  state.SetLabel(label);
}
BENCHMARK(BM_SolveWeightingMethod)
    ->Arg(static_cast<int>(optimize::SolverMethod::kAscent))
    ->Arg(static_cast<int>(optimize::SolverMethod::kFista))
    ->Arg(static_cast<int>(optimize::SolverMethod::kLbfgs))
    ->Unit(benchmark::kMillisecond);

void BM_EigenDesignMarginals(benchmark::State& state) {
  // Full Program 2 on a marginal workload (analytic eigen + weighting +
  // completion), the hot path of Fig. 3(c).
  Domain dom({16, 16, 8});
  MarginalsWorkload w = MarginalsWorkload::AllKWay(dom, 2);
  auto eig = w.AnalyticEigen();
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize::Design(eig).ValueOrDie());
  }
}
BENCHMARK(BM_EigenDesignMarginals)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dpmm

BENCHMARK_MAIN();
