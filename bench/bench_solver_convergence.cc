// Solver-convergence bench: gap-vs-iteration and gap-vs-wall-clock curves
// for the Program-1 dual solvers (plain ascent vs FISTA vs the staged
// L-BFGS pipeline) on the instances that exposed the large-n duality-gap
// ceiling: 1D all-range, 2-way marginals, and 3D all-range up to 64^3.
//
// The headline claim this bench certifies: on instances where the plain
// ascent's stall detector gives up at relative gaps >= 1e-5, the L-BFGS
// pipeline drives the certified gap to <= 1e-9 within the same wall-clock
// budget. Emits BENCH_solver_convergence.json (path via --out=FILE).
// --small shrinks the 3D section to 16^3; --skip-scale omits it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace dpmm;

namespace {

struct MethodCurve {
  optimize::SolverMethod method;
  double final_gap = 0;
  int iterations = 0;
  double seconds = 0;
  double seconds_to_1e9 = -1;  // first wall-clock instant with gap <= 1e-9
  int restarts = 0;
  int phase_switch_iteration = -1;
  std::vector<optimize::SolverGapSample> trajectory;  // downsampled
};

struct InstanceResult {
  std::string name;
  std::size_t num_vars = 0;
  std::vector<MethodCurve> curves;
};

std::vector<optimize::SolverGapSample> Downsample(
    const std::vector<optimize::SolverGapSample>& t, std::size_t keep) {
  if (t.size() <= keep) return t;
  std::vector<optimize::SolverGapSample> out;
  out.reserve(keep + 1);
  const double stride = static_cast<double>(t.size() - 1) /
                        static_cast<double>(keep - 1);
  for (std::size_t k = 0; k < keep; ++k) {
    out.push_back(t[static_cast<std::size_t>(k * stride)]);
  }
  out.back() = t.back();
  return out;
}

InstanceResult RunInstance(const std::string& name, const Workload& w,
                           int max_iterations) {
  InstanceResult result;
  result.name = name;
  const auto keig = *w.ImplicitEigen();
  result.num_vars = keig.values.size();
  std::printf("\n[%s] design over %zu cells\n", name.c_str(), w.num_cells());

  // The design-level entry point is what the pipeline actually runs: it
  // includes the accelerated methods' separable per-axis warm start on
  // product spectra, which is where the large-n wins come from.
  for (auto method :
       {optimize::SolverMethod::kAscent, optimize::SolverMethod::kFista,
        optimize::SolverMethod::kLbfgs}) {
    optimize::DesignOptions opt;
    opt.solver.method = method;
    opt.solver.relative_gap_tol = 1e-10;
    opt.solver.max_iterations = max_iterations;
    opt.solver.record_trajectory = true;
    opt.complete_columns = false;  // isolate the solve
    Stopwatch sw;
    auto designed = optimize::Design(keig, opt);
    const double total_seconds = sw.Seconds();
    DPMM_CHECK_MSG(designed.ok(), "design failed in convergence bench");
    const auto& d = designed.ValueOrDie();

    MethodCurve curve;
    curve.method = method;
    curve.final_gap = d.duality_gap;
    curve.iterations = d.solver_iterations;
    curve.seconds = total_seconds;
    curve.restarts = d.solver_report.restarts;
    curve.phase_switch_iteration = d.solver_report.phase_switch_iteration;
    // Trajectory timestamps cover the joint solve only; shift them by the
    // rest of the design time (per-axis warm-start solves, assembly) so
    // the gap-vs-seconds curve is honest end-to-end wall clock.
    const double offset =
        std::max(0.0, total_seconds - d.solver_report.seconds);
    // First 1e-9 crossing from the *full* trajectory — downsampling for
    // the JSON must not push the reported crossing later.
    for (const auto& s : d.solver_report.trajectory) {
      if (s.gap <= 1e-9) {
        curve.seconds_to_1e9 = s.seconds + offset;
        break;
      }
    }
    curve.trajectory = Downsample(d.solver_report.trajectory, 200);
    for (auto& s : curve.trajectory) s.seconds += offset;
    std::printf("  %-7s gap %.3e in %5d iters, %7.2fs%s\n",
                optimize::SolverMethodName(method), curve.final_gap,
                curve.iterations, curve.seconds,
                curve.seconds_to_1e9 >= 0
                    ? ("  (<=1e-9 at " + std::to_string(curve.seconds_to_1e9) +
                       "s)")
                          .c_str()
                    : "");
    result.curves.push_back(std::move(curve));
  }
  return result;
}

void WriteJson(const std::string& path,
               const std::vector<InstanceResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("could not open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"solver_convergence\",\n");
  std::fprintf(f, "  \"gap_tol\": 1e-10,\n  \"instances\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const InstanceResult& r = results[i];
    std::fprintf(f, "    {\n      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"num_vars\": %zu,\n      \"methods\": [\n",
                 r.num_vars);
    for (std::size_t m = 0; m < r.curves.size(); ++m) {
      const MethodCurve& c = r.curves[m];
      std::fprintf(f, "        {\n          \"method\": \"%s\",\n",
                   optimize::SolverMethodName(c.method));
      std::fprintf(f, "          \"final_gap\": %.6g,\n", c.final_gap);
      std::fprintf(f, "          \"iterations\": %d,\n", c.iterations);
      std::fprintf(f, "          \"seconds\": %.6f,\n", c.seconds);
      std::fprintf(f, "          \"seconds_to_gap_1e9\": %.6f,\n",
                   c.seconds_to_1e9);
      std::fprintf(f, "          \"restarts\": %d,\n", c.restarts);
      std::fprintf(f, "          \"phase_switch_iteration\": %d,\n",
                   c.phase_switch_iteration);
      std::fprintf(f, "          \"gap_vs_iteration\": [");
      for (std::size_t k = 0; k < c.trajectory.size(); ++k) {
        std::fprintf(f, "%s[%d,%.6g]", k == 0 ? "" : ",",
                     c.trajectory[k].iteration, c.trajectory[k].gap);
      }
      std::fprintf(f, "],\n          \"gap_vs_seconds\": [");
      for (std::size_t k = 0; k < c.trajectory.size(); ++k) {
        std::fprintf(f, "%s[%.4f,%.6g]", k == 0 ? "" : ",",
                     c.trajectory[k].seconds, c.trajectory[k].gap);
      }
      std::fprintf(f, "]\n        }%s\n",
                   m + 1 < r.curves.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  bench::WriteMetricsJsonMember(f);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner(
      "Program-1 dual solver convergence: ascent vs FISTA vs staged L-BFGS",
      "Sec. 3.1 weighting solve; large-n duality-gap ceiling fix");
  const bool small = bench::SmallScale(argc, argv);
  bool skip_scale = false;
  std::string out = "BENCH_solver_convergence.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--skip-scale") skip_scale = true;
    if (arg.rfind("--out=", 0) == 0) out = arg.substr(6);
  }

  std::vector<InstanceResult> results;
  {
    AllRangeWorkload w(Domain::OneDim(small ? 256 : 1024));
    results.push_back(RunInstance("1d_allrange", w, 3000));
  }
  {
    MarginalsWorkload w =
        MarginalsWorkload::AllKWay(Domain({16, 16, 8}), 2);
    results.push_back(RunInstance("marginals_2way_16x16x8", w, 3000));
  }
  if (!skip_scale) {
    const std::size_t side = small ? 16 : 64;
    AllRangeWorkload w(Domain({side, side, side}));
    results.push_back(RunInstance(
        "3d_allrange_" + std::to_string(side) + "^3", w, small ? 3000 : 1500));
  }

  WriteJson(out, results);
  return 0;
}
