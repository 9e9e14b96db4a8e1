// Private data-cube release over an Adult-like dataset (the scenario of
// Fig. 3c/d): all 2-way marginals of age x work x education x income.
// Demonstrates the analytic Kronecker-Helmert eigendecomposition for
// marginal workloads (Sec. 4.1): strategy selection needs no numeric
// eigensolver at all.
//
// Build & run:  ./marginal_cube
#include <cstdio>

#include "dpmm/dpmm.h"

using namespace dpmm;

int main() {
  DataVector adult = data::GenAdultLike();
  std::printf("Dataset: %s, %.0f weighted tuples\n",
              adult.domain.ToString().c_str(), adult.Total());

  MarginalsWorkload workload = MarginalsWorkload::AllKWay(adult.domain, 2);
  std::printf("Workload: all 2-way marginals (%zu queries over %zu cells)\n\n",
              workload.num_queries(), workload.num_cells());

  ErrorOptions opts;
  opts.privacy = {1.0, 1e-4};

  // Strategy selection through the closed-form eigendecomposition.
  Stopwatch sw;
  auto design = optimize::Design(workload.AnalyticEigen()).ValueOrDie();
  std::printf("Eigen-design (analytic eigendecomposition) in %.2fs\n",
              sw.Seconds());

  // Competitors from the paper's marginal experiments.
  Strategy fourier = FourierStrategy(adult.domain, workload.sets());
  DataCubeResult cube = DataCubeStrategy(adult.domain, workload.sets());
  std::printf("DataCube/BMAX chose %zu strategy marginals:", cube.chosen.size());
  for (const auto& s : cube.chosen) {
    std::printf(" {");
    for (std::size_t i = 0; i < s.size(); ++i) {
      std::printf("%s%s", i ? "," : "",
                  adult.domain.attribute_name(s[i]).c_str());
    }
    std::printf("}");
  }
  std::printf("\n\n");

  const linalg::Matrix gram = workload.Gram();
  const double bound =
      SvdErrorLowerBound(gram, workload.num_queries(), opts);
  TablePrinter table({"strategy", "workload error", "vs lower bound"});
  auto add = [&](const std::string& name, double err) {
    table.AddRow({name, TablePrinter::Num(err, 3),
                  TablePrinter::Num(err / bound, 3) + "x"});
  };
  add("EigenDesign",
      StrategyError(gram, workload.num_queries(),
                    design.strategy->Materialize(), opts));
  add("Fourier", StrategyError(gram, workload.num_queries(), fourier, opts));
  add("DataCube",
      StrategyError(gram, workload.num_queries(), cube.strategy, opts));
  add("Identity", StrategyError(gram, workload.num_queries(),
                                IdentityStrategy(workload.num_cells()), opts));
  add("LowerBound", bound);
  table.Print();

  // One actual private release: print the education x income marginal.
  auto mech = Mechanism::Prepare(design.strategy, opts.privacy).ValueOrDie();
  Rng rng(7);
  linalg::Vector x_hat = mech.Release(adult.counts, &rng);
  DataVector private_view(adult.domain, x_hat);
  std::printf("\nPrivate education marginal (true vs released):\n");
  linalg::Vector true_marg = adult.Marginal(2);
  linalg::Vector priv_marg = private_view.Marginal(2);
  for (std::size_t b = 0; b < true_marg.size(); ++b) {
    std::printf("  edu=%2zu: %8.0f  %8.1f\n", b, true_marg[b], priv_marg[b]);
  }
  return 0;
}
