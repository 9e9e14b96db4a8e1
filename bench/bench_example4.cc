// Example 4 / Fig. 2 of the paper: strategy comparison on the Fig. 1(b)
// workload, printing the published numbers next to ours.
#include "bench_common.h"

using namespace dpmm;

int main(int, char**) {
  bench::Banner("Example 4: strategies for the Fig. 1 workload",
                "Example 4 and Fig. 2 (eps=0.5, delta=1e-4)");

  auto workload = ExplicitWorkload::FromMatrix(builders::Fig1Matrix(), "Fig1");
  ErrorOptions legacy;
  legacy.privacy = {0.5, 1e-4};
  legacy.convention = ErrorConvention::kLegacyExample4;

  auto design = optimize::Design(workload).ValueOrDie();

  TablePrinter table({"strategy", "RMSE (ours)", "RMSE (paper)"});
  table.AddRow({"workload-as-strategy",
                TablePrinter::Num(GaussianBaselineError(workload, legacy), 2),
                "47.78"});
  table.AddRow({"identity",
                TablePrinter::Num(
                    StrategyError(workload, IdentityStrategy(8), legacy), 2),
                "45.36"});
  table.AddRow(
      {"wavelet",
       TablePrinter::Num(
           StrategyError(workload, WaveletStrategy(Domain::OneDim(8)), legacy),
           2),
       "34.62"});
  table.AddRow({"eigen-design (adaptive)",
                TablePrinter::Num(
                    StrategyError(workload, design.strategy->Materialize(),
                                  legacy),
                    2),
                "29.79"});
  table.AddRow({"lower bound (Thm. 2)",
                TablePrinter::Num(SvdErrorLowerBound(workload.Gram(), 8, legacy), 2),
                "29.18"});
  table.Print();

  std::printf("\nEigen-design internals: rank=%zu, duality gap=%.2e, "
              "solver iterations=%d\n",
              design.rank, design.duality_gap, design.solver_iterations);
  return 0;
}
