// Fig. 3(c): absolute workload error for marginal workloads on 2048 cells
// ([16x16x8], [8x8x8x4], [2^11]), comparing Fourier, DataCube and
// Eigen-Design against the lower bound. Left: all 2-way marginals; right:
// random marginal sets (sampled as in Ding et al.).
//
// Expected shape (paper): Eigen-Design below both competitors by ~1.3-2.2x
// and matching the lower bound (optimal) on marginal workloads.
#include "bench_common.h"

using namespace dpmm;

namespace {

std::vector<std::vector<std::size_t>> DomainsForScale(bool small) {
  if (small) return {{8, 8, 4}, {4, 4, 4, 4}, std::vector<std::size_t>(8, 2)};
  return {{16, 16, 8}, {8, 8, 8, 4}, std::vector<std::size_t>(11, 2)};
}

void RunPanel(const char* title, bool random_sets, bool small) {
  std::printf("\n[%s]\n", title);
  TablePrinter table({"domain", "Fourier", "DataCube", "EigenDesign",
                      "LowerBound", "best-competitor/eigen", "eigen/bound"});
  ErrorOptions opts = bench::PaperErrorOptions();
  Rng rng(7);
  for (const auto& sizes : DomainsForScale(small)) {
    Domain dom(sizes);
    std::vector<AttrSet> sets;
    if (random_sets) {
      sets = builders::RandomMarginalSets(dom.num_attributes(),
                                          std::min<std::size_t>(8, (1u << dom.num_attributes()) - 1),
                                          &rng);
    } else {
      sets = AllSubsetsOfSize(dom.num_attributes(), 2);
    }
    MarginalsWorkload w(dom, sets, MarginalsWorkload::Flavor::kMarginal);
    auto eig = w.AnalyticEigen();  // closed form: Sec. 4.1 fast path
    const Strategy design = bench::DesignStrategy(eig);
    const linalg::Matrix gram = w.Gram();
    const std::size_t m = w.num_queries();
    const double e_f =
        StrategyError(gram, m, FourierStrategy(dom, sets), opts);
    const double e_d =
        StrategyError(gram, m, DataCubeStrategy(dom, sets).strategy, opts);
    const double e_e = StrategyError(gram, m, design, opts);
    const double bound = SvdErrorLowerBound(eig.values, m, opts);
    table.AddRow({dom.ToString(), TablePrinter::Num(e_f, 2),
                  TablePrinter::Num(e_d, 2), TablePrinter::Num(e_e, 2),
                  TablePrinter::Num(bound, 2),
                  TablePrinter::Num(std::min(e_f, e_d) / e_e, 2) + "x",
                  TablePrinter::Num(e_e / bound, 3) + "x"});
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = bench::SmallScale(argc, argv);
  bench::Banner("Fig. 3(c): absolute error on marginal workloads",
                "Fig. 3(c), eps=0.5, delta=1e-4, per-query RMSE");
  RunPanel("2-Way Marginal", /*random_sets=*/false, small);
  RunPanel("Random Marginal (8 sampled sets)", /*random_sets=*/true, small);
  return 0;
}
