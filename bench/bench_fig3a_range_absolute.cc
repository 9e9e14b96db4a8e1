// Fig. 3(a): absolute workload error for range workloads on 2048 cells,
// across domain shapes [2048], [64x32], [16x16x8], [8x8x8x4] and [2^11],
// comparing Hierarchical, Wavelet and Eigen-Design against the singular
// value lower bound. Left panel: all range queries; right panel: random
// range queries (1000 samples, two-step sampling).
//
// Expected shape (paper): Eigen-Design uniformly below both competitors by
// ~1.2-2.1x and within 1.3x of the lower bound.
#include <memory>
#include <vector>

#include "bench_common.h"

using namespace dpmm;

namespace {

std::vector<std::vector<std::size_t>> DomainsForScale(bool small) {
  if (small) {
    return {{256}, {16, 16}, {8, 8, 4}, {4, 4, 4, 4},
            std::vector<std::size_t>(8, 2)};
  }
  return {{2048}, {64, 32}, {16, 16, 8}, {8, 8, 8, 4},
          std::vector<std::size_t>(11, 2)};
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = bench::SmallScale(argc, argv);
  bench::Banner("Fig. 3(a): absolute error on range workloads",
                "Fig. 3(a), eps=0.5, delta=1e-4, per-query RMSE");
  ErrorOptions opts = bench::PaperErrorOptions();

  // ---- All range queries ----
  std::printf("\n[All Range]\n");
  TablePrinter all_table({"domain", "Hierarchical", "Wavelet", "EigenDesign",
                          "LowerBound", "best-competitor/eigen", "eigen/bound"});
  for (const auto& sizes : DomainsForScale(small)) {
    Domain dom(sizes);
    AllRangeWorkload w(dom);
    Stopwatch sw;
    auto eig = w.FactorizedEigen();
    const Strategy design = bench::DesignStrategy(eig);
    const linalg::Matrix gram = w.Gram();
    const std::size_t m = w.num_queries();
    const double e_h = StrategyError(gram, m, HierarchicalStrategy(dom), opts);
    const double e_w = StrategyError(gram, m, WaveletStrategy(dom), opts);
    const double e_e = StrategyError(gram, m, design, opts);
    const double bound = SvdErrorLowerBound(eig.values, m, opts);
    all_table.AddRow({dom.ToString(), TablePrinter::Num(e_h, 2),
                      TablePrinter::Num(e_w, 2), TablePrinter::Num(e_e, 2),
                      TablePrinter::Num(bound, 2),
                      TablePrinter::Num(std::min(e_h, e_w) / e_e, 2) + "x",
                      TablePrinter::Num(e_e / bound, 3) + "x"});
    std::fprintf(stderr, "  %s done in %.1fs\n", dom.ToString().c_str(),
                 sw.Seconds());
  }
  all_table.Print();

  // ---- Random range queries ----
  std::printf("\n[Random Range] (1000 queries, two-step sampling)\n");
  TablePrinter rnd_table({"domain", "Hierarchical", "Wavelet", "EigenDesign",
                          "LowerBound", "best-competitor/eigen", "eigen/bound"});
  Rng rng(2012);
  for (const auto& sizes : DomainsForScale(small)) {
    Domain dom(sizes);
    auto w = builders::RandomRangeWorkload(dom, small ? 300 : 1000, &rng);
    Stopwatch sw;
    const linalg::Matrix gram = w.Gram();
    auto eig = linalg::SymmetricEigen(gram).ValueOrDie();
    const Strategy design = bench::DesignStrategy(eig);
    const std::size_t m = w.num_queries();
    const double e_h = StrategyError(gram, m, HierarchicalStrategy(dom), opts);
    const double e_w = StrategyError(gram, m, WaveletStrategy(dom), opts);
    const double e_e = StrategyError(gram, m, design, opts);
    const double bound = SvdErrorLowerBound(eig.values, m, opts);
    rnd_table.AddRow({dom.ToString(), TablePrinter::Num(e_h, 2),
                      TablePrinter::Num(e_w, 2), TablePrinter::Num(e_e, 2),
                      TablePrinter::Num(bound, 2),
                      TablePrinter::Num(std::min(e_h, e_w) / e_e, 2) + "x",
                      TablePrinter::Num(e_e / bound, 3) + "x"});
    std::fprintf(stderr, "  %s done in %.1fs\n", dom.ToString().c_str(),
                 sw.Seconds());
  }
  rnd_table.Print();
  return 0;
}
