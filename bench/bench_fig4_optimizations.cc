// Fig. 4: quality/time trade-off of the two Sec. 4 performance
// optimizations. Panel (a): all 1D range queries; panel (b): all marginals
// up to 2-way on a 2D domain. For eigen-query separation we sweep the group
// size (4..1024); for the principal-vectors method we sweep the number of
// individually weighted eigenvectors (25%..2%). Each row reports the
// workload error and the strategy-selection time, with the lower bound and
// the best competing strategy as reference lines.
//
// Default n = 2048 cells (pass --full for the paper's 8192; the eigendecom-
// position of the 1D range Gram is the dominant cost there).
//
// Expected shape (paper): both optimizations cut selection time by orders
// of magnitude with <= ~12% error above the full design; separation is
// better on ranges, principal-vectors on marginals.
#include "bench_common.h"

using namespace dpmm;

namespace {

void Sweep(const char* title, const linalg::SymmetricEigenResult& eig,
           const linalg::Matrix& gram, std::size_t m, double competitor_err,
           const char* competitor_name) {
  ErrorOptions opts = bench::PaperErrorOptions();
  const double bound = SvdErrorLowerBound(eig.values, m, opts);
  const std::size_t n = eig.values.size();

  std::printf("\n[%s]  (n = %zu)\n", title, n);
  std::printf("reference: lower bound = %.3f, %s = %.3f\n", bound,
              competitor_name, competitor_err);

  // Full eigen design as the quality baseline.
  Stopwatch sw;
  const Strategy full = bench::DesignStrategy(eig);
  const double full_time = sw.Seconds();
  const double full_err = StrategyError(gram, m, full, opts);
  std::printf("full eigen design: error %.3f, selection time %.2fs\n\n",
              full_err, full_time);

  TablePrinter sep_table({"group size", "error", "vs full", "time (s)"});
  for (std::size_t g : {4u, 16u, 64u, 256u, 1024u}) {
    if (g > n) continue;
    sw.Restart();
    auto sep = optimize::EigenSeparationDesign(eig, g).ValueOrDie();
    const double t = sw.Seconds();
    const double err = StrategyError(gram, m, sep.strategy, opts);
    sep_table.AddRow({std::to_string(g), TablePrinter::Num(err, 3),
                      TablePrinter::Num(err / full_err, 3) + "x",
                      TablePrinter::Num(t, 2)});
  }
  std::printf("Eigen-query separation:\n");
  sep_table.Print();

  TablePrinter pv_table({"principal vectors", "error", "vs full", "time (s)"});
  for (double frac : {0.25, 0.13, 0.06, 0.03, 0.02}) {
    const auto k = static_cast<std::size_t>(frac * static_cast<double>(n));
    if (k == 0) continue;
    sw.Restart();
    auto pv = optimize::PrincipalVectorsDesign(eig, k).ValueOrDie();
    const double t = sw.Seconds();
    const double err = StrategyError(gram, m, pv.strategy, opts);
    pv_table.AddRow({std::to_string(k) + " (" +
                         TablePrinter::Num(100 * frac, 0) + "%)",
                     TablePrinter::Num(err, 3),
                     TablePrinter::Num(err / full_err, 3) + "x",
                     TablePrinter::Num(t, 2)});
  }
  std::printf("\nPrincipal-vectors optimization:\n");
  pv_table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = bench::SmallScale(argc, argv);
  const bool full = bench::FullScale(argc, argv);
  const std::size_t n = small ? 512 : (full ? 8192 : 2048);
  bench::Banner("Fig. 4: performance optimizations",
                "Fig. 4 (paper uses 8192 cells; pass --full to match)");
  ErrorOptions opts = bench::PaperErrorOptions();

  // Panel (a): all 1D ranges on [n].
  {
    Domain dom({n});
    AllRangeWorkload w(dom);
    Stopwatch sw;
    auto eig = w.FactorizedEigen();
    std::fprintf(stderr, "eigendecomposition [%zu]: %.1fs\n", n, sw.Seconds());
    const linalg::Matrix gram = w.Gram();
    const double wav =
        StrategyError(gram, w.num_queries(), WaveletStrategy(dom), opts);
    Sweep("All 1D ranges", eig, gram, w.num_queries(), wav, "Wavelet");
  }

  // Panel (b): all <=2-way marginals on a 2-attribute domain with n cells.
  {
    const std::size_t d1 = small ? 32 : (full ? 128 : 64);
    const std::size_t d2 = n / d1;
    Domain dom({d1, d2});
    MarginalsWorkload w(dom, AllSubsets(2), MarginalsWorkload::Flavor::kMarginal);
    auto eig = w.AnalyticEigen();
    const linalg::Matrix gram = w.Gram();
    const double cube = StrategyError(
        gram, w.num_queries(),
        DataCubeStrategy(dom, w.sets()).strategy, opts);
    Sweep("All marginals up to 2-way", eig, gram, w.num_queries(), cube,
          "DataCube");
  }
  return 0;
}
