// Fig. 5: the choice of design queries. Program 1 is run with three design
// sets — the Wavelet basis, the Fourier basis and the eigen-queries — on all
// 1D ranges on [2048] and all 2-way marginals on [64x32], each in the
// canonical and a permuted cell order.
//
// Expected shape (paper): on canonical orders the alternative bases are
// competitive (Fourier matches on marginals, Wavelet ~20% worse on ranges),
// but after a permutation they lose badly (>4x) while the eigen-queries are
// unaffected (Prop. 5).
#include <cmath>
#include <memory>

#include "bench_common.h"

using namespace dpmm;

namespace {

// Strategy = diag(lambda) * basis with Program-1 weights for this workload.
double WeightedBasisError(const linalg::Matrix& gram, std::size_t m,
                          const linalg::Matrix& basis,
                          const ErrorOptions& opts) {
  optimize::WeightingProblem p = optimize::MakeL2Problem(gram, basis);
  auto sol = optimize::SolveWeighting(p).ValueOrDie();
  const std::size_t r = basis.rows();
  linalg::Matrix a(r, basis.cols());
  for (std::size_t i = 0; i < r; ++i) {
    const double lam = std::sqrt(std::max(0.0, sol.x[i]));
    for (std::size_t j = 0; j < basis.cols(); ++j) {
      a(i, j) = lam * basis(i, j);
    }
  }
  return StrategyError(gram, m, Strategy(std::move(a), "weighted"), opts);
}

linalg::Matrix PermuteGram(const linalg::Matrix& g,
                           const std::vector<std::size_t>& perm) {
  linalg::Matrix out(g.rows(), g.cols());
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) {
      out(i, j) = g(perm[i], perm[j]);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = bench::SmallScale(argc, argv);
  bench::Banner("Fig. 5: comparison of design query sets",
                "Fig. 5, eps=0.5, delta=1e-4");
  ErrorOptions opts = bench::PaperErrorOptions();
  Rng rng(3);

  TablePrinter table({"workload", "Wavelet basis", "Fourier basis",
                      "Eigen queries", "LowerBound"});

  // --- 1D ranges, canonical and permuted ---------------------------------
  {
    const std::size_t n = small ? 256 : 2048;
    Domain dom({n});
    AllRangeWorkload w(dom);
    const linalg::Matrix gram = w.Gram();
    const std::size_t m = w.num_queries();
    const linalg::Matrix haar = HaarMatrix1D(n);
    const linalg::Matrix fourier = FullFourierBasis(dom);
    auto eig = w.FactorizedEigen();
    const auto perm = rng.Permutation(n);
    const linalg::Matrix pgram = PermuteGram(gram, perm);

    const Strategy design = bench::DesignStrategy(eig);
    table.AddRow({"1D Range [" + std::to_string(n) + "]",
                  TablePrinter::Num(WeightedBasisError(gram, m, haar, opts), 2),
                  TablePrinter::Num(WeightedBasisError(gram, m, fourier, opts), 2),
                  TablePrinter::Num(StrategyError(gram, m, design, opts), 2),
                  TablePrinter::Num(SvdErrorLowerBound(eig.values, m, opts), 2)});

    // Permuted: eigen-queries permute with the workload (Prop. 5); the
    // fixed bases do not.
    linalg::Matrix pvecs(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) pvecs(i, j) = eig.vectors(perm[i], j);
    }
    linalg::SymmetricEigenResult peig{eig.values, std::move(pvecs)};
    const Strategy pdesign = bench::DesignStrategy(peig);
    table.AddRow(
        {"1D Range (permuted)",
         TablePrinter::Num(WeightedBasisError(pgram, m, haar, opts), 2),
         TablePrinter::Num(WeightedBasisError(pgram, m, fourier, opts), 2),
         TablePrinter::Num(StrategyError(pgram, m, pdesign, opts), 2),
         TablePrinter::Num(SvdErrorLowerBound(eig.values, m, opts), 2)});
  }

  // --- 2-way marginals on [64x32], canonical and permuted ----------------
  {
    Domain dom(small ? std::vector<std::size_t>{16, 8}
                     : std::vector<std::size_t>{64, 32});
    MarginalsWorkload w(dom, {AttrSet{0, 1}},
                        MarginalsWorkload::Flavor::kMarginal);
    const std::size_t n = dom.NumCells();
    const linalg::Matrix gram = w.Gram();
    const std::size_t m = w.num_queries();
    const linalg::Matrix haar =
        linalg::Kron(HaarMatrix1D(dom.size(0)), HaarMatrix1D(dom.size(1)));
    const linalg::Matrix fourier = FullFourierBasis(dom);
    auto eig = w.AnalyticEigen();
    const Strategy design = bench::DesignStrategy(eig);
    const auto perm = rng.Permutation(n);
    const linalg::Matrix pgram = PermuteGram(gram, perm);

    table.AddRow({"2D Marginal " + dom.ToString(),
                  TablePrinter::Num(WeightedBasisError(gram, m, haar, opts), 2),
                  TablePrinter::Num(WeightedBasisError(gram, m, fourier, opts), 2),
                  TablePrinter::Num(StrategyError(gram, m, design, opts), 2),
                  TablePrinter::Num(SvdErrorLowerBound(eig.values, m, opts), 2)});

    linalg::Matrix pvecs(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) pvecs(i, j) = eig.vectors(perm[i], j);
    }
    linalg::SymmetricEigenResult peig{eig.values, std::move(pvecs)};
    const Strategy pdesign = bench::DesignStrategy(peig);
    table.AddRow(
        {"2D Marginal (permuted)",
         TablePrinter::Num(WeightedBasisError(pgram, m, haar, opts), 2),
         TablePrinter::Num(WeightedBasisError(pgram, m, fourier, opts), 2),
         TablePrinter::Num(StrategyError(pgram, m, pdesign, opts), 2),
         TablePrinter::Num(SvdErrorLowerBound(eig.values, m, opts), 2)});
  }

  table.Print();
  return 0;
}
