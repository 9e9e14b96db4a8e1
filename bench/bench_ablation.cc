// Ablation of the Eigen-Design pipeline's three ingredients (not a paper
// figure; quantifies the design choices DESIGN.md calls out):
//   1. eigen-query basis alone, equal weights        (no optimization)
//   2. + sqrt-eigenvalue weights (the Thm. 2 A_l strategy = the solver's
//        starting point)
//   3. + optimal weighting (Program 1)
//   4. + column completion (Steps 4-5 of Program 2)   = full algorithm
// across range, marginal, CDF and random-predicate workloads.
#include <memory>

#include "bench_common.h"

using namespace dpmm;

namespace {

Strategy EqualWeightStrategy(const linalg::SymmetricEigenResult& eig,
                             double tol) {
  double max_ev = 0;
  for (double v : eig.values) max_ev = std::max(max_ev, v);
  std::vector<std::size_t> kept;
  linalg::Vector weights;
  for (std::size_t i = 0; i < eig.values.size(); ++i) {
    if (eig.values[i] > tol * max_ev) {
      kept.push_back(i);
      weights.push_back(1.0);
    }
  }
  Strategy raw = optimize::AssembleWeightedStrategy(
      eig.vectors, kept, weights, /*complete_columns=*/false, "EqualWeights");
  linalg::Matrix a = raw.matrix();
  a.Scale(1.0 / a.MaxColNorm());
  return Strategy(std::move(a), "EqualWeights");
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = bench::SmallScale(argc, argv);
  const std::size_t n = small ? 128 : 512;
  bench::Banner("Ablation: contributions of the Eigen-Design steps",
                "design-choice ablation (not a paper figure)");
  ErrorOptions opts = bench::PaperErrorOptions();

  TablePrinter table({"workload", "equal wts", "sqrt-eig (A_l)",
                      "optimal wts", "+completion", "lower bound"});

  struct Case {
    std::string name;
    linalg::Matrix gram;
    std::size_t m;
  };
  std::vector<Case> cases;
  {
    AllRangeWorkload w(Domain::OneDim(n));
    cases.push_back({"all 1D ranges", w.Gram(), w.num_queries()});
  }
  {
    PrefixWorkload w(n);
    cases.push_back({"1D CDF", w.Gram(), w.num_queries()});
  }
  {
    Domain dom({8, 8, 4});
    MarginalsWorkload w = MarginalsWorkload::AllKWay(dom, 2);
    cases.push_back({"2-way marginals", w.Gram(), w.num_queries()});
  }
  {
    Rng rng(9);
    auto w = builders::RandomPredicateWorkload(Domain::OneDim(n), 200, &rng);
    cases.push_back({"random predicates", w.Gram(), w.num_queries()});
  }

  for (const auto& c : cases) {
    auto eig = linalg::SymmetricEigen(c.gram).ValueOrDie();
    Strategy equal = EqualWeightStrategy(eig, 1e-10);
    Strategy al = optimize::SqrtEigenvalueStrategy(eig, 1e-10,
                                                   /*complete_columns=*/false);
    optimize::DesignOptions no_completion;
    no_completion.complete_columns = false;
    const Strategy opt = bench::DesignStrategy(eig, no_completion);
    const Strategy full = bench::DesignStrategy(eig);
    table.AddRow(
        {c.name,
         TablePrinter::Num(StrategyError(c.gram, c.m, equal, opts), 3),
         TablePrinter::Num(StrategyError(c.gram, c.m, al, opts), 3),
         TablePrinter::Num(StrategyError(c.gram, c.m, opt, opts), 3),
         TablePrinter::Num(StrategyError(c.gram, c.m, full, opts), 3),
         TablePrinter::Num(SvdErrorLowerBound(eig.values, c.m, opts), 3)});
  }
  table.Print();
  std::printf(
      "\nEach column adds one ingredient; the error must be non-increasing\n"
      "left to right (completion only helps rank-deficient workloads).\n");
  return 0;
}
