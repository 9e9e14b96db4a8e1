// Quickstart: the paper's running example (Fig. 1 / Example 4).
//
// A data analyst wants private answers to 8 counting queries over students
// grouped by gender and GPA. We compare the standard approaches against the
// adaptive Eigen-Design mechanism, then actually release private answers.
//
// Build & run:  ./quickstart
#include <cstdio>

#include "dpmm/dpmm.h"

using namespace dpmm;

int main() {
  // --- 1. Define the domain and workload (Fig. 1) -------------------------
  CellLabels labels = builders::Fig1Labels();
  auto workload = ExplicitWorkload::FromMatrix(builders::Fig1Matrix(), "Fig1");

  std::printf("Cell conditions (Fig. 1a):\n");
  for (std::size_t i = 0; i < labels.domain().NumCells(); ++i) {
    std::printf("  phi_%zu: %s\n", i + 1, labels.Condition(i).c_str());
  }
  std::printf("\nQueries (Fig. 1c):\n");
  const auto descriptions = builders::Fig1QueryDescriptions();
  for (std::size_t q = 0; q < descriptions.size(); ++q) {
    std::printf("  q%zu: %s\n", q + 1, descriptions[q].c_str());
  }

  // --- 2. Compare strategies analytically (Example 4) ---------------------
  ErrorOptions opts;
  opts.privacy = {0.5, 1e-4};
  opts.convention = ErrorConvention::kLegacyExample4;  // paper's printout

  auto design = optimize::Design(workload).ValueOrDie();
  Strategy identity = IdentityStrategy(8);
  Strategy wavelet = WaveletStrategy(Domain::OneDim(8));

  std::printf("\nRMSE at eps=0.5, delta=1e-4 (Example 4):\n");
  std::printf("  workload as strategy : %6.2f   (paper: 47.78)\n",
              GaussianBaselineError(workload, opts));
  std::printf("  identity strategy    : %6.2f   (paper: 45.36)\n",
              StrategyError(workload, identity, opts));
  std::printf("  wavelet strategy     : %6.2f   (paper: 34.62)\n",
              StrategyError(workload, wavelet, opts));
  std::printf("  eigen-design (ours)  : %6.2f   (paper: 29.79)\n",
              StrategyError(workload, design.strategy->Materialize(), opts));
  std::printf("  provable lower bound : %6.2f   (paper: 29.18)\n",
              SvdErrorLowerBound(workload.Gram(), 8, opts));

  // --- 3. Release private answers -----------------------------------------
  // A fictitious database of 400 students.
  linalg::Vector x{52, 58, 45, 40, 60, 66, 43, 36};
  auto mech = Mechanism::Prepare(design.strategy, opts.privacy).ValueOrDie();
  Rng rng(2012);
  linalg::Vector answers = mech.Run(workload, x, &rng);
  linalg::Vector truth = workload.Answer(x);

  std::printf("\nPrivate release (one run, seed 2012):\n");
  std::printf("  %-45s %8s %8s\n", "query", "true", "private");
  for (std::size_t q = 0; q < answers.size(); ++q) {
    std::printf("  %-45s %8.0f %8.1f\n", descriptions[q].c_str(), truth[q],
                answers[q]);
  }
  std::printf(
      "\nNote: answers are consistent (q1 = q2 + q3 holds exactly: "
      "%.1f = %.1f + %.1f).\n",
      answers[0], answers[1], answers[2]);
  return 0;
}
