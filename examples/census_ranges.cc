// Range analytics over a census-like population (the scenario of Fig. 3a/b):
// an analyst explores age x occupation x income with axis-aligned range
// queries. We design a strategy for the row-normalized workload (the
// relative-error heuristic of Sec. 3.4), release a private data vector once,
// and answer the full range workload from it, reporting relative error
// against competing strategies.
//
// Build & run:  ./census_ranges [epsilon]
#include <cstdio>
#include <cstdlib>

#include "dpmm/dpmm.h"

using namespace dpmm;

int main(int argc, char** argv) {
  const double epsilon = argc > 1 ? std::atof(argv[1]) : 0.5;
  PrivacyParams privacy{epsilon, 1e-4};

  // Synthetic stand-in for the IPUMS census aggregation (see DESIGN.md):
  // 8 age x 16 occupation x 16 income buckets, 15M tuples.
  DataVector census = data::GenCensusLike();
  std::printf("Population: %s, %.0f tuples\n",
              census.domain.ToString().c_str(), census.Total());

  AllRangeWorkload workload(census.domain);
  std::printf("Workload: %s with %zu range queries\n",
              workload.Name().c_str(), workload.num_queries());

  // Strategy selection on the row-normalized Gram (relative-error
  // objective). This is the expensive step, but it depends only on the
  // workload — it is computed once and reused for any database.
  Stopwatch sw;
  auto design =
      optimize::Design(
          linalg::SymmetricEigen(workload.NormalizedGram()).ValueOrDie())
          .ValueOrDie();
  std::printf("Eigen-design selected in %.1fs (rank %zu, gap %.1e)\n",
              sw.Seconds(), design.rank, design.duality_gap);

  RelativeErrorOptions ropts;
  ropts.trials = 5;
  ropts.floor = 0.001 * census.Total();

  TablePrinter table({"strategy", "mean relative error", "noise scale"});
  auto report = [&](const Strategy& s) {
    auto mech =
        Mechanism::Prepare(std::make_shared<Strategy>(s), privacy).ValueOrDie();
    const double rel = MeanRelativeError(workload, mech, census, ropts);
    table.AddRow({s.name(), TablePrinter::Num(rel, 4),
                  TablePrinter::Num(mech.noise_scale(), 1)});
  };
  report(design.strategy->Materialize());
  report(WaveletStrategy(census.domain));
  report(HierarchicalStrategy(census.domain));

  std::printf("\nRelative error at eps=%.2f (5 Monte-Carlo releases):\n",
              epsilon);
  table.Print();
  std::printf(
      "\nThe eigen-design strategy adapts to the workload; wavelet and\n"
      "hierarchical are fixed constructions for range workloads.\n");
  return 0;
}
