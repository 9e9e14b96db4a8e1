// Fig. 3(d): average relative error for marginal workloads on the
// census-like and adult-like datasets, eps in {0.1, 0.5, 1, 2.5},
// delta = 1e-4. Fourier and DataCube as competitors; the eigen strategy is
// designed on the row-normalized workload (Sec. 3.4).
//
// Expected shape (paper): Eigen-Design below competitors by ~1.1-2.7x.
#include "bench_common.h"

using namespace dpmm;

namespace {

void RunDataset(const char* title, const DataVector& data, bool small) {
  std::printf("\n[%s %s, %.0f tuples]\n", title,
              data.domain.ToString().c_str(), data.Total());
  const std::vector<double> eps_values = {0.1, 0.5, 1.0, 2.5};
  RelativeErrorOptions ropts;
  ropts.trials = small ? 3 : 5;
  ropts.floor = 1e-4 * data.Total();

  Rng rng(23);
  for (int random_mode = 0; random_mode < 2; ++random_mode) {
    std::vector<AttrSet> sets;
    if (random_mode == 0) {
      sets = AllSubsetsOfSize(data.domain.num_attributes(), 2);
      std::printf("  -- 2-Way Marginal --\n");
    } else {
      sets = builders::RandomMarginalSets(
          data.domain.num_attributes(),
          std::min<std::size_t>(6, (1u << data.domain.num_attributes()) - 1),
          &rng);
      std::printf("  -- Random Marginal (%zu sets) --\n", sets.size());
    }
    MarginalsWorkload w(data.domain, sets, MarginalsWorkload::Flavor::kMarginal);
    // Relative-error heuristic: design on the normalized Gram. Marginal
    // normalization only rescales per-set Kronecker terms, so the analytic
    // eigenbasis still applies; we use the numeric path for simplicity.
    const auto fourier =
        std::make_shared<Strategy>(FourierStrategy(data.domain, sets));
    const auto cube = std::make_shared<Strategy>(
        DataCubeStrategy(data.domain, sets).strategy);
    const auto eigen = std::make_shared<Strategy>(bench::DesignStrategy(
        linalg::SymmetricEigen(w.NormalizedGram()).ValueOrDie()));

    TablePrinter table({"eps", "Fourier", "DataCube", "EigenDesign",
                        "best-competitor/eigen"});
    for (double eps : eps_values) {
      PrivacyParams privacy{eps, 1e-4};
      auto rel_error = [&](const std::shared_ptr<Strategy>& strategy) {
        return MeanRelativeError(
            w, Mechanism::Prepare(strategy, privacy).ValueOrDie(), data,
            ropts);
      };
      const double e_f = rel_error(fourier);
      const double e_d = rel_error(cube);
      const double e_e = rel_error(eigen);
      table.AddRow({TablePrinter::Num(eps, 1), TablePrinter::Num(e_f, 4),
                    TablePrinter::Num(e_d, 4), TablePrinter::Num(e_e, 4),
                    TablePrinter::Num(std::min(e_f, e_d) / e_e, 2) + "x"});
    }
    table.Print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = bench::SmallScale(argc, argv);
  bench::Banner("Fig. 3(d): relative error on marginal workloads",
                "Fig. 3(d), delta=1e-4, eps sweep, Monte-Carlo trials");
  RunDataset("US-Census-like", data::GenCensusLike(), small);
  RunDataset("Adult-like", data::GenAdultLike(), small);
  return 0;
}
