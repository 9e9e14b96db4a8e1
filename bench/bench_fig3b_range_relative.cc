// Fig. 3(b): average relative error for range workloads on the census-like
// and adult-like datasets, sweeping eps in {0.1, 0.5, 1, 2.5} at
// delta = 1e-4. Strategies are designed for the row-normalized workload
// (Sec. 3.4 heuristic); Hierarchical and Wavelet as competitors.
//
// Expected shape (paper): Eigen-Design below the competitors by ~1.3-1.5x
// at every eps; error decreases as eps grows.
#include "bench_common.h"

using namespace dpmm;

namespace {

void RunDataset(const char* title, const DataVector& data, bool small) {
  std::printf("\n[%s %s, %.0f tuples]\n", title,
              data.domain.ToString().c_str(), data.Total());
  const std::vector<double> eps_values = {0.1, 0.5, 1.0, 2.5};

  RelativeErrorOptions ropts;
  ropts.trials = small ? 3 : 5;
  ropts.floor = 1e-4 * data.Total();  // sanity floor for near-empty queries

  for (int random_mode = 0; random_mode < 2; ++random_mode) {
    std::unique_ptr<Workload> w;
    linalg::Matrix design_gram;
    Rng rng(17);
    if (random_mode == 0) {
      auto ar = std::make_unique<AllRangeWorkload>(data.domain);
      design_gram = ar->NormalizedGram();
      w = std::move(ar);
      std::printf("  -- All Range (%zu queries) --\n", w->num_queries());
    } else {
      auto rr = std::make_unique<ExplicitWorkload>(builders::RandomRangeWorkload(
          data.domain, small ? 200 : 1000, &rng));
      design_gram = rr->NormalizedGram();
      w = std::move(rr);
      std::printf("  -- Random Range (%zu queries) --\n", w->num_queries());
    }
    const auto hier =
        std::make_shared<Strategy>(HierarchicalStrategy(data.domain));
    const auto wav = std::make_shared<Strategy>(WaveletStrategy(data.domain));
    const auto eigen = std::make_shared<Strategy>(bench::DesignStrategy(
        linalg::SymmetricEigen(design_gram).ValueOrDie()));

    TablePrinter table({"eps", "Hierarchical", "Wavelet", "EigenDesign",
                        "best-competitor/eigen"});
    for (double eps : eps_values) {
      PrivacyParams privacy{eps, 1e-4};
      auto rel_error = [&](const std::shared_ptr<Strategy>& strategy) {
        return MeanRelativeError(
            *w, Mechanism::Prepare(strategy, privacy).ValueOrDie(), data,
            ropts);
      };
      const double e_h = rel_error(hier);
      const double e_w = rel_error(wav);
      const double e_e = rel_error(eigen);
      table.AddRow({TablePrinter::Num(eps, 1), TablePrinter::Num(e_h, 4),
                    TablePrinter::Num(e_w, 4), TablePrinter::Num(e_e, 4),
                    TablePrinter::Num(std::min(e_h, e_w) / e_e, 2) + "x"});
    }
    table.Print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = bench::SmallScale(argc, argv);
  bench::Banner("Fig. 3(b): relative error on range workloads",
                "Fig. 3(b), delta=1e-4, eps sweep, Monte-Carlo trials");
  RunDataset("US-Census-like", data::GenCensusLike(), small);
  RunDataset("Adult-like", data::GenAdultLike(), small);
  return 0;
}
