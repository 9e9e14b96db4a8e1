// End-to-end integration tests: the full pipeline (workload -> eigen design
// -> mechanism -> private answers) on synthetic datasets, ad hoc stacked
// workloads, relative-error optimization and persistence.
#include <cmath>
#include <cstdio>
#include <memory>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/io.h"
#include "mechanism/bounds.h"
#include "mechanism/error.h"
#include "mechanism/matrix_mechanism.h"
#include "optimize/eigen_design.h"
#include "strategy/wavelet.h"
#include "workload/builders.h"
#include "workload/marginal_workloads.h"
#include "workload/range_workloads.h"

#include "support/test_data.h"

namespace dpmm {
namespace {

Mechanism Prepared(std::shared_ptr<const LinearStrategy> strategy,
                   PrivacyParams privacy) {
  return Mechanism::Prepare(std::move(strategy), privacy).ValueOrDie();
}

TEST(Integration, FullPipelineOnZipfData) {
  Domain dom({64});
  AllRangeWorkload w(dom);
  DataVector data = data::GenZipf(dom, 1e6, 1.1, 3);

  auto design = optimize::Design(w).ValueOrDie();
  PrivacyParams privacy{1.0, 1e-4};
  auto mech = Prepared(design.strategy, privacy);

  Rng rng(1);
  linalg::Vector answers = mech.Run(w, data.counts, &rng);
  ASSERT_EQ(answers.size(), w.num_queries());

  // The total query (range covering everything) should be near the truth.
  const linalg::Vector truth = w.Answer(data.counts);
  double worst_big_rel = 0;
  for (std::size_t q = 0; q < truth.size(); ++q) {
    if (truth[q] > 0.2 * data.Total()) {
      worst_big_rel = std::max(
          worst_big_rel, std::fabs(answers[q] - truth[q]) / truth[q]);
    }
  }
  EXPECT_LT(worst_big_rel, 0.05);  // large counts answered accurately
}

TEST(Integration, RelativeErrorDesignBeatsAbsoluteDesignOnRelativeMetric) {
  // Sec. 3.4: optimizing the row-normalized workload should improve the
  // relative-error metric compared against a workload-as-is design.
  Domain dom({64});
  AllRangeWorkload w(dom);
  DataVector data = data::GenZipf(dom, 1e6, 1.0, 7);
  PrivacyParams privacy{0.5, 1e-4};

  auto abs_design = optimize::Design(w).ValueOrDie();
  auto rel_design =
      optimize::Design(linalg::SymmetricEigen(w.NormalizedGram()).ValueOrDie())
          .ValueOrDie();
  auto abs_mech = Prepared(abs_design.strategy, privacy);
  auto rel_mech = Prepared(rel_design.strategy, privacy);

  RelativeErrorOptions ropts;
  ropts.trials = 15;
  const double abs_rel = MeanRelativeError(w, abs_mech, data, ropts);
  const double rel_rel = MeanRelativeError(w, rel_mech, data, ropts);
  // The scaled design should not be worse; typically it is clearly better.
  EXPECT_LE(rel_rel, abs_rel * 1.05);
}

TEST(Integration, AdHocStackedWorkloadPipeline) {
  // Two users: one wants a CDF, the other random ranges; the combined
  // workload is designed jointly and eigen-design beats wavelet on it.
  Domain dom({48});
  Rng rng(5);
  auto u1 = std::make_shared<PrefixWorkload>(48);
  auto u2 = std::make_shared<ExplicitWorkload>(
      builders::RandomRangeWorkload(dom, 40, &rng));
  StackedWorkload combined({u1, u2}, "two-users");

  ErrorOptions opts;
  opts.privacy = {0.5, 1e-4};
  auto design = optimize::Design(combined).ValueOrDie();
  const double eigen_err =
      StrategyError(combined, design.strategy->Materialize(), opts);
  const double wavelet_err =
      StrategyError(combined, WaveletStrategy(dom), opts);
  EXPECT_LT(eigen_err, wavelet_err);
  EXPECT_GE(eigen_err, SvdErrorLowerBound(combined.Gram(),
                                          combined.num_queries(), opts) *
                           (1 - 1e-6));

  // The mechanism actually runs on the combined workload.
  auto mech = Prepared(design.strategy, opts.privacy);
  DataVector data = data::GenZipf(dom, 5e5, 0.8, 11);
  linalg::Vector answers = mech.Run(combined, data.counts, &rng);
  EXPECT_EQ(answers.size(), combined.num_queries());
}

TEST(Integration, MarginalPipelineOnAdultLikeData) {
  DataVector adult = data::GenAdultLike();
  MarginalsWorkload w = MarginalsWorkload::AllKWay(adult.domain, 2);
  auto design = optimize::Design(w.AnalyticEigen()).ValueOrDie();
  PrivacyParams privacy{1.0, 1e-4};
  auto mech = Prepared(design.strategy, privacy);
  RelativeErrorOptions ropts;
  ropts.trials = 3;
  ropts.floor = 10.0;
  const double rel = MeanRelativeError(w, mech, adult, ropts);
  EXPECT_GT(rel, 0.0);
  EXPECT_LT(rel, 5.0);  // sane scale on 33K tuples
}

TEST(Integration, PersistedHistogramRoundTripsThroughMechanism) {
  Domain dom({4, 4});
  DataVector data = data::GenUniform(dom, 1600);
  const std::string path = ::testing::TempDir() + "/dpmm_integration.csv";
  ASSERT_TRUE(data::SaveCsv(data, path).ok());
  DataVector loaded = data::LoadCsv(path).ValueOrDie();

  MarginalsWorkload w = MarginalsWorkload::AllKWay(dom, 1);
  auto design = optimize::Design(w).ValueOrDie();
  auto mech = Prepared(design.strategy, {0.5, 1e-4});
  Rng rng(13);
  linalg::Vector a1 = mech.Run(w, data.counts, &rng);
  Rng rng2(13);
  linalg::Vector a2 = mech.Run(w, loaded.counts, &rng2);
  for (std::size_t i = 0; i < a1.size(); ++i) ASSERT_DOUBLE_EQ(a1[i], a2[i]);
  std::remove(path.c_str());
}

TEST(Integration, EndToEndDeterminismForSeed) {
  Domain dom({32});
  AllRangeWorkload w(dom);
  auto design = optimize::Design(w).ValueOrDie();
  auto mech = Prepared(design.strategy, {0.5, 1e-4});
  DataVector data = data::GenZipf(dom, 1e4, 1.0, 2);
  Rng r1(99), r2(99);
  linalg::Vector a1 = mech.Run(w, data.counts, &r1);
  linalg::Vector a2 = mech.Run(w, data.counts, &r2);
  EXPECT_EQ(a1, a2);
}

}  // namespace
}  // namespace dpmm
