// Predicate-query front end: an analyst writes counting queries as text
// predicates over a bucketized schema, the library compiles them into a
// workload, designs an adaptive strategy, and releases private answers with
// per-query accuracy estimates — no matrices in sight.
//
// Build & run:  ./predicate_queries
#include <cstdio>

#include "dpmm/dpmm.h"

using namespace dpmm;

int main() {
  // Adult-like schema: age(8) x work(8) x education(16) x income(2).
  DataVector adult = data::GenAdultLike();
  const Domain& dom = adult.domain;

  query::WorkloadBuilder builder(dom);
  const char* queries[] = {
      "*",                                   // total population
      "income = 1",                          // high earners
      "education >= 12",                     // advanced degrees
      "education >= 12 AND income = 1",      // and their overlap
      "age IN [2, 4] AND work = 2",          // mid-career, one sector
      "income = 1 AND age < 3",              // young high earners
      "education < 6 AND income = 1",        // high earners, low education
  };
  for (const char* q : queries) {
    auto added = builder.AddCount(q);
    DPMM_CHECK_MSG(added.ok(), added.status().ToString());
  }
  // A difference query, Fig. 1(b) q8 style.
  builder.AddDifference(
      query::ParsePredicate("income = 1", dom).ValueOrDie(),
      query::ParsePredicate("income = 0", dom).ValueOrDie());

  ExplicitWorkload workload = builder.Build("analyst-queries");
  std::printf("Workload: %zu predicate queries over %s\n\n",
              workload.num_queries(), dom.ToString().c_str());

  // Adaptive design + release.
  PrivacyParams privacy{0.5, 1e-4};
  auto design = optimize::Design(workload).ValueOrDie();
  auto mech = Mechanism::Prepare(design.strategy, privacy).ValueOrDie();
  Rng rng(7);
  linalg::Vector answers = mech.Run(workload, adult.counts, &rng);
  linalg::Vector truth = workload.Answer(adult.counts);
  linalg::Vector sd =
      release::QueryErrorProfile(workload, *design.strategy, privacy);

  std::printf("%-52s %9s %10s %8s\n", "query", "true", "private", "+-sd");
  for (std::size_t q = 0; q < answers.size(); ++q) {
    std::printf("%-52s %9.0f %10.1f %8.1f\n", builder.description(q).c_str(),
                truth[q], answers[q], sd[q]);
  }

  // Compare against answering naively (workload as strategy).
  ErrorOptions opts;
  opts.privacy = privacy;
  const double adaptive_err =
      StrategyError(workload, design.strategy->Materialize(), opts);
  std::printf("\nWorkload error: eigen-design %.2f vs naive Gaussian %.2f "
              "(%.1fx better), bound %.2f\n",
              adaptive_err, GaussianBaselineError(workload, opts),
              GaussianBaselineError(workload, opts) / adaptive_err,
              SvdErrorLowerBound(workload.Gram(), workload.num_queries(),
                                 opts));
  return 0;
}
