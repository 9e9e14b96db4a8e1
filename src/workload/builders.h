// Explicit workload builders: small structured matrices, randomized
// workloads (random ranges via two-step sampling, random predicates, random
// marginal subsets), and the paper's running example (Fig. 1).
#ifndef DPMM_WORKLOAD_BUILDERS_H_
#define DPMM_WORKLOAD_BUILDERS_H_

#include <memory>

#include "domain/cell_condition.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace dpmm {
namespace builders {

/// Explicit matrix of all 1D ranges on d cells, d(d+1)/2 rows in canonical
/// order (start ascending, then end ascending).
linalg::Matrix AllRangeMatrix1D(std::size_t d);

/// 1 x n row of ones (the total query).
linalg::Matrix TotalMatrix(std::size_t n);

/// Explicit matrix of the marginal over attribute set `set`.
linalg::Matrix MarginalMatrix(const Domain& domain, const AttrSet& set);

/// Random multi-dimensional range queries using two-step sampling in the
/// style of Xiao et al. [21]: per dimension, first draw a dyadic scale
/// uniformly, then a length within the scale and a position uniformly.
ExplicitWorkload RandomRangeWorkload(const Domain& domain, std::size_t count,
                                     Rng* rng);

/// Random 0/1 predicate queries; each cell is included with probability 1/2.
ExplicitWorkload RandomPredicateWorkload(const Domain& domain,
                                         std::size_t count, Rng* rng);

/// `count` distinct random non-empty attribute subsets (random marginals, in
/// the style of Ding et al. [7]).
std::vector<AttrSet> RandomMarginalSets(std::size_t num_attributes,
                                        std::size_t count, Rng* rng);

/// The workload matrix of Fig. 1(b) (8 queries over gender x gpa).
linalg::Matrix Fig1Matrix();

/// The domain and cell labels of Fig. 1(a).
CellLabels Fig1Labels();

/// Descriptions of the 8 queries of Fig. 1(c).
std::vector<std::string> Fig1QueryDescriptions();

}  // namespace builders
}  // namespace dpmm

#endif  // DPMM_WORKLOAD_BUILDERS_H_
