// Synthetic dataset generators. The paper's relative-error experiments use
// the US Census (IPUMS, age x occupation x income, 8x16x16, ~15M tuples) and
// UCI Adult (age x work x education x income, 8x8x16x2, ~33K weighted
// tuples). Neither is available offline, so we substitute deterministic
// synthetic populations with the same shape, scale and qualitative margins
// (bell-shaped age, lumpy categorical, heavy-tailed income) and mild
// cross-attribute correlation. See DESIGN.md ("Substitutions") for why this
// preserves the experiments' behaviour.
#ifndef DPMM_DATA_GENERATORS_H_
#define DPMM_DATA_GENERATORS_H_

#include <vector>

#include "data/data_vector.h"
#include "util/rng.h"

namespace dpmm {
namespace data {

/// Normalizes weights to sum to `total` and rounds to integral counts.
linalg::Vector ToCounts(std::vector<double> weights, double total);

/// Census-like population: Domain {8, 16, 16} (age x occupation x income),
/// ~15M tuples. Deterministic for a fixed seed.
DataVector GenCensusLike(std::uint64_t seed = 2012);

/// Adult-like population: Domain {8, 8, 16, 2} (age x work x education x
/// income), ~33K tuples. Deterministic for a fixed seed.
DataVector GenAdultLike(std::uint64_t seed = 2012);

}  // namespace data
}  // namespace dpmm

#endif  // DPMM_DATA_GENERATORS_H_
