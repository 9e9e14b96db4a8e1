// Synthetic inputs for the test suites: flat and Zipf-skewed data vectors,
// and the explicit 1D prefix workload.
#ifndef DPMM_TESTS_SUPPORT_TEST_DATA_H_
#define DPMM_TESTS_SUPPORT_TEST_DATA_H_

#include <cstdint>

#include "data/data_vector.h"
#include "linalg/matrix.h"

namespace dpmm {
namespace data {

/// Uniform counts (total spread evenly).
DataVector GenUniform(const Domain& domain, double total);

/// Zipf-distributed counts over cells (rank r gets weight 1/r^alpha),
/// shuffled across cells with the given seed.
DataVector GenZipf(const Domain& domain, double total, double alpha,
                   std::uint64_t seed);

}  // namespace data

namespace builders {

/// Explicit matrix of the 1D prefix (CDF) workload.
linalg::Matrix PrefixMatrix1D(std::size_t d);

}  // namespace builders
}  // namespace dpmm

#endif  // DPMM_TESTS_SUPPORT_TEST_DATA_H_
