#include "support/test_data.h"

#include <cmath>
#include <vector>

#include "data/generators.h"
#include "util/rng.h"

namespace dpmm {
namespace data {

DataVector GenUniform(const Domain& domain, double total) {
  linalg::Vector counts(domain.NumCells(),
                        total / static_cast<double>(domain.NumCells()));
  return DataVector(domain, std::move(counts));
}

DataVector GenZipf(const Domain& domain, double total, double alpha,
                   std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = domain.NumCells();
  std::vector<double> weights(n);
  for (std::size_t r = 0; r < n; ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), alpha);
  }
  const auto perm = rng.Permutation(n);
  std::vector<double> shuffled(n);
  for (std::size_t i = 0; i < n; ++i) shuffled[perm[i]] = weights[i];
  return DataVector(domain, ToCounts(std::move(shuffled), total));
}

}  // namespace data

namespace builders {

using linalg::Matrix;

Matrix PrefixMatrix1D(std::size_t d) {
  Matrix w(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j <= i; ++j) w(i, j) = 1.0;
  }
  return w;
}

}  // namespace builders
}  // namespace dpmm
