#include "data/data_vector.h"

namespace dpmm {

DataVector::DataVector(Domain d, linalg::Vector c)
    : domain(std::move(d)), counts(std::move(c)) {
  DPMM_CHECK_EQ(counts.size(), domain.NumCells());
}

double DataVector::Total() const { return linalg::SumVec(counts); }

linalg::Vector DataVector::Marginal(std::size_t attr) const {
  linalg::Vector out(domain.size(attr), 0.0);
  for (std::size_t cell = 0; cell < counts.size(); ++cell) {
    out[domain.MultiIndex(cell)[attr]] += counts[cell];
  }
  return out;
}

}  // namespace dpmm
