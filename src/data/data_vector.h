// Data vectors (Def. 1): the vector x of per-cell counts that linear
// queries are evaluated against. The mechanism's absolute error analysis is
// data-independent; data vectors are needed only for executing the mechanism
// and for relative-error evaluation.
#ifndef DPMM_DATA_DATA_VECTOR_H_
#define DPMM_DATA_DATA_VECTOR_H_

#include "domain/domain.h"
#include "linalg/matrix.h"

namespace dpmm {

/// A count vector over the cells of a domain.
struct DataVector {
  Domain domain;
  linalg::Vector counts;

  DataVector(Domain d, linalg::Vector c);

  std::size_t size() const { return counts.size(); }

  /// Total number of tuples.
  double Total() const;

  /// Marginal totals over one attribute (for generator sanity checks).
  linalg::Vector Marginal(std::size_t attr) const;
};

}  // namespace dpmm

#endif  // DPMM_DATA_DATA_VECTOR_H_
