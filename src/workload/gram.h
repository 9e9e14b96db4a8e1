// Closed-form Gram matrices for the structured workload families. These are
// what make the paper's experiment sizes tractable: "all range queries" on n
// cells has n(n+1)/2 rows, but its Gram matrix has the direct formula
// G_ij = (min(i,j)+1) * (n - max(i,j)), and multi-dimensional variants are
// Kronecker products of one-dimensional pieces.
#ifndef DPMM_WORKLOAD_GRAM_H_
#define DPMM_WORKLOAD_GRAM_H_

#include "linalg/matrix.h"

namespace dpmm {
namespace gram {

/// Gram of all 1D range queries on d cells:
/// G_ij = #{[a,b] : a <= min(i,j), b >= max(i,j)} = (min+1)(d - max).
linalg::Matrix AllRange1D(std::size_t d);

/// Gram of all 1D range queries with each query scaled to unit L2 norm
/// (weight 1/length per query): G_ij = sum over covering ranges of 1/len.
linalg::Matrix NormalizedAllRange1D(std::size_t d);

/// Gram of the 1D prefix (CDF) workload: q_i = cells [0..i];
/// G_ij = d - max(i,j).
linalg::Matrix Prefix1D(std::size_t d);

/// Gram of the row-normalized prefix workload:
/// G_ij = sum_{t >= max(i,j)} 1/(t+1).
linalg::Matrix NormalizedPrefix1D(std::size_t d);

/// The all-ones matrix J of size d (Gram of the single total query).
linalg::Matrix Ones(std::size_t d);

/// Number of 1D ranges on d cells: d(d+1)/2.
std::size_t NumRanges1D(std::size_t d);

}  // namespace gram
}  // namespace dpmm

#endif  // DPMM_WORKLOAD_GRAM_H_
