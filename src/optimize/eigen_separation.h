// Eigen-query separation (Sec. 4.2): partition the eigen-queries into groups
// by descending eigenvalue, run Program 1 within each group, then run one
// more weighting problem over per-group scale factors. Complexity drops from
// O(n * n^3) to O(n^2 g^3 + n (n/g)^3), minimized near g = n^{1/3}.
#ifndef DPMM_OPTIMIZE_EIGEN_SEPARATION_H_
#define DPMM_OPTIMIZE_EIGEN_SEPARATION_H_

#include "optimize/eigen_design.h"

namespace dpmm {
namespace optimize {

struct SeparationResult {
  Strategy strategy;
  double predicted_objective = 0;  // trace term at sensitivity 1
  std::size_t num_groups = 0;
};

/// Eigen-design with group-wise weighting. `group_size` is the number of
/// eigen-queries optimized jointly per group.
Result<SeparationResult> EigenSeparationDesign(
    const linalg::SymmetricEigenResult& eigen, std::size_t group_size,
    const DesignOptions& options = {});

}  // namespace optimize
}  // namespace dpmm

#endif  // DPMM_OPTIMIZE_EIGEN_SEPARATION_H_
