// Principal-vectors optimization (Sec. 4.2): weight the k most significant
// eigen-queries individually and apply one shared weight to every remaining
// nonzero eigen-query, reducing the weighting problem to k + 1 variables
// (O(n k^3) instead of O(n^4)).
#ifndef DPMM_OPTIMIZE_PRINCIPAL_VECTORS_H_
#define DPMM_OPTIMIZE_PRINCIPAL_VECTORS_H_

#include "optimize/eigen_design.h"

namespace dpmm {
namespace optimize {

struct PrincipalVectorsResult {
  Strategy strategy;
  double predicted_objective = 0;  // trace term at sensitivity 1
  std::size_t num_principal = 0;   // k actually used (clamped to the rank)
};

/// Eigen-design with only `num_principal` individually weighted
/// eigen-queries; the rest share one weight.
Result<PrincipalVectorsResult> PrincipalVectorsDesign(
    const linalg::SymmetricEigenResult& eigen, std::size_t num_principal,
    const DesignOptions& options = {});

}  // namespace optimize
}  // namespace dpmm

#endif  // DPMM_OPTIMIZE_PRINCIPAL_VECTORS_H_
