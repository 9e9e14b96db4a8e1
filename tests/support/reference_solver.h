// Reference primal solver for the weighting problem: a log-barrier Newton
// method with dense Hessians. O(num_vars^3) per Newton step, so only
// practical for small instances — it exists to validate the structured dual
// solver in the test suite (both must agree to several digits on the same
// instance, from independently derived algorithms).
#ifndef DPMM_TESTS_SUPPORT_REFERENCE_SOLVER_H_
#define DPMM_TESTS_SUPPORT_REFERENCE_SOLVER_H_

#include "optimize/weighting_problem.h"
#include "util/status.h"

namespace dpmm {
namespace optimize {

struct BarrierOptions {
  double initial_t = 1.0;
  double t_multiplier = 8.0;
  double tol = 1e-10;
  int max_newton_steps = 400;
};

struct BarrierSolution {
  linalg::Vector x;   // feasible primal point
  double objective;   // sum c_i / x_i^q at x
};

/// Solves the weighting problem by an interior-point path-following method.
Result<BarrierSolution> SolveWeightingBarrier(const WeightingProblem& problem,
                                              const BarrierOptions& options = {});

}  // namespace optimize
}  // namespace dpmm

#endif  // DPMM_TESTS_SUPPORT_REFERENCE_SOLVER_H_
