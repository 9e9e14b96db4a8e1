// The optimal query-weighting problem (Program 1, Sec. 3.1). For a design
// basis B (rows = design queries) and strategy A = diag(lambda) B, the
// workload error factors as
//
//   Error^2  proportional to  (max_j sum_i u_i B_ij^2) * (sum_i c_i / u_i)
//
// with u_i = lambda_i^2 and c_i = ||column i of W B^+||_2^2 (Thm. 1). After
// normalizing the sensitivity to 1 this is exactly
//
//   minimize   sum_i c_i / u_i
//   subject to (B o B)^T u <= 1,  u >= 0          (o = Hadamard product)
//
// — a smooth convex program over a polytope with a nonnegative constraint
// matrix, which this module represents and solves (dual_solver.h). The
// paper's SDP formulation (with dsdp) is equivalent; the structured solver
// is what makes O(n^4) strategy selection practical here.
//
// The same representation covers the eps-DP variant of Sec. 3.5, where the
// variable is lambda itself, the objective sum_i c_i / lambda_i^2 and the
// constraints sum_i lambda_i |B_ij| <= 1 — select with exponent q = 2.
#ifndef DPMM_OPTIMIZE_WEIGHTING_PROBLEM_H_
#define DPMM_OPTIMIZE_WEIGHTING_PROBLEM_H_

#include <vector>

#include "linalg/eigen_sym.h"
#include "linalg/kron_operator.h"
#include "linalg/matrix.h"

namespace dpmm {
namespace optimize {

/// Instance of the weighting problem:
///   minimize sum_i c[i] / x_i^q  subject to  constraints * x <= 1, x >= 0,
/// with entrywise-nonnegative `constraints` (num_constraints x num_vars).
struct WeightingProblem {
  linalg::Vector c;             // objective coefficients, c_i >= 0
  linalg::Matrix constraints;   // nonnegative constraint matrix
  int exponent = 1;             // q: 1 for L2 weighting, 2 for L1 weighting

  std::size_t num_vars() const { return c.size(); }
  std::size_t num_constraints() const { return constraints.rows(); }
};

/// An entrywise-nonnegative constraint matrix exposed only through matvecs —
/// all the dual solver ever needs. Structured workloads supply operators
/// whose Apply costs O(n sum d_i) instead of the O(n^2) dense matvec (and,
/// more importantly, O(n sum d_i) memory instead of the n x n matrix that
/// makes the dense path infeasible past ~2^14 cells).
class ConstraintOperator {
 public:
  virtual ~ConstraintOperator() = default;
  virtual std::size_t num_constraints() const = 0;
  virtual std::size_t num_vars() const = 0;
  virtual linalg::Vector Apply(const linalg::Vector& x) const = 0;    // G x
  virtual linalg::Vector ApplyT(const linalg::Vector& mu) const = 0;  // G^T mu
};

/// Dense adapter: wraps a WeightingProblem's constraint matrix, holding a
/// pre-transposed copy so both directions run as threaded row-major matvecs.
class DenseConstraintOperator : public ConstraintOperator {
 public:
  explicit DenseConstraintOperator(linalg::Matrix constraints);

  std::size_t num_constraints() const override { return g_.rows(); }
  std::size_t num_vars() const override { return g_.cols(); }
  linalg::Vector Apply(const linalg::Vector& x) const override;
  linalg::Vector ApplyT(const linalg::Vector& mu) const override;

 private:
  linalg::Matrix g_;
  linalg::Matrix gt_;
};

/// The eigen weighting problem's constraints over an *implicit* Kronecker
/// eigenbasis: G(j, v) = Q(j, kept[v])^2, i.e. the entrywise square Q o Q
/// restricted to the kept columns. Both matvec directions scatter/gather
/// through the kept index set around a squared-factor vec-trick apply.
/// Because Q is orthogonal, Q o Q is doubly stochastic, so mu = 1 still
/// starts the solver at the sqrt-eigenvalue strategy of Thm. 2.
class KronEigenConstraintOperator : public ConstraintOperator {
 public:
  KronEigenConstraintOperator(const linalg::KronEigenBasis* basis,
                              std::vector<std::size_t> kept);

  std::size_t num_constraints() const override { return basis_->dim(); }
  std::size_t num_vars() const override { return kept_.size(); }
  linalg::Vector Apply(const linalg::Vector& x) const override;
  linalg::Vector ApplyT(const linalg::Vector& mu) const override;

 private:
  const linalg::KronEigenBasis* basis_;  // not owned
  std::vector<std::size_t> kept_;
};

/// Program 1 for an arbitrary invertible design basis (rows of `basis` are
/// the design queries): c_i = (B^{-T} G_W B^{-1})_ii, constraint row per
/// cell j with entries B_ij^2.
WeightingProblem MakeL2Problem(const linalg::Matrix& workload_gram,
                               const linalg::Matrix& basis);

/// The Sec. 4.1 rank-reduction rule, shared by every eigen-design path
/// (dense, sqrt-eigenvalue, Kronecker, the Sec. 4.2 optimizations) so the
/// threshold cannot drift:
/// returns the indices with values[i] > rank_rel_tol * max(values), in
/// order; `kept_values` (optional) receives the surviving values. Empty
/// when the spectrum is entirely nonpositive.
std::vector<std::size_t> KeptSpectrum(const linalg::Vector& values,
                                      double rank_rel_tol,
                                      linalg::Vector* kept_values = nullptr);

/// Program 1 for the eigen-design (Def. 6): the basis is the orthogonal
/// eigenbasis of W^T W, so c = eigenvalues directly. Eigenvalues at or
/// below rank_rel_tol * max are excluded (Sec. 4.1 rank reduction);
/// `kept_indices` receives the surviving column indices of eigen.vectors.
WeightingProblem MakeEigenProblem(const linalg::SymmetricEigenResult& eigen,
                                  double rank_rel_tol,
                                  std::vector<std::size_t>* kept_indices);

/// The eps-DP (L1) weighting problem of Sec. 3.5 for an invertible basis:
/// same c_i, constraint entries |B_ij|, exponent 2.
WeightingProblem MakeL1Problem(const linalg::Matrix& workload_gram,
                               const linalg::Matrix& basis);

/// L1 weighting for a design basis with orthonormal rows that need not be
/// square (e.g. the restricted Fourier strategy of Barak et al., which
/// keeps only the basis vectors a marginal workload needs). Requires the
/// workload's row space to lie inside the basis row space; then
/// c_i = b_i^T G_W b_i and the same exponent-2 program applies.
WeightingProblem MakeL1ProblemOrthonormalRows(
    const linalg::Matrix& workload_gram, const linalg::Matrix& basis);

}  // namespace optimize
}  // namespace dpmm

#endif  // DPMM_OPTIMIZE_WEIGHTING_PROBLEM_H_
