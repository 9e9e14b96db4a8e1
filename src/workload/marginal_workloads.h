// Marginal-family workloads: sets of k-way marginals and k-way *range*
// marginals (Sec. 2.1 / Example 3). The marginal flavor additionally admits
// an analytic eigendecomposition: per attribute, the uniform vector and any
// orthonormal complement (we use the Helmert basis) simultaneously
// diagonalize both I and J, so the Gram matrix — a sum of Kronecker products
// of I's and J's — is diagonal in the Kronecker-Helmert basis. This makes
// the Eigen-Design step on marginal workloads essentially free (Sec. 4.1).
#ifndef DPMM_WORKLOAD_MARGINAL_WORKLOADS_H_
#define DPMM_WORKLOAD_MARGINAL_WORKLOADS_H_

#include "linalg/eigen_sym.h"
#include "workload/workload.h"

namespace dpmm {

/// A workload consisting of one marginal (or range-marginal) per attribute
/// set in `sets`.
class MarginalsWorkload : public Workload {
 public:
  enum class Flavor {
    kMarginal,       // one query per cell of the marginal
    kRangeMarginal,  // one query per range on each margin (Example 3)
  };

  MarginalsWorkload(Domain domain, std::vector<AttrSet> sets, Flavor flavor);

  /// The workload of all marginals over exactly `way` attributes.
  static MarginalsWorkload AllKWay(const Domain& domain, std::size_t way,
                                   Flavor flavor = Flavor::kMarginal);

  std::size_t num_queries() const override;
  std::string Name() const override;
  linalg::Matrix Gram() const override;
  linalg::Matrix NormalizedGram() const override;
  double L2Sensitivity() const override;
  linalg::Vector Answer(const linalg::Vector& x) const override;

  const std::vector<AttrSet>& sets() const { return sets_; }
  Flavor flavor() const { return flavor_; }

 protected:
  /// The marginal Gram as a sum of Kronecker products (one term per
  /// attribute set: I on set attributes, J elsewhere; range-Gram blocks for
  /// the range flavor) — the SumKronGram form of Sec. 2.1 / Example 3.
  std::optional<linalg::SumKronGram> StructuredGramImpl(
      bool normalized) const override;

  /// Implicit analytic eigendecomposition for plain marginals: the Kronecker
  /// Helmert basis diagonalizes every term of the Gram sum, so eigenvalues
  /// have a closed form and no numeric eigensolve runs at all. nullopt for
  /// the range flavor (range blocks do not commute with J).
  std::optional<linalg::KronEigenResult> ImplicitEigenImpl(
      bool normalized) const override;

 public:

  /// True iff the analytic eigendecomposition is available (plain
  /// marginals; range marginals do not commute with J per dimension).
  bool HasAnalyticEigen() const { return flavor_ == Flavor::kMarginal; }

  /// Analytic eigendecomposition of Gram(), same contract as
  /// linalg::SymmetricEigen (values ascending, eigenvectors in columns).
  linalg::SymmetricEigenResult AnalyticEigen() const;

  /// Explicit query matrix (for tests / small domains).
  linalg::Matrix Materialize() const;

 private:
  // Gram with per-set scale factors (1 for plain Gram; 1/row-norm^2 for the
  // normalized Gram).
  linalg::Matrix GramWithScales(bool normalized) const;

  std::vector<AttrSet> sets_;
  Flavor flavor_;
};

/// Orthonormal Helmert basis of size d: column 0 is the uniform vector,
/// columns 1..d-1 an orthonormal complement. Diagonalizes J = ones(d).
linalg::Matrix HelmertBasis(std::size_t d);

}  // namespace dpmm

#endif  // DPMM_WORKLOAD_MARGINAL_WORKLOADS_H_
