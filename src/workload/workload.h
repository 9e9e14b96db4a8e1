// Workloads of linear counting queries (Sec. 2.1). A workload is logically
// an m x n query matrix W, but the paper's experiments use workloads whose
// explicit form is enormous (all range queries on 2048 cells is ~2.1M rows),
// while every quantity the mechanism needs — the Gram matrix W^T W, the
// query count m, the sensitivity, and true/estimated answers W x — has a
// closed form. The Workload interface therefore exposes those quantities
// directly; ExplicitWorkload wraps a materialized matrix, and the structured
// subclasses (range, marginal, prefix) provide closed forms.
#ifndef DPMM_WORKLOAD_WORKLOAD_H_
#define DPMM_WORKLOAD_WORKLOAD_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "domain/domain.h"
#include "linalg/kron_operator.h"
#include "linalg/matrix.h"

namespace dpmm {

/// Abstract workload of linear counting queries over a Domain.
class Workload {
 public:
  virtual ~Workload() = default;

  const Domain& domain() const { return domain_; }
  std::size_t num_cells() const { return domain_.NumCells(); }

  /// Number of queries m (rows of W).
  virtual std::size_t num_queries() const = 0;

  /// Display name for reports.
  virtual std::string Name() const = 0;

  /// The Gram matrix W^T W (n x n). This is the only form in which the
  /// workload enters the error formula (Prop. 4) and the Eigen-Design
  /// algorithm (Def. 6).
  virtual linalg::Matrix Gram() const = 0;

  /// Gram matrix of the row-normalized workload (every query scaled to unit
  /// L2 norm) — the paper's heuristic scaling for relative-error
  /// optimization (Sec. 3.4).
  virtual linalg::Matrix NormalizedGram() const;

  /// L2 sensitivity ||W||_2 (Prop. 1) = max column norm = sqrt of the max
  /// diagonal entry of the Gram matrix.
  virtual double L2Sensitivity() const;

  /// True answers W x, in the workload's canonical query order.
  virtual linalg::Vector Answer(const linalg::Vector& x) const = 0;

  /// Explicit query matrix if this workload holds one (nullptr otherwise).
  virtual const linalg::Matrix* matrix() const { return nullptr; }

  // ---- Structured (Kronecker) forms. These are what the fast path of the
  // eigen-design pipeline consumes: when present, strategy selection, error
  // evaluation and the mechanism itself run without ever materializing the
  // n x n Gram matrix or its eigenvectors. The public entry points are
  // non-virtual wrappers so the `normalized` default lives in exactly one
  // place (defaults on virtuals bind to the static type); subclasses
  // override the *Impl hooks below.

  /// Kronecker factorization of Gram() (or NormalizedGram()): per-attribute
  /// Gram blocks whose Kronecker product is the full Gram. nullopt when the
  /// workload is not a pure Kronecker combination.
  std::optional<linalg::KronGram> KronGramFactors(
      bool normalized = false) const {
    return KronGramFactorsImpl(normalized);
  }

  /// The Gram matrix as a sum of Kronecker products (single term for pure
  /// Kronecker workloads, one term per attribute set for marginals).
  /// nullopt for unstructured workloads.
  std::optional<linalg::SumKronGram> StructuredGram(
      bool normalized = false) const {
    return StructuredGramImpl(normalized);
  }

  /// Implicit factored eigendecomposition of the Gram: eigenvalues in
  /// natural Kronecker order, eigenbasis as per-attribute factors. Derived
  /// from KronGramFactors() by default in O(sum d_i^3); MarginalsWorkload
  /// overrides it with the analytic Helmert-basis form. nullopt when the
  /// workload has no Kronecker eigenstructure (or, pathologically, a factor
  /// eigensolve fails — optimize::Design distinguishes the two).
  std::optional<linalg::KronEigenResult> ImplicitEigen(
      bool normalized = false) const {
    return ImplicitEigenImpl(normalized);
  }

 protected:
  explicit Workload(Domain domain) : domain_(std::move(domain)) {}

  virtual std::optional<linalg::KronGram> KronGramFactorsImpl(
      bool normalized) const;
  virtual std::optional<linalg::SumKronGram> StructuredGramImpl(
      bool normalized) const;
  virtual std::optional<linalg::KronEigenResult> ImplicitEigenImpl(
      bool normalized) const;

  Domain domain_;
};

/// A workload backed by an explicit m x n query matrix.
class ExplicitWorkload : public Workload {
 public:
  ExplicitWorkload(Domain domain, linalg::Matrix w, std::string name);

  /// Convenience for one-dimensional matrices.
  static ExplicitWorkload FromMatrix(linalg::Matrix w, std::string name);

  std::size_t num_queries() const override { return w_.rows(); }
  std::string Name() const override { return name_; }
  linalg::Matrix Gram() const override;
  linalg::Matrix NormalizedGram() const override;
  double L2Sensitivity() const override { return w_.MaxColNorm(); }
  linalg::Vector Answer(const linalg::Vector& x) const override;
  const linalg::Matrix* matrix() const override { return &w_; }

  /// The workload with every row scaled to unit L2 norm (zero rows dropped).
  linalg::Matrix NormalizedMatrix() const;

 private:
  linalg::Matrix w_;
  std::string name_;
};

/// Union of several workloads (their queries stacked). Used for ad hoc
/// workloads combining the tasks of multiple users (Sec. 2.1).
class StackedWorkload : public Workload {
 public:
  StackedWorkload(std::vector<std::shared_ptr<const Workload>> parts,
                  std::string name);

  std::size_t num_queries() const override;
  std::string Name() const override { return name_; }
  linalg::Matrix Gram() const override;
  linalg::Matrix NormalizedGram() const override;
  linalg::Vector Answer(const linalg::Vector& x) const override;

  const std::vector<std::shared_ptr<const Workload>>& parts() const {
    return parts_;
  }

 private:
  std::vector<std::shared_ptr<const Workload>> parts_;
  std::string name_;
};

/// A workload with its cell conditions reordered (semantically equivalent in
/// the sense of Prop. 5): column j of the permuted workload is column
/// perm[j] of the base workload.
class PermutedWorkload : public Workload {
 public:
  PermutedWorkload(std::shared_ptr<const Workload> base,
                   std::vector<std::size_t> perm);

  std::size_t num_queries() const override { return base_->num_queries(); }
  std::string Name() const override { return base_->Name() + " (permuted)"; }
  linalg::Matrix Gram() const override;
  linalg::Matrix NormalizedGram() const override;
  double L2Sensitivity() const override { return base_->L2Sensitivity(); }
  linalg::Vector Answer(const linalg::Vector& x) const override;

 private:
  // Reindexes a Gram matrix: out(i, j) = g(perm[i], perm[j]).
  linalg::Matrix PermuteGram(const linalg::Matrix& g) const;

  std::shared_ptr<const Workload> base_;
  std::vector<std::size_t> perm_;
};

}  // namespace dpmm

#endif  // DPMM_WORKLOAD_WORKLOAD_H_
