#include "workload/workload.h"

#include <cmath>

#include "linalg/blas.h"

namespace dpmm {

using linalg::Matrix;
using linalg::Vector;

Matrix Workload::NormalizedGram() const {
  DPMM_CHECK_MSG(false, "NormalizedGram not implemented for " + Name());
  return {};  // unreachable
}

std::optional<linalg::KronGram> Workload::KronGramFactorsImpl(
    bool /*normalized*/) const {
  return std::nullopt;
}

std::optional<linalg::SumKronGram> Workload::StructuredGramImpl(
    bool normalized) const {
  auto kron = KronGramFactors(normalized);
  if (!kron.has_value()) return std::nullopt;
  std::vector<linalg::KronGram> terms;
  terms.push_back(*std::move(kron));
  return linalg::SumKronGram(std::move(terms));
}

std::optional<linalg::KronEigenResult> Workload::ImplicitEigenImpl(
    bool normalized) const {
  auto kron = KronGramFactors(normalized);
  if (!kron.has_value()) return std::nullopt;
  auto eig = linalg::FactorKronEigen(*kron);
  // nullopt covers both "no Kronecker structure" and the (pathological)
  // factor-eigensolve failure; optimize::Design re-runs the factored
  // eigensolve to surface the latter as a real Status.
  if (!eig.ok()) return std::nullopt;
  return std::move(eig).ValueOrDie();
}

double Workload::L2Sensitivity() const {
  const Matrix g = Gram();
  double mx = 0;
  for (std::size_t i = 0; i < g.rows(); ++i) mx = std::max(mx, g(i, i));
  return std::sqrt(mx);
}

ExplicitWorkload::ExplicitWorkload(Domain domain, Matrix w, std::string name)
    : Workload(std::move(domain)), w_(std::move(w)), name_(std::move(name)) {
  DPMM_CHECK_EQ(w_.cols(), domain_.NumCells());
}

ExplicitWorkload ExplicitWorkload::FromMatrix(Matrix w, std::string name) {
  Domain d = Domain::OneDim(w.cols());
  return ExplicitWorkload(std::move(d), std::move(w), std::move(name));
}

Matrix ExplicitWorkload::Gram() const { return linalg::Gram(w_); }

Matrix ExplicitWorkload::NormalizedMatrix() const {
  Matrix out(w_.rows(), w_.cols());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < w_.rows(); ++i) {
    double norm2 = 0;
    const double* row = w_.RowPtr(i);
    for (std::size_t j = 0; j < w_.cols(); ++j) norm2 += row[j] * row[j];
    if (norm2 == 0.0) continue;
    const double inv = 1.0 / std::sqrt(norm2);
    double* orow = out.RowPtr(kept);
    for (std::size_t j = 0; j < w_.cols(); ++j) orow[j] = row[j] * inv;
    ++kept;
  }
  if (kept == w_.rows()) return out;
  Matrix trimmed(kept, w_.cols());
  for (std::size_t i = 0; i < kept; ++i) {
    std::copy(out.RowPtr(i), out.RowPtr(i) + w_.cols(), trimmed.RowPtr(i));
  }
  return trimmed;
}

Matrix ExplicitWorkload::NormalizedGram() const {
  return linalg::Gram(NormalizedMatrix());
}

Vector ExplicitWorkload::Answer(const Vector& x) const {
  return linalg::MatVec(w_, x);
}

StackedWorkload::StackedWorkload(
    std::vector<std::shared_ptr<const Workload>> parts, std::string name)
    : Workload(parts.empty() ? Domain::OneDim(1) : parts[0]->domain()),
      parts_(std::move(parts)),
      name_(std::move(name)) {
  DPMM_CHECK_GT(parts_.size(), 0u);
  for (const auto& p : parts_) {
    DPMM_CHECK_MSG(p->domain() == domain_, "stacked parts over equal domains");
  }
}

std::size_t StackedWorkload::num_queries() const {
  std::size_t m = 0;
  for (const auto& p : parts_) m += p->num_queries();
  return m;
}

Matrix StackedWorkload::Gram() const {
  Matrix g = parts_[0]->Gram();
  for (std::size_t k = 1; k < parts_.size(); ++k) {
    Matrix gk = parts_[k]->Gram();
    for (std::size_t i = 0; i < g.rows(); ++i) {
      double* gi = g.RowPtr(i);
      const double* gki = gk.RowPtr(i);
      for (std::size_t j = 0; j < g.cols(); ++j) gi[j] += gki[j];
    }
  }
  return g;
}

Matrix StackedWorkload::NormalizedGram() const {
  Matrix g = parts_[0]->NormalizedGram();
  for (std::size_t k = 1; k < parts_.size(); ++k) {
    Matrix gk = parts_[k]->NormalizedGram();
    for (std::size_t i = 0; i < g.rows(); ++i) {
      double* gi = g.RowPtr(i);
      const double* gki = gk.RowPtr(i);
      for (std::size_t j = 0; j < g.cols(); ++j) gi[j] += gki[j];
    }
  }
  return g;
}

Vector StackedWorkload::Answer(const Vector& x) const {
  Vector out;
  out.reserve(num_queries());
  for (const auto& p : parts_) {
    Vector part = p->Answer(x);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

PermutedWorkload::PermutedWorkload(std::shared_ptr<const Workload> base,
                                   std::vector<std::size_t> perm)
    : Workload(base->domain()), base_(std::move(base)), perm_(std::move(perm)) {
  DPMM_CHECK_EQ(perm_.size(), domain_.NumCells());
}

Matrix PermutedWorkload::PermuteGram(const Matrix& g) const {
  const std::size_t n = perm_.size();
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) out(i, j) = g(perm_[i], perm_[j]);
  }
  return out;
}

Matrix PermutedWorkload::Gram() const { return PermuteGram(base_->Gram()); }

Matrix PermutedWorkload::NormalizedGram() const {
  return PermuteGram(base_->NormalizedGram());
}

Vector PermutedWorkload::Answer(const Vector& x) const {
  // Cell j of this workload's ordering is cell perm[j] of the base ordering.
  Vector x_base(x.size());
  for (std::size_t j = 0; j < perm_.size(); ++j) x_base[perm_[j]] = x[j];
  return base_->Answer(x_base);
}

}  // namespace dpmm
