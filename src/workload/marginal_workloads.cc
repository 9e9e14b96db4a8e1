#include "workload/marginal_workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "linalg/kronecker.h"
#include "workload/builders.h"
#include "workload/gram.h"

namespace dpmm {

using linalg::Matrix;
using linalg::Vector;

namespace {

bool Contains(const AttrSet& set, std::size_t attr) {
  return std::find(set.begin(), set.end(), attr) != set.end();
}

}  // namespace

Matrix HelmertBasis(std::size_t d) {
  Matrix b(d, d);
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(d));
  for (std::size_t i = 0; i < d; ++i) b(i, 0) = inv_sqrt_d;
  for (std::size_t j = 1; j < d; ++j) {
    const double denom = std::sqrt(static_cast<double>(j) * (j + 1));
    for (std::size_t i = 0; i < j; ++i) b(i, j) = 1.0 / denom;
    b(j, j) = -static_cast<double>(j) / denom;
  }
  return b;
}

MarginalsWorkload::MarginalsWorkload(Domain domain, std::vector<AttrSet> sets,
                                     Flavor flavor)
    : Workload(std::move(domain)), sets_(std::move(sets)), flavor_(flavor) {
  DPMM_CHECK_GT(sets_.size(), 0u);
  for (auto& s : sets_) {
    std::sort(s.begin(), s.end());
    DPMM_CHECK_MSG(std::adjacent_find(s.begin(), s.end()) == s.end(),
                   "duplicate attribute in marginal set");
    for (std::size_t a : s) DPMM_CHECK_LT(a, domain_.num_attributes());
  }
}

MarginalsWorkload MarginalsWorkload::AllKWay(const Domain& domain,
                                             std::size_t way, Flavor flavor) {
  return MarginalsWorkload(domain,
                           AllSubsetsOfSize(domain.num_attributes(), way),
                           flavor);
}

std::size_t MarginalsWorkload::num_queries() const {
  std::size_t m = 0;
  for (const auto& set : sets_) {
    std::size_t per = 1;
    for (std::size_t a : set) {
      per *= (flavor_ == Flavor::kMarginal) ? domain_.size(a)
                                            : gram::NumRanges1D(domain_.size(a));
    }
    m += per;
  }
  return m;
}

std::string MarginalsWorkload::Name() const {
  std::ostringstream oss;
  oss << (flavor_ == Flavor::kMarginal ? "Marginals" : "RangeMarginals") << "{";
  for (std::size_t s = 0; s < sets_.size(); ++s) {
    if (s) oss << ",";
    oss << "(";
    for (std::size_t i = 0; i < sets_[s].size(); ++i) {
      if (i) oss << " ";
      oss << sets_[s][i];
    }
    oss << ")";
  }
  oss << "} " << domain_.ToString();
  return oss.str();
}

std::optional<linalg::SumKronGram> MarginalsWorkload::StructuredGramImpl(
    bool normalized) const {
  std::vector<linalg::KronGram> terms;
  terms.reserve(sets_.size());
  for (const auto& set : sets_) {
    std::vector<Matrix> factors;
    factors.reserve(domain_.num_attributes());
    for (std::size_t a = 0; a < domain_.num_attributes(); ++a) {
      const std::size_t d = domain_.size(a);
      if (Contains(set, a)) {
        if (flavor_ == Flavor::kMarginal) {
          factors.push_back(Matrix::Identity(d));
        } else {
          factors.push_back(normalized ? gram::NormalizedAllRange1D(d)
                                       : gram::AllRange1D(d));
        }
      } else {
        Matrix j = gram::Ones(d);
        if (normalized) j.Scale(1.0 / static_cast<double>(d));
        factors.push_back(std::move(j));
      }
    }
    terms.push_back(linalg::KronGram(std::move(factors)));
  }
  return linalg::SumKronGram(std::move(terms));
}

std::optional<linalg::KronEigenResult> MarginalsWorkload::ImplicitEigenImpl(
    bool normalized) const {
  if (!HasAnalyticEigen()) return std::nullopt;
  const std::size_t k = domain_.num_attributes();
  std::vector<Matrix> bases;
  bases.reserve(k);
  for (std::size_t a = 0; a < k; ++a) {
    bases.push_back(HelmertBasis(domain_.size(a)));
  }
  linalg::KronEigenResult out;
  out.basis = linalg::KronEigenBasis(std::move(bases));
  // Eigenvalue of the column with per-attribute Helmert indices (j_1..j_k):
  // sum over sets T of prod_{a not in T} w_a * [j_a == 0], where w_a = d_a
  // for the plain Gram and 1 for the row-normalized Gram (the 1/d_a row
  // scaling cancels the J eigenvalue d_a exactly).
  const std::size_t n = num_cells();
  out.values.assign(n, 0.0);
  for (std::size_t col = 0; col < n; ++col) {
    const auto multi = domain_.MultiIndex(col);
    double v = 0;
    for (const auto& set : sets_) {
      double term = 1;
      for (std::size_t a = 0; a < k; ++a) {
        if (Contains(set, a)) continue;
        if (multi[a] != 0) {
          term = 0;
          break;
        }
        if (!normalized) term *= static_cast<double>(domain_.size(a));
      }
      v += term;
    }
    out.values[col] = v;
  }
  return out;
}

Matrix MarginalsWorkload::GramWithScales(bool normalized) const {
  return StructuredGram(normalized)->Dense();
}

Matrix MarginalsWorkload::Gram() const { return GramWithScales(false); }

Matrix MarginalsWorkload::NormalizedGram() const {
  return GramWithScales(true);
}

double MarginalsWorkload::L2Sensitivity() const {
  if (flavor_ == Flavor::kMarginal) {
    // Every tuple contributes to exactly one cell of each marginal.
    return std::sqrt(static_cast<double>(sets_.size()));
  }
  // Range marginal: per set, the per-dimension coverage counts are maximized
  // simultaneously at the middle cell of each margin.
  double sens2 = 0;
  for (const auto& set : sets_) {
    double per = 1;
    for (std::size_t a : set) {
      const std::size_t d = domain_.size(a);
      double mx = 0;
      for (std::size_t i = 0; i < d; ++i) {
        mx = std::max(mx, static_cast<double>((i + 1) * (d - i)));
      }
      per *= mx;
    }
    sens2 += per;
  }
  return std::sqrt(sens2);
}

Vector MarginalsWorkload::Answer(const Vector& x) const {
  DPMM_CHECK_EQ(x.size(), num_cells());
  Vector out;
  out.reserve(num_queries());
  for (const auto& set : sets_) {
    std::vector<Matrix> factors;
    for (std::size_t a = 0; a < domain_.num_attributes(); ++a) {
      const std::size_t d = domain_.size(a);
      if (Contains(set, a)) {
        factors.push_back(flavor_ == Flavor::kMarginal
                              ? Matrix::Identity(d)
                              : builders::AllRangeMatrix1D(d));
      } else {
        Matrix ones_row(1, d);
        for (std::size_t j = 0; j < d; ++j) ones_row(0, j) = 1.0;
        factors.push_back(std::move(ones_row));
      }
    }
    Vector part = linalg::KronMatVec(factors, x);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

linalg::SymmetricEigenResult MarginalsWorkload::AnalyticEigen() const {
  DPMM_CHECK_MSG(HasAnalyticEigen(),
                 "analytic eigendecomposition requires plain marginals");
  const std::size_t n = num_cells();
  const linalg::KronEigenResult implicit = *ImplicitEigen(false);
  Matrix q = implicit.basis.Dense();
  const Vector& values = implicit.values;

  // Sort ascending to match the SymmetricEigen contract.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  linalg::SymmetricEigenResult out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = values[order[j]];
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = q(i, order[j]);
  }
  return out;
}

Matrix MarginalsWorkload::Materialize() const {
  Matrix w;
  for (const auto& set : sets_) {
    std::vector<Matrix> factors;
    for (std::size_t a = 0; a < domain_.num_attributes(); ++a) {
      const std::size_t d = domain_.size(a);
      if (Contains(set, a)) {
        factors.push_back(flavor_ == Flavor::kMarginal
                              ? Matrix::Identity(d)
                              : builders::AllRangeMatrix1D(d));
      } else {
        Matrix ones_row(1, d);
        for (std::size_t j = 0; j < d; ++j) ones_row(0, j) = 1.0;
        factors.push_back(std::move(ones_row));
      }
    }
    w = w.VStack(linalg::KronList(factors));
  }
  return w;
}

}  // namespace dpmm
