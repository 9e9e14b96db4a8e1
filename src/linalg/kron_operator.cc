#include "linalg/kron_operator.h"

#include <cmath>

#include "linalg/eigen_sym.h"
#include "linalg/kronecker.h"

namespace dpmm {
namespace linalg {

namespace {

std::size_t ProductDim(const std::vector<Matrix>& factors) {
  std::size_t n = 1;
  for (const auto& f : factors) {
    DPMM_DCHECK_EQ(f.rows(), f.cols());
    DPMM_DCHECK_GT(f.rows(), 0u);
    n *= f.rows();
  }
  return n;
}

Matrix EntrywiseMap(const Matrix& m, double (*fn)(double)) {
  Matrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* src = m.RowPtr(i);
    double* dst = out.RowPtr(i);
    for (std::size_t j = 0; j < m.cols(); ++j) dst[j] = fn(src[j]);
  }
  return out;
}

}  // namespace

KronGram::KronGram(std::vector<Matrix> factors, double scale)
    : factors_(std::move(factors)), scale_(scale) {
  DPMM_DCHECK_GT(factors_.size(), 0u);
  dim_ = ProductDim(factors_);
}

Vector KronGram::MatVec(const Vector& x) const {
  Vector y = KronMatVec(factors_, x);
  if (scale_ != 1.0) ScaleVec(scale_, &y);
  return y;
}

double KronGram::Trace() const {
  double t = scale_;
  for (const auto& f : factors_) t *= f.Trace();
  return t;
}

Matrix KronGram::Dense() const {
  Matrix g = KronList(factors_);
  if (scale_ != 1.0) g.Scale(scale_);
  return g;
}

SumKronGram::SumKronGram(std::vector<KronGram> terms)
    : terms_(std::move(terms)) {
  DPMM_DCHECK_GT(terms_.size(), 0u);
  for (const auto& t : terms_) DPMM_DCHECK_EQ(t.dim(), terms_[0].dim());
}

Vector SumKronGram::MatVec(const Vector& x) const {
  Vector y = terms_[0].MatVec(x);
  for (std::size_t t = 1; t < terms_.size(); ++t) {
    Vector yt = terms_[t].MatVec(x);
    Axpy(1.0, yt, &y);
  }
  return y;
}

double SumKronGram::Trace() const {
  double t = 0;
  for (const auto& term : terms_) t += term.Trace();
  return t;
}

Matrix SumKronGram::Dense() const {
  Matrix g = terms_[0].Dense();
  for (std::size_t t = 1; t < terms_.size(); ++t) {
    Matrix gt = terms_[t].Dense();
    for (std::size_t i = 0; i < g.rows(); ++i) {
      double* gi = g.RowPtr(i);
      const double* gti = gt.RowPtr(i);
      for (std::size_t j = 0; j < g.cols(); ++j) gi[j] += gti[j];
    }
  }
  return g;
}

KronEigenBasis::KronEigenBasis(std::vector<Matrix> factors)
    : factors_(std::move(factors)),
      cache_(std::make_shared<VariantCache>()) {
  DPMM_DCHECK_GT(factors_.size(), 0u);
  dim_ = ProductDim(factors_);
}

const std::vector<Matrix>& KronEigenBasis::Transposed() const {
  std::call_once(cache_->transposed_once, [&] {
    cache_->transposed.reserve(factors_.size());
    for (const auto& f : factors_) cache_->transposed.push_back(f.Transposed());
  });
  return cache_->transposed;
}

const std::vector<Matrix>& KronEigenBasis::Squared() const {
  std::call_once(cache_->squared_once, [&] {
    cache_->squared.reserve(factors_.size());
    for (const auto& f : factors_) {
      cache_->squared.push_back(EntrywiseMap(f, [](double v) { return v * v; }));
    }
  });
  return cache_->squared;
}

const std::vector<Matrix>& KronEigenBasis::SquaredTransposed() const {
  std::call_once(cache_->squared_t_once, [&] {
    const std::vector<Matrix>& sq = Squared();
    cache_->squared_transposed.reserve(sq.size());
    for (const auto& s : sq) {
      cache_->squared_transposed.push_back(s.Transposed());
    }
  });
  return cache_->squared_transposed;
}

const std::vector<Matrix>& KronEigenBasis::Abs() const {
  std::call_once(cache_->abs_once, [&] {
    cache_->abs.reserve(factors_.size());
    for (const auto& f : factors_) {
      cache_->abs.push_back(EntrywiseMap(f, [](double v) { return std::fabs(v); }));
    }
  });
  return cache_->abs;
}

Vector KronEigenBasis::Apply(const Vector& x, std::size_t batch) const {
  return KronMatVec(factors_, x, batch);
}

Vector KronEigenBasis::ApplyT(const Vector& x, std::size_t batch) const {
  return KronMatVec(Transposed(), x, batch);
}

Vector KronEigenBasis::ApplySquared(const Vector& x) const {
  return KronMatVec(Squared(), x);
}

Vector KronEigenBasis::ApplySquaredT(const Vector& x) const {
  return KronMatVec(SquaredTransposed(), x);
}

Vector KronEigenBasis::ApplyAbs(const Vector& x) const {
  return KronMatVec(Abs(), x);
}

void KronEigenBasis::ApplyInto(const Vector& packed, std::size_t batch,
                               Vector* out, Vector* work) const {
  KronMatVecInto(factors_, packed, batch, out, work);
}

void KronEigenBasis::ApplyTInto(const Vector& packed, std::size_t batch,
                                Vector* out, Vector* work) const {
  KronMatVecInto(Transposed(), packed, batch, out, work);
}

double KronEigenBasis::Entry(std::size_t row, std::size_t col) const {
  double v = 1.0;
  // Factor k-1 varies fastest in the row-major linearization.
  for (std::size_t i = factors_.size(); i-- > 0;) {
    const Matrix& f = factors_[i];
    const std::size_t d = f.rows();
    v *= f(row % d, col % d);
    row /= d;
    col /= d;
  }
  return v;
}

Vector KronEigenBasis::Column(std::size_t col) const {
  Vector e(dim_, 0.0);
  e[col] = 1.0;
  return Apply(e);
}

Matrix KronEigenBasis::Dense() const { return KronList(factors_); }

Result<KronEigenResult> FactorKronEigen(const KronGram& gram) {
  std::vector<Matrix> vectors;
  std::vector<Vector> factor_values;
  vectors.reserve(gram.num_factors());
  factor_values.reserve(gram.num_factors());
  for (const auto& f : gram.factors()) {
    auto eig = SymmetricEigen(f);
    if (!eig.ok()) return eig.status();
    SymmetricEigenResult r = std::move(eig).ValueOrDie();
    factor_values.push_back(std::move(r.values));
    vectors.push_back(std::move(r.vectors));
  }
  KronEigenResult out;
  out.basis = KronEigenBasis(std::move(vectors));
  const std::size_t n = out.basis.dim();
  // values[j] = scale * prod_i factor_values[i][j_i], row-major multi-index.
  out.values.assign(n, gram.scale());
  std::size_t block = n;
  for (const auto& vals : factor_values) {
    const std::size_t d = vals.size();
    block /= d;
    for (std::size_t j = 0; j < n; ++j) {
      out.values[j] *= vals[(j / block) % d];
    }
  }
  return out;
}

}  // namespace linalg
}  // namespace dpmm
