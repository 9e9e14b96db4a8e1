#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace dpmm {
namespace linalg {

Matrix Matrix::FromRows(
    std::initializer_list<std::initializer_list<double>> rows) {
  const std::size_t r = rows.size();
  DPMM_DCHECK_GT(r, 0u);
  const std::size_t c = rows.begin()->size();
  Matrix m(r, c);
  std::size_t i = 0;
  for (const auto& row : rows) {
    DPMM_DCHECK_EQ(row.size(), c);
    std::size_t j = 0;
    for (double v : row) m(i, j++) = v;
    ++i;
  }
  return m;
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& diag) {
  Matrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

Vector Matrix::Row(std::size_t i) const {
  DPMM_DCHECK_LT(i, rows_);
  return Vector(RowPtr(i), RowPtr(i) + cols_);
}

Vector Matrix::Col(std::size_t j) const {
  DPMM_DCHECK_LT(j, cols_);
  Vector v(rows_);
  for (std::size_t i = 0; i < rows_; ++i) v[i] = (*this)(i, j);
  return v;
}

void Matrix::SetRow(std::size_t i, const Vector& v) {
  DPMM_DCHECK_LT(i, rows_);
  DPMM_DCHECK_EQ(v.size(), cols_);
  std::copy(v.begin(), v.end(), RowPtr(i));
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  // Blocked transpose for cache friendliness on large inputs.
  constexpr std::size_t kBlock = 32;
  for (std::size_t bi = 0; bi < rows_; bi += kBlock) {
    const std::size_t ei = std::min(rows_, bi + kBlock);
    for (std::size_t bj = 0; bj < cols_; bj += kBlock) {
      const std::size_t ej = std::min(cols_, bj + kBlock);
      for (std::size_t i = bi; i < ei; ++i) {
        for (std::size_t j = bj; j < ej; ++j) t(j, i) = (*this)(i, j);
      }
    }
  }
  return t;
}

Matrix Matrix::VStack(const Matrix& bottom) const {
  if (empty()) return bottom;
  if (bottom.empty()) return *this;
  DPMM_DCHECK_EQ(cols_, bottom.cols());
  Matrix out(rows_ + bottom.rows(), cols_);
  std::copy(data_.begin(), data_.end(), out.data());
  std::copy(bottom.data(), bottom.data() + bottom.rows() * cols_,
            out.data() + rows_ * cols_);
  return out;
}

void Matrix::Scale(double s) {
  for (auto& v : data_) v *= s;
}

double Matrix::FrobeniusNorm() const {
  double s = 0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  DPMM_DCHECK_EQ(rows_, other.rows());
  DPMM_DCHECK_EQ(cols_, other.cols());
  double mx = 0;
  for (std::size_t k = 0; k < data_.size(); ++k) {
    mx = std::max(mx, std::fabs(data_[k] - other.data_[k]));
  }
  return mx;
}

double Matrix::ColNorm(std::size_t j) const {
  DPMM_DCHECK_LT(j, cols_);
  double s = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    const double v = (*this)(i, j);
    s += v * v;
  }
  return std::sqrt(s);
}

double Matrix::MaxColNorm() const {
  Vector sq(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    for (std::size_t j = 0; j < cols_; ++j) sq[j] += row[j] * row[j];
  }
  double mx = 0;
  for (double v : sq) mx = std::max(mx, v);
  return std::sqrt(mx);
}

double Matrix::MaxColAbsSum() const {
  Vector s(cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    for (std::size_t j = 0; j < cols_; ++j) s[j] += std::fabs(row[j]);
  }
  double mx = 0;
  for (double v : s) mx = std::max(mx, v);
  return mx;
}

double Matrix::Trace() const {
  DPMM_DCHECK_EQ(rows_, cols_);
  double s = 0;
  for (std::size_t i = 0; i < rows_; ++i) s += (*this)(i, i);
  return s;
}

double Dot(const Vector& a, const Vector& b) {
  DPMM_DCHECK_EQ(a.size(), b.size());
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Norm2(const Vector& a) { return std::sqrt(Dot(a, a)); }

void Axpy(double alpha, const Vector& x, Vector* y) {
  DPMM_DCHECK_EQ(x.size(), y->size());
  for (std::size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

void ScaleVec(double alpha, Vector* x) {
  for (auto& v : *x) v *= alpha;
}

Vector Sub(const Vector& a, const Vector& b) {
  DPMM_DCHECK_EQ(a.size(), b.size());
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

double MaxAbs(const Vector& a) {
  double mx = 0;
  for (double v : a) mx = std::max(mx, std::fabs(v));
  return mx;
}

double SumVec(const Vector& a) {
  double s = 0;
  for (double v : a) s += v;
  return s;
}

}  // namespace linalg
}  // namespace dpmm
