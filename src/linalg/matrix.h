// Dense row-major matrix and vector primitives. This is the substrate for
// everything in the library: workloads, strategies, the mechanism's least-
// squares inference and the eigen-design optimization.
#ifndef DPMM_LINALG_MATRIX_H_
#define DPMM_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "util/logging.h"

namespace dpmm {
namespace linalg {

/// Column vector of doubles. Free functions below provide the usual
/// BLAS-1 operations.
using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Builds a matrix from nested initializer lists (test/doc convenience).
  static Matrix FromRows(
      std::initializer_list<std::initializer_list<double>> rows);

  /// n x n identity.
  static Matrix Identity(std::size_t n);

  /// Diagonal matrix from the given entries.
  static Matrix Diagonal(const Vector& diag);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  double* RowPtr(std::size_t i) { return data_.data() + i * cols_; }
  const double* RowPtr(std::size_t i) const { return data_.data() + i * cols_; }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Returns row i as a vector.
  Vector Row(std::size_t i) const;
  /// Returns column j as a vector.
  Vector Col(std::size_t j) const;
  /// Overwrites row i.
  void SetRow(std::size_t i, const Vector& v);

  Matrix Transposed() const;

  /// Stacks `bottom` below this matrix (column counts must agree).
  Matrix VStack(const Matrix& bottom) const;

  /// Scales all entries in place.
  void Scale(double s);

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Maximum absolute entry difference against another matrix (for tests).
  double MaxAbsDiff(const Matrix& other) const;

  /// L2 norm of column j.
  double ColNorm(std::size_t j) const;

  /// Maximum column L2 norm == the L2 sensitivity of a query matrix
  /// (Prop. 1 of the paper).
  double MaxColNorm() const;

  /// Maximum column L1 norm == the L1 sensitivity of a query matrix.
  double MaxColAbsSum() const;

  /// Sum of diagonal entries; requires a square matrix.
  double Trace() const;

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

// ---- BLAS-1 style vector helpers ----

double Dot(const Vector& a, const Vector& b);
double Norm2(const Vector& a);
/// y += alpha * x
void Axpy(double alpha, const Vector& x, Vector* y);
void ScaleVec(double alpha, Vector* x);
Vector Sub(const Vector& a, const Vector& b);
double MaxAbs(const Vector& a);
double SumVec(const Vector& a);

}  // namespace linalg
}  // namespace dpmm

#endif  // DPMM_LINALG_MATRIX_H_
