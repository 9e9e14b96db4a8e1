// BLAS-2/3 style kernels: threaded, cache-blocked matrix multiply and Gram
// products. These dominate the runtime of the eigen-design pipeline
// (tridiagonalization, Gram construction, error evaluation), so they are the
// one place in the library where we trade simplicity for performance.
#ifndef DPMM_LINALG_BLAS_H_
#define DPMM_LINALG_BLAS_H_

#include "linalg/matrix.h"

namespace dpmm {
namespace linalg {

/// C = A * B.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A * B^T.
Matrix MatMulNT(const Matrix& a, const Matrix& b);

/// Gram product A^T A (symmetric; only this product is needed for workload
/// and strategy analysis).
Matrix Gram(const Matrix& a);

/// y = A x.
Vector MatVec(const Matrix& a, const Vector& x);

/// y = A^T x.
Vector MatTVec(const Matrix& a, const Vector& x);

}  // namespace linalg
}  // namespace dpmm

#endif  // DPMM_LINALG_BLAS_H_
