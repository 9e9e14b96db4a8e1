// Kronecker products. Multi-dimensional workloads, strategies and Gram
// matrices in the paper are all Kronecker combinations of one-dimensional
// building blocks (multi-dim all-range = kron of 1D all-range, marginal
// Gram = sum of krons of I and J, wavelet/hierarchical strategies = krons of
// per-dimension transforms).
#ifndef DPMM_LINALG_KRONECKER_H_
#define DPMM_LINALG_KRONECKER_H_

#include <vector>

#include "linalg/matrix.h"

namespace dpmm {
namespace linalg {

/// Kronecker product A (x) B.
Matrix Kron(const Matrix& a, const Matrix& b);

/// Kronecker product of a list of factors, left to right:
/// factors[0] (x) factors[1] (x) ... Requires a non-empty list.
Matrix KronList(const std::vector<Matrix>& factors);

/// y = (A_1 (x) ... (x) A_k) x without materializing the product, using the
/// vec-trick (each factor applied along its own axis), over `batch` vectors
/// held column-interleaved: element i of vector b sits at
/// packed[i * batch + b], and the result uses the same layout. The default
/// batch of 1 is a single plain vector — the packed layout of one vector is
/// the vector itself — so this is the one axis-pass kernel for single and
/// batched applies alike. Sizes must satisfy
/// packed.size() == batch * prod(cols(A_i)).
///
/// Each element accumulates over its factor row in ascending order with
/// zero entries skipped, whatever the batch width, so every interleaved
/// vector's result is bit-identical to applying it alone; wider batches
/// only make every axis pass stream longer batch-contiguous spans (on the
/// last axis a single vector degenerates to a serial dot-product chain).
Vector KronMatVec(const std::vector<Matrix>& factors, const Vector& packed,
                  std::size_t batch = 1);

/// Scratch-reusing form of KronMatVec for hot loops (block PCG): the result
/// lands in *out (resized as needed) and *work is ping-pong scratch (grown
/// on demand, contents clobbered). Reusing the two buffers across calls
/// avoids re-faulting hundreds of megabytes of fresh allocations per
/// iteration at large n * B — the arithmetic, and therefore the bitwise
/// result, is identical to KronMatVec.
void KronMatVecInto(const std::vector<Matrix>& factors, const Vector& packed,
                    std::size_t batch, Vector* out, Vector* work);

/// Packs vectors (all the same length) into the interleaved batch layout.
Vector PackBatch(const std::vector<Vector>& vectors);

/// Inverse of PackBatch.
std::vector<Vector> UnpackBatch(const Vector& packed, std::size_t batch);

}  // namespace linalg
}  // namespace dpmm

#endif  // DPMM_LINALG_KRONECKER_H_
