#include "linalg/kronecker.h"

#include "util/threading.h"

namespace dpmm {
namespace linalg {

Matrix Kron(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows() * b.rows(), a.cols() * b.cols());
  ParallelFor(0, a.rows(), 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t ia = lo; ia < hi; ++ia) {
      for (std::size_t ib = 0; ib < b.rows(); ++ib) {
        double* orow = out.RowPtr(ia * b.rows() + ib);
        const double* brow = b.RowPtr(ib);
        const double* arow = a.RowPtr(ia);
        for (std::size_t ja = 0; ja < a.cols(); ++ja) {
          const double av = arow[ja];
          if (av == 0.0) continue;
          double* dst = orow + ja * b.cols();
          for (std::size_t jb = 0; jb < b.cols(); ++jb) dst[jb] += av * brow[jb];
        }
      }
    }
  });
  return out;
}

Matrix KronList(const std::vector<Matrix>& factors) {
  DPMM_DCHECK_GT(factors.size(), 0u);
  Matrix out = factors[0];
  for (std::size_t i = 1; i < factors.size(); ++i) out = Kron(out, factors[i]);
  return out;
}

namespace {

// One axis pass of the vec-trick: dst = (I (x) F (x) I) src with the batch
// as an extra trailing axis (every logical element widens to `batch`
// adjacent entries; batch 1 is a single vector). Each element accumulates
// over ci in ascending order, skipping zero factor entries, whatever the
// batch width, so each interleaved vector gets the bits it would get alone.
void BatchedAxisPass(const Matrix& f, const Vector& src_vec,
                     std::size_t outer, std::size_t stride, std::size_t batch,
                     Vector* dst_vec) {
  const std::size_t c = f.cols();
  const std::size_t r = f.rows();
  const std::size_t mem_stride = stride * batch;
  // Each outer block is the matmul F * X with X of shape c x mem_stride.
  // For wide spans (early axes at large n * B) the c x mem_stride source
  // block no longer fits in cache, so the span is tiled: the tile is sized
  // so the c x tile source block (re-read once per output row) plus the
  // r x tile output block stay L2-resident (~1 MiB budget) across the
  // whole ri/ci double loop, while spans stay at least 64 elements wide so
  // the inner loop keeps vectorizing. Tiling only reorders work across
  // elements, never within one element's ci accumulation, so bit-identity
  // per vector is unaffected.
  const std::size_t budget = (std::size_t{1} << 20) / ((c + r) * 8);
  const std::size_t tile =
      std::min(mem_stride, std::max<std::size_t>(budget, 64));
  const std::size_t tiles_per_span = (mem_stride + tile - 1) / tile;

  dst_vec->assign(outer * r * mem_stride, 0.0);
  const double* cur = src_vec.data();
  double* next = dst_vec->data();
  constexpr std::size_t kMinFlops = std::size_t{1} << 16;
  const std::size_t per_task = std::max<std::size_t>(r * c * tile, 1);
  ParallelFor(
      0, outer * tiles_per_span, std::max<std::size_t>(1, kMinFlops / per_task),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const std::size_t o = idx / tiles_per_span;
          const std::size_t ti = idx % tiles_per_span;
          const std::size_t t0 = ti * tile;
          const std::size_t t1 = std::min(mem_stride, t0 + tile);
          const double* in_block = cur + o * c * mem_stride;
          double* out_block = next + o * r * mem_stride;
          // Four output rows share each source slice read (register
          // blocking): the slice is loaded once instead of once per row,
          // which is what keeps the pass compute-bound instead of
          // L2-bandwidth-bound. Each element still accumulates over ci in
          // ascending order, so per-vector bit-identity is preserved; rows
          // with zero factor entries fall back to the per-row loop to keep
          // the zero-skip semantics exactly.
          std::size_t ri = 0;
          for (; ri + 4 <= r; ri += 4) {
            const double* fr0 = f.RowPtr(ri);
            const double* fr1 = f.RowPtr(ri + 1);
            const double* fr2 = f.RowPtr(ri + 2);
            const double* fr3 = f.RowPtr(ri + 3);
            double* d0 = out_block + (ri + 0) * mem_stride;
            double* d1 = out_block + (ri + 1) * mem_stride;
            double* d2 = out_block + (ri + 2) * mem_stride;
            double* d3 = out_block + (ri + 3) * mem_stride;
            for (std::size_t ci = 0; ci < c; ++ci) {
              const double v0 = fr0[ci], v1 = fr1[ci];
              const double v2 = fr2[ci], v3 = fr3[ci];
              const double* src = in_block + ci * mem_stride;
              if (v0 != 0.0 && v1 != 0.0 && v2 != 0.0 && v3 != 0.0) {
                for (std::size_t s = t0; s < t1; ++s) {
                  const double sv = src[s];
                  d0[s] += v0 * sv;
                  d1[s] += v1 * sv;
                  d2[s] += v2 * sv;
                  d3[s] += v3 * sv;
                }
              } else {
                if (v0 != 0.0) {
                  for (std::size_t s = t0; s < t1; ++s) d0[s] += v0 * src[s];
                }
                if (v1 != 0.0) {
                  for (std::size_t s = t0; s < t1; ++s) d1[s] += v1 * src[s];
                }
                if (v2 != 0.0) {
                  for (std::size_t s = t0; s < t1; ++s) d2[s] += v2 * src[s];
                }
                if (v3 != 0.0) {
                  for (std::size_t s = t0; s < t1; ++s) d3[s] += v3 * src[s];
                }
              }
            }
          }
          for (; ri < r; ++ri) {
            const double* frow = f.RowPtr(ri);
            double* dst = out_block + ri * mem_stride;
            for (std::size_t ci = 0; ci < c; ++ci) {
              const double fv = frow[ci];
              if (fv == 0.0) continue;
              const double* src = in_block + ci * mem_stride;
              for (std::size_t s = t0; s < t1; ++s) {
                dst[s] += fv * src[s];
              }
            }
          }
        }
      });
}

}  // namespace

void KronMatVecInto(const std::vector<Matrix>& factors, const Vector& packed,
                    std::size_t batch, Vector* out, Vector* work) {
  DPMM_DCHECK_GT(factors.size(), 0u);
  DPMM_DCHECK_GT(batch, 0u);
  DPMM_DCHECK(out != work);
  DPMM_DCHECK(&packed != out);
  DPMM_DCHECK(&packed != work);
  std::size_t expected = 1;
  for (const auto& f : factors) expected *= f.cols();
  DPMM_DCHECK_EQ(packed.size(), expected * batch);

  std::vector<std::size_t> dims(factors.size());
  for (std::size_t i = 0; i < factors.size(); ++i) dims[i] = factors[i].cols();

  const std::size_t k = factors.size();
  for (std::size_t axis = 0; axis < k; ++axis) {
    std::size_t outer = 1;
    for (std::size_t i = 0; i < axis; ++i) outer *= dims[i];
    std::size_t stride = 1;
    for (std::size_t i = axis + 1; i < dims.size(); ++i) stride *= dims[i];
    // Ping-pong between *out and *work, phased so the last pass lands in
    // *out; the first pass reads `packed` directly (no input copy). A pass
    // may overwrite a buffer from two passes back — its contents were
    // consumed by the pass in between.
    Vector* dst = (k - 1 - axis) % 2 == 0 ? out : work;
    const Vector& src = axis == 0 ? packed
                        : (k - axis) % 2 == 0 ? *out
                                              : *work;
    BatchedAxisPass(factors[axis], src, outer, stride, batch, dst);
    dims[axis] = factors[axis].rows();
  }
}

Vector KronMatVec(const std::vector<Matrix>& factors, const Vector& packed,
                  std::size_t batch) {
  Vector out, work;
  KronMatVecInto(factors, packed, batch, &out, &work);
  return out;
}

Vector PackBatch(const std::vector<Vector>& vectors) {
  DPMM_DCHECK_GT(vectors.size(), 0u);
  const std::size_t batch = vectors.size();
  const std::size_t n = vectors[0].size();
  for (const auto& v : vectors) DPMM_DCHECK_EQ(v.size(), n);
  Vector packed(n * batch);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = packed.data() + i * batch;
    for (std::size_t b = 0; b < batch; ++b) row[b] = vectors[b][i];
  }
  return packed;
}

std::vector<Vector> UnpackBatch(const Vector& packed, std::size_t batch) {
  DPMM_DCHECK_GT(batch, 0u);
  DPMM_DCHECK_EQ(packed.size() % batch, 0u);
  const std::size_t n = packed.size() / batch;
  std::vector<Vector> out(batch, Vector(n));
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = packed.data() + i * batch;
    for (std::size_t b = 0; b < batch; ++b) out[b][i] = row[b];
  }
  return out;
}

}  // namespace linalg
}  // namespace dpmm
