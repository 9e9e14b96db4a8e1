// Structured operators for Kronecker-factored Gram matrices and eigenbases.
// Every multi-dimensional workload family in the paper (multi-dim ranges,
// marginals, data cubes) has a Gram matrix that is a Kronecker product — or a
// sum of Kronecker products — of tiny per-attribute blocks. These classes
// keep that structure explicit so the eigen-design pipeline never
// materializes the dense n x n Gram or its n x n eigenvector matrix:
//
//   * KronGram       G = s * G_1 (x) ... (x) G_k, with d_i x d_i factors;
//   * SumKronGram    G = sum_t KronGram_t (marginal workloads, Example 3);
//   * KronEigenBasis Q = Q_1 (x) ... (x) Q_k, orthogonal, applied implicitly;
//   * FactorKronEigen  eigendecomposition of a KronGram from its factors:
//                      O(sum d_i^3) work instead of O((prod d_i)^3), with
//                      matvecs against Q in O(n sum d_i) via the vec-trick.
//
// Eigenvalues and basis columns use the *natural Kronecker order*: column j
// corresponds to the row-major multi-index (j_1..j_k) over the factors, and
// equals the Kronecker product of factor-eigenvector columns j_i. (The dense
// SymmetricEigen contract sorts eigenvalues ascending instead; callers that
// need sorted order keep an index permutation.)
#ifndef DPMM_LINALG_KRON_OPERATOR_H_
#define DPMM_LINALG_KRON_OPERATOR_H_

#include <memory>
#include <mutex>  // std::once_flag (sanctioned; see the call_once audit below)
#include <vector>

#include "linalg/matrix.h"
#include "util/mutex.h"
#include "util/status.h"

namespace dpmm {
namespace linalg {

/// A Kronecker product of small square symmetric factors, scaled:
/// G = scale * factors[0] (x) ... (x) factors[k-1].
class KronGram {
 public:
  KronGram() = default;
  explicit KronGram(std::vector<Matrix> factors, double scale = 1.0);

  std::size_t dim() const { return dim_; }
  std::size_t num_factors() const { return factors_.size(); }
  const std::vector<Matrix>& factors() const { return factors_; }
  double scale() const { return scale_; }

  /// G x without materializing G: O(n sum d_i).
  Vector MatVec(const Vector& x) const;

  /// trace(G) = scale * prod trace(G_i).
  double Trace() const;

  /// Dense n x n form (tests / small domains only).
  Matrix Dense() const;

 private:
  std::vector<Matrix> factors_;
  double scale_ = 1.0;
  std::size_t dim_ = 0;
};

/// A sum of Kronecker products over a common dimension — the Gram shape of
/// marginal workloads (sum over attribute sets of krons of I and J).
class SumKronGram {
 public:
  SumKronGram() = default;
  explicit SumKronGram(std::vector<KronGram> terms);

  std::size_t dim() const { return terms_.empty() ? 0 : terms_[0].dim(); }
  const std::vector<KronGram>& terms() const { return terms_; }

  Vector MatVec(const Vector& x) const;
  double Trace() const;
  Matrix Dense() const;

 private:
  std::vector<KronGram> terms_;
};

/// An implicit orthogonal basis Q = Q_1 (x) ... (x) Q_k with small square
/// orthogonal factors. Columns (eigenvectors) are indexed in natural
/// Kronecker order and never materialized; Apply/ApplyT cost O(n sum d_i).
/// ApplySquared applies the entrywise square Q o Q = (Q_1 o Q_1) (x) ... —
/// the constraint operator of the eigen weighting problem (Program 1) and
/// the column-norm accumulator of strategy assembly. ApplyAbs applies |Q|
/// (L1 sensitivity). The transposed/squared/abs factor variants are built
/// lazily on first use under call_once (together they are ~5x the factor
/// memory — wasteful for a basis over a single large 1D factor whose
/// caller only ever needs one variant); copies of a basis share one cache,
/// so a variant is built at most once per underlying factor set.
/// Apply/ApplyT take a batch width: B column-interleaved vectors run one
/// shared pass of the one vec-trick kernel (see KronMatVec), bit-identical
/// to B single applies; the default width 1 is a single vector.
class KronEigenBasis {
 public:
  KronEigenBasis() = default;
  explicit KronEigenBasis(std::vector<Matrix> factors);

  std::size_t dim() const { return dim_; }
  std::size_t num_factors() const { return factors_.size(); }
  const std::vector<Matrix>& factors() const { return factors_; }

  /// Q x over `batch` interleaved vectors (layout of KronMatVec).
  Vector Apply(const Vector& x, std::size_t batch = 1) const;
  /// Q^T x over `batch` interleaved vectors.
  Vector ApplyT(const Vector& x, std::size_t batch = 1) const;
  Vector ApplySquared(const Vector& x) const;   // (Q o Q) x
  Vector ApplySquaredT(const Vector& x) const;  // (Q o Q)^T x
  Vector ApplyAbs(const Vector& x) const;       // |Q| x

  /// Scratch-reusing forms for hot loops (see KronMatVecInto): the result
  /// lands in *out, *work is clobbered; both are grown on demand and
  /// amortize their allocations across calls. Bitwise-identical results.
  void ApplyInto(const Vector& packed, std::size_t batch, Vector* out,
                 Vector* work) const;
  void ApplyTInto(const Vector& packed, std::size_t batch, Vector* out,
                  Vector* work) const;

  /// Single entry Q(row, col) = prod_i Q_i(row_i, col_i): O(k).
  double Entry(std::size_t row, std::size_t col) const;

  /// Materializes one basis column (length n).
  Vector Column(std::size_t col) const;

  /// Dense n x n form (tests / small domains only).
  Matrix Dense() const;

 private:
  // Lazily built factor variants, shared across copies (immutable once
  // built; call_once gives the thread-safe once-semantics).
  struct VariantCache {
    std::once_flag transposed_once, squared_once, squared_t_once, abs_once;
    std::vector<Matrix> transposed, squared, squared_transposed, abs;
  };
  // Lock-discipline audit (call_once site 2/3): each variant is written
  // exactly once inside std::call_once on its own flag and read only after
  // that call_once returns (which synchronizes-with the initializer), so
  // the accesses are race-free without a Mutex. SquaredTransposed's
  // initializer calls Squared() — distinct flags, strictly nested, never
  // cyclic, so there is no once-flag deadlock either. The analyzer cannot
  // model once_flag, hence the suppressions.
  const std::vector<Matrix>& Transposed() const DPMM_NO_THREAD_SAFETY_ANALYSIS;
  const std::vector<Matrix>& Squared() const DPMM_NO_THREAD_SAFETY_ANALYSIS;
  const std::vector<Matrix>& SquaredTransposed() const
      DPMM_NO_THREAD_SAFETY_ANALYSIS;
  const std::vector<Matrix>& Abs() const DPMM_NO_THREAD_SAFETY_ANALYSIS;

  std::vector<Matrix> factors_;
  // Never null, even default-constructed: variant accessors on an empty
  // basis must reach the factors-size CHECK, not a null dereference.
  std::shared_ptr<VariantCache> cache_ = std::make_shared<VariantCache>();
  std::size_t dim_ = 0;
};

/// Factored eigendecomposition of a KronGram: G = Q diag(values) Q^T with
/// `values` in natural Kronecker order (values[j] = scale * prod of factor
/// eigenvalues at the multi-index of j) and Q held implicitly.
struct KronEigenResult {
  Vector values;
  KronEigenBasis basis;
};

/// Eigendecomposes each d_i x d_i factor independently — O(sum d_i^3) — and
/// composes the result. Fails only if a factor eigensolve fails.
Result<KronEigenResult> FactorKronEigen(const KronGram& gram);

}  // namespace linalg
}  // namespace dpmm

#endif  // DPMM_LINALG_KRON_OPERATOR_H_
