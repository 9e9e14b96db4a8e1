#include "strategy/strategy.h"

#include <mutex>
#include <optional>

#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/svd.h"
#include "util/threading.h"

namespace dpmm {

const char* StrategyEngineName(StrategyEngine engine) {
  return engine == StrategyEngine::kDense ? "dense" : "kron";
}

struct Strategy::NormalCache {
  std::once_flag once;
  std::optional<linalg::Cholesky> chol;  // A^T A = L L^T when SPD
  linalg::Matrix gram_pinv;              // (A^T A)^+ otherwise
};

std::shared_ptr<Strategy::NormalCache> Strategy::MakeNormalCache() {
  return std::make_shared<NormalCache>();
}

linalg::Matrix Strategy::Gram() const { return linalg::Gram(a_); }

linalg::Vector Strategy::Apply(const linalg::Vector& x) const {
  DPMM_CHECK_EQ(x.size(), num_cells());
  return linalg::MatVec(a_, x);
}

linalg::Vector Strategy::ApplyT(const linalg::Vector& y) const {
  DPMM_CHECK_EQ(y.size(), num_queries());
  return linalg::MatTVec(a_, y);
}

const Strategy::NormalCache& Strategy::Factorization() const {
  // Benign without analysis: the cache is written only by the call_once
  // winner and read only after call_once returns (see strategy.h).
  std::call_once(cache_->once, [this] {
    auto chol = linalg::Cholesky::Factor(Gram());
    if (chol.ok()) {
      cache_->chol = std::move(chol).ValueOrDie();
    } else {
      const linalg::Matrix pinv = linalg::PseudoInverse(a_);
      cache_->gram_pinv = linalg::MatMulNT(pinv, pinv);
    }
  });
  return *cache_;
}

linalg::Vector Strategy::SolveNormalImpl(const linalg::Vector& b,
                                         double /*rel_tol*/) const {
  DPMM_CHECK_EQ(b.size(), num_cells());
  const NormalCache& f = Factorization();
  return f.chol.has_value() ? f.chol->Solve(b)
                            : linalg::MatVec(f.gram_pinv, b);
}

std::vector<linalg::Vector> Strategy::SolveNormalBatchImpl(
    const std::vector<linalg::Vector>& bs, double rel_tol) const {
  Factorization();
  std::vector<linalg::Vector> out(bs.size());
  ParallelFor(0, bs.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      out[k] = SolveNormalImpl(bs[k], rel_tol);
    }
  });
  return out;
}

Strategy IdentityStrategy(std::size_t n) {
  return Strategy(linalg::Matrix::Identity(n), "Identity");
}

}  // namespace dpmm
