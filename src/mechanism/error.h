// Analytic workload error of the matrix mechanism (Prop. 4):
//
//   Error_A(W)^2  =  P(eps, delta) * ||A||_2^2 * trace(W^T W (A^T A)^{-1})
//
// with an explicit choice of reporting convention. The paper's Def. 5
// divides the summed squared error by m (per-query RMSE) while Prop. 4 and
// the printed Example-4 numbers do not; Example 4 additionally uses
// P = log2(2/delta)/eps^2 (verified against the published 45.36 / 34.62 /
// 29.79 / 29.18). All cross-strategy ratios are convention-invariant.

#ifndef DPMM_MECHANISM_ERROR_H_
#define DPMM_MECHANISM_ERROR_H_

#include <functional>

#include "linalg/matrix.h"
#include "mechanism/privacy.h"
#include "strategy/kron_strategy.h"
#include "strategy/strategy.h"
#include "workload/workload.h"

namespace dpmm {

enum class ErrorConvention {
  kPerQuery,        // Def. 5: sqrt(mean squared query error)
  kTotal,           // Prop. 4: sqrt(summed squared query error)
  kLegacyExample4,  // kTotal with P = log2(2/delta)/eps^2 (paper's printout)
};

struct ErrorOptions {
  PrivacyParams privacy;
  ErrorConvention convention = ErrorConvention::kPerQuery;
};

/// The multiplicative noise-variance factor P(eps, delta) under the given
/// convention.
double PFactor(const ErrorOptions& opts);

/// Assembles Prop. 4 from its parts: sqrt(P * sens^2 * trace), divided by
/// the query count under the per-query convention. The single source of the
/// error formula for the dense and implicit paths (and for callers that
/// compute the trace themselves, e.g. from a solver objective).
double ErrorFromTrace(double sensitivity, double trace_term,
                      std::size_t num_queries, const ErrorOptions& opts);

/// Rows per block of ForEachNormalSolve over a domain of `num_cells` cells:
/// as many right-hand sides as fit one 512 KiB block, capped at 32 and at
/// least one (32 up to n = 2048, 2 at n = 32^3).
std::size_t NormalSolveWidth(std::size_t num_cells);

/// The one solve loop behind every Prop. 4 quantity (error bars, served
/// roots, trace terms): solves (A^T A) z_i = row(i) for i < count through
/// a.SolveNormalBatch, one chunk of NormalSolveWidth(n) rows at a time, and
/// calls visit(i, row(i), z_i) in index order. Every z_i is bit-identical
/// to a solo a.SolveNormal, so chunking never changes a result.
void ForEachNormalSolve(
    const LinearStrategy& a, std::size_t count,
    const std::function<linalg::Vector(std::size_t)>& row,
    const std::function<void(std::size_t, const linalg::Vector&,
                             const linalg::Vector&)>& visit,
    double rel_tol = LinearStrategy::kDefaultRelTol);

/// The budget-independent Def. 5 roots sqrt(b_i (A^T A)^+ b_i^T) of `count`
/// query rows, over ForEachNormalSolve. A query's standard deviation under
/// noise scale sigma is sigma times its root.
linalg::Vector QueryRoots(
    const LinearStrategy& a, std::size_t count,
    const std::function<linalg::Vector(std::size_t)>& row);

/// trace(G_w (A^T A)^+), the strategy-dependent part of Prop. 4, as
/// sum_j (z_j)_j with z_j solved against column j of G_w by
/// ForEachNormalSolve: the error bars' solve and definition of zero. Valid
/// for rank-deficient strategies when the workload lies in their row space.
double TraceTerm(const linalg::Matrix& workload_gram, const Strategy& a);

/// Workload error of answering a workload with Gram matrix `workload_gram`
/// and m queries using strategy `a` (Prop. 4, under the chosen convention).
double StrategyError(const linalg::Matrix& workload_gram,
                     std::size_t num_queries, const Strategy& a,
                     const ErrorOptions& opts);

/// Convenience overload computing the Gram matrix from the workload.
double StrategyError(const Workload& w, const Strategy& a,
                     const ErrorOptions& opts);

/// trace(G_w (A^T A)^+) for an implicit Kronecker strategy whose eigenbasis
/// diagonalizes the workload Gram. `gram_eigenvalues` is the workload
/// spectrum in the strategy's natural Kronecker order (length num_cells, as
/// produced by Workload::ImplicitEigen). Without completion rows both
/// matrices are diagonal in the shared basis and the trace is an O(n) sum;
/// with completion rows each nonzero eigendirection takes one implicit
/// normal-equation solve through ForEachNormalSolve at rel_tol 1e-14 (exact,
/// but O(n) solves — meant for validation, not the hot path; the hot path
/// reports the pre-completion predicted objective, an upper bound since
/// completion only adds rows).
double TraceTerm(const linalg::Vector& gram_eigenvalues,
                 const KronStrategy& a);

/// Workload error of an implicit Kronecker strategy (Prop. 4), computed
/// entirely through the shared eigenbasis.
double StrategyError(const linalg::Vector& gram_eigenvalues,
                     std::size_t num_queries, const KronStrategy& a,
                     const ErrorOptions& opts);

/// Error of answering the workload directly with the Gaussian mechanism
/// (strategy = workload, no inference): every query gets independent noise
/// scaled to the workload's own sensitivity.
double GaussianBaselineError(const Workload& w, const ErrorOptions& opts);

/// Workload error under the eps-matrix mechanism (Laplace noise, L1
/// sensitivity): ||A||_1 * sqrt(P_eps * trace) with P_eps = 2 / eps^2.
double LaplaceStrategyError(const linalg::Matrix& workload_gram,
                            std::size_t num_queries, const Strategy& a,
                            double epsilon, ErrorConvention convention);

}  // namespace dpmm

#endif  // DPMM_MECHANISM_ERROR_H_
