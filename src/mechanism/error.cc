#include "mechanism/error.h"

#include <algorithm>
#include <cmath>

#include "linalg/blas.h"

namespace dpmm {

using linalg::Matrix;

double PFactor(const ErrorOptions& opts) {
  const double eps = opts.privacy.epsilon;
  const double delta = opts.privacy.delta;
  DPMM_CHECK_GT(eps, 0.0);
  DPMM_CHECK_GT(delta, 0.0);
  DPMM_CHECK_LT(delta, 1.0);
  if (opts.convention == ErrorConvention::kLegacyExample4) {
    return std::log2(2.0 / delta) / (eps * eps);
  }
  return 2.0 * std::log(2.0 / delta) / (eps * eps);
}

double ErrorFromTrace(double sensitivity, double trace_term,
                      std::size_t num_queries, const ErrorOptions& opts) {
  double err2 = PFactor(opts) * sensitivity * sensitivity * trace_term;
  if (opts.convention == ErrorConvention::kPerQuery) {
    err2 /= static_cast<double>(num_queries);
  }
  return std::sqrt(err2);
}

std::size_t NormalSolveWidth(std::size_t num_cells) {
  // One block of right-hand sides stays within this budget, so the solver's
  // working set (a few blocks) is bounded at every domain size.
  constexpr std::size_t kBlockBytes = std::size_t{512} << 10;
  const std::size_t fit =
      kBlockBytes / (sizeof(double) * std::max<std::size_t>(num_cells, 1));
  return std::clamp<std::size_t>(fit, 1, 32);
}

void ForEachNormalSolve(
    const LinearStrategy& a, std::size_t count,
    const std::function<linalg::Vector(std::size_t)>& row,
    const std::function<void(std::size_t, const linalg::Vector&,
                             const linalg::Vector&)>& visit,
    double rel_tol) {
  const std::size_t width = NormalSolveWidth(a.num_cells());
  std::vector<linalg::Vector> rows;
  for (std::size_t i0 = 0; i0 < count; i0 += width) {
    const std::size_t i1 = std::min(count, i0 + width);
    rows.clear();
    for (std::size_t i = i0; i < i1; ++i) rows.push_back(row(i));
    const std::vector<linalg::Vector> solves =
        a.SolveNormalBatch(rows, rel_tol);
    for (std::size_t i = i0; i < i1; ++i) {
      visit(i, rows[i - i0], solves[i - i0]);
    }
  }
}

linalg::Vector QueryRoots(
    const LinearStrategy& a, std::size_t count,
    const std::function<linalg::Vector(std::size_t)>& row) {
  linalg::Vector roots(count);
  ForEachNormalSolve(a, count, row,
                     [&](std::size_t i, const linalg::Vector& b,
                         const linalg::Vector& z) {
                       roots[i] = std::sqrt(std::max(0.0, linalg::Dot(b, z)));
                     });
  return roots;
}

double TraceTerm(const Matrix& workload_gram, const Strategy& a) {
  DPMM_CHECK_EQ(workload_gram.rows(), a.num_cells());
  // trace(G (A^T A)^+) = sum_j e_j^T (A^T A)^+ g_j over the columns g_j of G.
  double tr = 0;
  ForEachNormalSolve(
      a, workload_gram.cols(),
      [&](std::size_t j) { return workload_gram.Col(j); },
      [&](std::size_t j, const linalg::Vector&, const linalg::Vector& z) {
        tr += z[j];
      });
  return tr;
}

double TraceTerm(const linalg::Vector& gram_eigenvalues,
                 const KronStrategy& a) {
  DPMM_CHECK_EQ(gram_eigenvalues.size(), a.num_cells());
  if (!a.has_completion()) {
    // Shared eigenbasis: trace(G (A^T A)^+) = sum over kept j of g_j / u_j.
    double tr = 0;
    const auto& kept = a.kept();
    const auto& w = a.weights();
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const double u = w[i] * w[i];
      if (u > 0.0) tr += gram_eigenvalues[kept[i]] / u;
    }
    return tr;
  }
  // Completion rows break the diagonal structure; solve the normal
  // equations once per nonzero eigendirection: tr = sum_j g_j q_j^T M^-1 q_j.
  double max_g = 0;
  for (double g : gram_eigenvalues) max_g = std::max(max_g, g);
  std::vector<std::size_t> dirs;
  for (std::size_t j = 0; j < gram_eigenvalues.size(); ++j) {
    if (gram_eigenvalues[j] > 1e-15 * max_g) dirs.push_back(j);
  }
  // Validation-grade accuracy: the quadratic form divides by small
  // completion masses, where a 1e-10 residual would show up at ~1e-4.
  double tr = 0;
  ForEachNormalSolve(
      a, dirs.size(),
      [&](std::size_t i) { return a.basis().Column(dirs[i]); },
      [&](std::size_t i, const linalg::Vector& q, const linalg::Vector& z) {
        tr += gram_eigenvalues[dirs[i]] * linalg::Dot(q, z);
      },
      1e-14);
  return tr;
}

double StrategyError(const linalg::Vector& gram_eigenvalues,
                     std::size_t num_queries, const KronStrategy& a,
                     const ErrorOptions& opts) {
  return ErrorFromTrace(a.L2Sensitivity(), TraceTerm(gram_eigenvalues, a),
                        num_queries, opts);
}

double StrategyError(const Matrix& workload_gram, std::size_t num_queries,
                     const Strategy& a, const ErrorOptions& opts) {
  return ErrorFromTrace(a.L2Sensitivity(), TraceTerm(workload_gram, a),
                        num_queries, opts);
}

double StrategyError(const Workload& w, const Strategy& a,
                     const ErrorOptions& opts) {
  return StrategyError(w.Gram(), w.num_queries(), a, opts);
}

double GaussianBaselineError(const Workload& w, const ErrorOptions& opts) {
  // Independent noise with variance P * ||W||_2^2 on each of the m queries:
  // the trace term degenerates to the query count.
  return ErrorFromTrace(w.L2Sensitivity(),
                        static_cast<double>(w.num_queries()), w.num_queries(),
                        opts);
}

double LaplaceStrategyError(const Matrix& workload_gram,
                            std::size_t num_queries, const Strategy& a,
                            double epsilon, ErrorConvention convention) {
  const double sens = a.L1Sensitivity();
  const double tr = TraceTerm(workload_gram, a);
  const double p = 2.0 / (epsilon * epsilon);  // Laplace variance 2 b^2
  double err2 = p * sens * sens * tr;
  if (convention == ErrorConvention::kPerQuery) {
    err2 /= static_cast<double>(num_queries);
  }
  return std::sqrt(err2);
}

}  // namespace dpmm
