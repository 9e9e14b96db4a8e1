// Property tests for the Kronecker-structured fast path: the structured
// operators (KronGram / SumKronGram / KronEigenBasis), the factored
// eigendecomposition, and the implicit eigen-design + error + mechanism +
// release pipeline, all checked against the dense path on small multi-
// dimensional workloads (2D/3D all-range, marginals up to 2-way).
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/kron_operator.h"
#include "mechanism/error.h"
#include "mechanism/matrix_mechanism.h"
#include "optimize/eigen_design.h"
#include "release/release.h"
#include "strategy/kron_strategy.h"
#include "util/rng.h"
#include "workload/marginal_workloads.h"
#include "workload/range_workloads.h"

namespace dpmm {
namespace {

using linalg::Matrix;
using linalg::Vector;

Vector RandomVector(std::size_t n, Rng* rng) {
  Vector v(n);
  for (auto& x : v) x = rng->Gaussian();
  return v;
}

double MaxAbsDiff(const Vector& a, const Vector& b) {
  EXPECT_EQ(a.size(), b.size());
  double mx = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    mx = std::max(mx, std::fabs(a[i] - b[i]));
  }
  return mx;
}

const KronStrategy& AsKron(const optimize::DesignResult& design) {
  return dynamic_cast<const KronStrategy&>(*design.strategy);
}

// The kron engine's design of a structured workload, as the implicit
// strategy.
KronStrategy KronDesign(const Workload& w,
                        optimize::DesignOptions options = {}) {
  options.engine = optimize::EngineSelection::kKron;
  auto design = optimize::Design(w, options);
  EXPECT_TRUE(design.ok()) << design.status().ToString();
  return AsKron(design.ValueOrDie());
}

ErrorOptions TestErrorOptions() {
  ErrorOptions opts;
  opts.privacy = {0.5, 1e-4};
  opts.convention = ErrorConvention::kPerQuery;
  return opts;
}

// ---- Structured operators ----

TEST(KronGram, DenseMatchesWorkloadGram) {
  AllRangeWorkload w(Domain({6, 5}));
  auto kron = w.KronGramFactors(false);
  ASSERT_TRUE(kron.has_value());
  EXPECT_LT(kron->Dense().MaxAbsDiff(w.Gram()), 1e-12);
}

TEST(KronGram, NormalizedFactorsMatchNormalizedGram) {
  AllRangeWorkload w(Domain({4, 3, 3}));
  auto kron = w.KronGramFactors(true);
  ASSERT_TRUE(kron.has_value());
  EXPECT_LT(kron->Dense().MaxAbsDiff(w.NormalizedGram()), 1e-12);
}

TEST(SumKronGram, MarginalGramMatchesDense) {
  MarginalsWorkload w =
      MarginalsWorkload::AllKWay(Domain({3, 4, 2}), 2);
  auto sum = w.StructuredGram(false);
  ASSERT_TRUE(sum.has_value());
  EXPECT_LT(sum->Dense().MaxAbsDiff(w.Gram()), 1e-12);
}

TEST(KronEigenBasis, AppliesMatchDenseAndStayOrthogonal) {
  AllRangeWorkload w(Domain({5, 4}));
  auto eig = w.ImplicitEigen();
  ASSERT_TRUE(eig.has_value());
  const Matrix q = eig->basis.Dense();
  Rng rng(17);
  const Vector x = RandomVector(w.num_cells(), &rng);

  EXPECT_LT(MaxAbsDiff(eig->basis.Apply(x), linalg::MatVec(q, x)), 1e-10);
  EXPECT_LT(MaxAbsDiff(eig->basis.ApplyT(x), linalg::MatTVec(q, x)), 1e-10);
  // Q^T Q = I through the implicit applies.
  EXPECT_LT(MaxAbsDiff(eig->basis.ApplyT(eig->basis.Apply(x)), x), 1e-10);
  // Column agrees with the dense form.
  for (std::size_t j : {std::size_t{0}, std::size_t{7}}) {
    const Vector col = eig->basis.Column(j);
    for (std::size_t i = 0; i < col.size(); ++i) {
      EXPECT_NEAR(col[i], q(i, j), 1e-12);
    }
  }
}

TEST(FactorKronEigen, ReconstructsTheGram) {
  AllRangeWorkload w(Domain({4, 3, 3}));
  auto eig = w.ImplicitEigen();
  ASSERT_TRUE(eig.has_value());
  const Matrix g = w.Gram();
  // G q_j = value_j q_j for every natural-order column.
  for (std::size_t j = 0; j < w.num_cells(); ++j) {
    const Vector qj = eig->basis.Column(j);
    const Vector gq = linalg::MatVec(g, qj);
    for (std::size_t i = 0; i < qj.size(); ++i) {
      EXPECT_NEAR(gq[i], eig->values[j] * qj[i], 1e-8);
    }
  }
}

TEST(MarginalsImplicitEigen, AnalyticHelmertSpectrumIsExact) {
  MarginalsWorkload w = MarginalsWorkload::AllKWay(Domain({3, 4}), 2);
  auto eig = w.ImplicitEigen();
  ASSERT_TRUE(eig.has_value());
  const Matrix g = w.Gram();
  for (std::size_t j = 0; j < w.num_cells(); ++j) {
    const Vector qj = eig->basis.Column(j);
    const Vector gq = linalg::MatVec(g, qj);
    for (std::size_t i = 0; i < qj.size(); ++i) {
      EXPECT_NEAR(gq[i], eig->values[j] * qj[i], 1e-9);
    }
  }
  // The range flavor has no implicit eigendecomposition.
  MarginalsWorkload range_flavor = MarginalsWorkload::AllKWay(
      Domain({3, 4}), 2, MarginalsWorkload::Flavor::kRangeMarginal);
  EXPECT_FALSE(range_flavor.ImplicitEigen().has_value());
}

// ---- Implicit strategy vs dense strategy ----

// The single-vector normal solve written out over the strategy's public
// parts (basis, kept columns, weights, completion), as an independent
// reference for the block solver: the diagonal solve in the eigenbasis
// without completion rows, otherwise plain preconditioned CG with
// P = Q diag(u + tau) Q^T, the same tolerance, iteration budget and
// 50-iteration stagnation window, returning the best iterate when the last
// one is worse. The block solver must reproduce it bit for bit per column.
Vector ReferenceSolveNormal(const KronStrategy& a, const Vector& b,
                            double rel_tol = 1e-12) {
  const linalg::KronEigenBasis& q = a.basis();
  const Vector& c = a.completion();
  const std::size_t n = a.num_cells();
  Vector u(n, 0.0);
  for (std::size_t i = 0; i < a.kept().size(); ++i) {
    u[a.kept()[i]] = a.weights()[i] * a.weights()[i];
  }
  if (!a.has_completion()) {
    Vector z = q.ApplyT(b);
    for (std::size_t j = 0; j < n; ++j) z[j] = u[j] > 0.0 ? z[j] / u[j] : 0.0;
    return q.Apply(z);
  }
  double tau = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (c[j] > 0.0) tau += c[j] * c[j];
  }
  tau /= static_cast<double>(n);
  double u_max = 0;
  for (double uj : u) u_max = std::max(u_max, uj);
  tau = std::max(tau, 1e-14 * u_max);
  auto precond = [&](const Vector& r) {
    Vector z = q.ApplyT(r);
    for (std::size_t j = 0; j < n; ++j) z[j] /= (u[j] + tau);
    return q.Apply(z);
  };
  auto normal_matvec = [&](const Vector& v) {
    Vector z = q.ApplyT(v);
    for (std::size_t j = 0; j < n; ++j) z[j] *= u[j];
    Vector out = q.Apply(z);
    for (std::size_t j = 0; j < n; ++j) {
      if (c[j] > 0.0) out[j] += c[j] * c[j] * v[j];
    }
    return out;
  };

  const double b_norm2 = linalg::Dot(b, b);
  Vector x(n, 0.0);
  Vector r = b;
  Vector z = precond(r);
  Vector p = z;
  double rz = linalg::Dot(r, z);
  const double tol2 = rel_tol * rel_tol * std::max(b_norm2, 1e-300);
  const int max_iter = static_cast<int>(std::min<std::size_t>(8 * n, 20000));
  double best_r2 = b_norm2;
  Vector best_x = x;
  int since_improvement = 0;
  for (int it = 0; it < max_iter; ++it) {
    const double r2 = linalg::Dot(r, r);
    if (r2 < best_r2) {
      best_r2 = r2;
      best_x = x;
      since_improvement = 0;
    } else if (++since_improvement >= 50) {
      break;
    }
    if (r2 <= tol2) break;
    const Vector mp = normal_matvec(p);
    const double p_mp = linalg::Dot(p, mp);
    if (p_mp <= 0.0) break;
    const double alpha = rz / p_mp;
    linalg::Axpy(alpha, p, &x);
    linalg::Axpy(-alpha, mp, &r);
    z = precond(r);
    const double rz_next = linalg::Dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t j = 0; j < n; ++j) p[j] = z[j] + beta * p[j];
  }
  return linalg::Dot(r, r) <= best_r2 ? x : best_x;
}

TEST(KronStrategy, MaterializedFormMatchesImplicitOperations) {
  AllRangeWorkload w(Domain({6, 5}));
  const KronStrategy a = KronDesign(w);
  const Strategy dense = a.Materialize();
  const Matrix& am = dense.matrix();

  Rng rng(23);
  const Vector x = RandomVector(a.num_cells(), &rng);
  const Vector y = RandomVector(a.num_queries(), &rng);

  EXPECT_LT(MaxAbsDiff(a.Apply(x), linalg::MatVec(am, x)), 1e-9);
  EXPECT_LT(MaxAbsDiff(a.ApplyT(y), linalg::MatTVec(am, y)), 1e-9);

  const Matrix gram = dense.Gram();
  EXPECT_LT(MaxAbsDiff(a.ApplyT(a.Apply(x)), linalg::MatVec(gram, x)), 1e-9);
  const Vector col2 = a.ColumnNormsSquared();
  for (std::size_t j = 0; j < a.num_cells(); ++j) {
    EXPECT_NEAR(col2[j], gram(j, j), 1e-9);
  }
  EXPECT_NEAR(a.L2Sensitivity(), am.MaxColNorm(), 1e-9);
  EXPECT_NEAR(a.L1Sensitivity(), am.MaxColAbsSum(), 1e-9);
}

TEST(KronStrategy, SolveNormalMatchesCholeskyWithCompletion) {
  AllRangeWorkload w(Domain({5, 4}));
  const KronStrategy a = KronDesign(w);
  ASSERT_TRUE(a.has_completion());

  const Matrix gram = a.Materialize().Gram();
  auto chol = linalg::Cholesky::Factor(gram);
  ASSERT_TRUE(chol.ok());
  Rng rng(29);
  const Vector b = RandomVector(a.num_cells(), &rng);
  const Vector z_dense = chol.ValueOrDie().Solve(b);
  const Vector z_kron = a.SolveNormal(b);
  EXPECT_LT(MaxAbsDiff(z_kron, z_dense), 1e-8);
}

TEST(KronStrategy, SolveNormalBatchBitIdenticalOnPcgBranch) {
  // Completion rows present: the block PCG must reproduce each column's
  // single-vector PCG exactly — same iterates, same stopping decisions —
  // so equality here is bitwise, not approximate.
  AllRangeWorkload w(Domain({5, 4}));
  const KronStrategy a = KronDesign(w);
  ASSERT_TRUE(a.has_completion());

  Rng rng(31);
  std::vector<Vector> bs;
  for (int i = 0; i < 7; ++i) bs.push_back(RandomVector(a.num_cells(), &rng));
  const std::vector<Vector> batched = a.SolveNormalBatch(bs);
  ASSERT_EQ(batched.size(), bs.size());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    EXPECT_EQ(batched[i], ReferenceSolveNormal(a, bs[i])) << "rhs " << i;
    EXPECT_EQ(a.SolveNormal(bs[i]), batched[i]) << "rhs " << i;
  }
}

TEST(KronStrategy, SolveNormalBatchCompactionSurvivesUnevenRhs) {
  // Deliberately uneven per-column work: a zero rhs retires at iteration 0,
  // a normal-matvec image converges quickly, random columns (at wildly
  // different scales) grind, and a tight tolerance forces stagnation-path
  // retirements at different iterations. Columns therefore retire — and the
  // interleaved block compacts — at staggered times; per-column results
  // must still be *bitwise* equal to the single-vector reference solves,
  // proving the retirement compaction never touches surviving columns'
  // arithmetic.
  AllRangeWorkload w(Domain({5, 4}));
  const KronStrategy a = KronDesign(w);
  ASSERT_TRUE(a.has_completion());

  Rng rng(43);
  std::vector<Vector> bs;
  bs.push_back(Vector(a.num_cells(), 0.0));  // retires immediately
  bs.push_back(a.ApplyT(a.Apply(RandomVector(a.num_cells(), &rng))));
  bs.push_back(RandomVector(a.num_cells(), &rng));
  Vector huge = RandomVector(a.num_cells(), &rng);
  for (auto& v : huge) v *= 1e8;
  bs.push_back(huge);
  Vector tiny = RandomVector(a.num_cells(), &rng);
  for (auto& v : tiny) v *= 1e-9;
  bs.push_back(tiny);

  for (double rel_tol : {1e-12, 1e-14}) {
    const std::vector<Vector> batched = a.SolveNormalBatch(bs, rel_tol);
    ASSERT_EQ(batched.size(), bs.size());
    for (std::size_t i = 0; i < bs.size(); ++i) {
      EXPECT_EQ(batched[i], ReferenceSolveNormal(a, bs[i], rel_tol))
          << "rhs " << i << " rel_tol " << rel_tol;
    }
  }
}

TEST(KronStrategy, SolveNormalBatchBitIdenticalOnDiagonalBranch) {
  // No completion rows: the solve is diagonal in the eigenbasis; the
  // batched passes must still match bitwise.
  AllRangeWorkload w(Domain({4, 3, 3}));
  optimize::DesignOptions options;
  options.complete_columns = false;
  const KronStrategy a = KronDesign(w, options);
  ASSERT_FALSE(a.has_completion());

  Rng rng(37);
  std::vector<Vector> bs;
  for (int i = 0; i < 4; ++i) bs.push_back(RandomVector(a.num_cells(), &rng));
  const std::vector<Vector> batched = a.SolveNormalBatch(bs);
  for (std::size_t i = 0; i < bs.size(); ++i) {
    EXPECT_EQ(batched[i], ReferenceSolveNormal(a, bs[i])) << "rhs " << i;
    EXPECT_EQ(a.SolveNormal(bs[i]), batched[i]) << "rhs " << i;
  }
}

// The Kronecker product of the 1D spectra has repeated eigenvalues, and a
// dense numeric eigensolve is free to pick a different (equally valid)
// orthogonal basis inside each degenerate eigenspace than the factored
// decomposition — giving a slightly different, equally legitimate Program-2
// instance. The meaningful equivalence is therefore: feed both the dense
// and the implicit pipeline the *same* eigendecomposition and require the
// optimizer outputs to agree to within the (tightened) duality-gap budget,
// while everything downstream of a fixed strategy agrees to 1e-8.
optimize::DesignOptions TightOptions() {
  optimize::DesignOptions options;
  options.solver.relative_gap_tol = 1e-9;
  options.solver.max_iterations = 50000;
  return options;
}

linalg::SymmetricEigenResult DenseFromKron(const linalg::KronEigenResult& k) {
  return {k.values, k.basis.Dense()};
}

TEST(KronEngineDesign, AgreesWithDensePathOn2DAllRange) {
  AllRangeWorkload w(Domain({8, 8}));
  const optimize::DesignOptions options = TightOptions();
  const auto keig = *w.ImplicitEigen();

  auto dense = optimize::Design(DenseFromKron(keig), options);
  auto kron = optimize::Design(keig, options);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(kron.ok());
  const auto& d = dense.ValueOrDie();
  const auto& k = kron.ValueOrDie();

  EXPECT_EQ(d.rank, k.rank);
  EXPECT_NEAR(d.predicted_objective, k.predicted_objective,
              1e-6 * d.predicted_objective);

  const ErrorOptions opts = TestErrorOptions();
  const double err_dense = StrategyError(w, d.strategy->Materialize(), opts);
  // Implicit error via the shared-eigenbasis trace (CG branch: the design
  // carries completion rows).
  const double err_kron =
      StrategyError(keig.values, w.num_queries(), AsKron(k), opts);
  EXPECT_NEAR(err_dense, err_kron, 1e-6 * err_dense);

  // Downstream of the fixed strategy the two error formulas must agree to
  // 1e-8: the materialized implicit strategy under the dense Prop. 4 trace
  // versus the shared-eigenbasis trace.
  const double err_via_dense =
      StrategyError(w.Gram(), w.num_queries(), k.strategy->Materialize(), opts);
  EXPECT_NEAR(err_kron, err_via_dense, 1e-8 * err_kron);
}

TEST(KronEngineDesign, AgreesWithDensePathOn3DAllRangeNoCompletion) {
  AllRangeWorkload w(Domain({4, 3, 3}));
  optimize::DesignOptions options = TightOptions();
  options.complete_columns = false;
  const auto keig = *w.ImplicitEigen();

  auto dense = optimize::Design(DenseFromKron(keig), options);
  auto kron = optimize::Design(keig, options);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(kron.ok());
  const auto& d = dense.ValueOrDie();
  const auto& k = kron.ValueOrDie();
  EXPECT_FALSE(AsKron(k).has_completion());

  const ErrorOptions opts = TestErrorOptions();
  const double err_dense = StrategyError(w, d.strategy->Materialize(), opts);
  const double err_kron =
      StrategyError(keig.values, w.num_queries(), AsKron(k), opts);
  EXPECT_NEAR(err_dense, err_kron, 1e-6 * err_dense);

  // Same fixed strategy, both trace formulas: 1e-8.
  const double err_via_dense =
      StrategyError(w.Gram(), w.num_queries(), k.strategy->Materialize(), opts);
  EXPECT_NEAR(err_kron, err_via_dense, 1e-8 * err_kron);
}

TEST(KronEngineDesign, AgreesWithAnalyticEigenPathOnMarginals) {
  // The 2-way marginal Gram is rank deficient (cells with every Helmert
  // index nonzero have eigenvalue 0), which exercises the truncated path.
  MarginalsWorkload w = MarginalsWorkload::AllKWay(Domain({3, 4, 2}), 2);
  optimize::DesignOptions options = TightOptions();
  options.complete_columns = false;
  const auto keig = *w.ImplicitEigen();

  auto dense = optimize::Design(DenseFromKron(keig), options);
  auto kron = optimize::Design(keig, options);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(kron.ok());
  const auto& d = dense.ValueOrDie();
  const auto& k = kron.ValueOrDie();

  EXPECT_EQ(d.rank, k.rank);
  EXPECT_LT(d.rank, w.num_cells());
  EXPECT_NEAR(d.predicted_objective, k.predicted_objective,
              1e-6 * d.predicted_objective);

  const ErrorOptions opts = TestErrorOptions();
  const double err_kron =
      StrategyError(keig.values, w.num_queries(), AsKron(k), opts);

  // Exact dense reference: the dense design's weights under the shared
  // trace formula sum g_i / u_i (no regularization). Both designs ran on one
  // eigendecomposition, so they keep the same eigen-queries; row i of the
  // dense strategy is weight_i times the unit eigenvector kept()[i]. The two
  // solver runs agree to within the tightened duality-gap budget.
  const std::vector<std::size_t>& kept = AsKron(k).kept();
  const Matrix a = d.strategy->Materialize().matrix();
  double tr_dense = 0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const Vector row = a.Row(i);
    tr_dense += keig.values[kept[i]] / linalg::Dot(row, row);
  }
  const double err_dense = ErrorFromTrace(d.strategy->L2Sensitivity(),
                                          tr_dense, w.num_queries(), opts);
  EXPECT_NEAR(err_dense, err_kron, 1e-6 * err_dense);

  // The dense TraceTerm solves through the strategy's own jitter-free
  // factorization: a jitter would put an O(jitter / u_min) floor under it
  // (~1e-5 relative here, with solver weights spanning ~6 orders of
  // magnitude), so agreement to rounding pins that there is none.
  const double err_via_dense =
      StrategyError(w.Gram(), w.num_queries(), k.strategy->Materialize(), opts);
  EXPECT_NEAR(err_kron, err_via_dense, 1e-8 * err_kron);
}

// ---- Implicit mechanism and release ----

TEST(Mechanism, KronInferenceMatchesDenseMaterialization) {
  AllRangeWorkload w(Domain({6, 5}));
  const KronStrategy a = KronDesign(w);
  const PrivacyParams privacy{0.5, 1e-4};

  auto kron_mech = Mechanism::Prepare(std::make_shared<KronStrategy>(a),
                                      privacy);
  auto dense_mech =
      Mechanism::Prepare(std::make_shared<Strategy>(a.Materialize()), privacy);
  ASSERT_TRUE(kron_mech.ok());
  ASSERT_TRUE(dense_mech.ok());
  EXPECT_NEAR(kron_mech.ValueOrDie().noise_scale(),
              dense_mech.ValueOrDie().noise_scale(), 1e-9);

  Vector x(w.num_cells());
  Rng data_rng(31);
  for (auto& v : x) v = 100.0 * data_rng.UniformDouble();

  // Same seed => identical noise draws (row order matches by construction),
  // so the two least-squares estimates must coincide.
  Rng rng_a(77), rng_b(77);
  const Vector xhat_kron = kron_mech.ValueOrDie().Release(x, &rng_a);
  const Vector xhat_dense = dense_mech.ValueOrDie().Release(x, &rng_b);
  EXPECT_LT(MaxAbsDiff(xhat_kron, xhat_dense), 1e-8);

  // Run() answers the workload at the shared estimate.
  Rng rng_c(77);
  const Vector answers = kron_mech.ValueOrDie().Run(w, x, &rng_c);
  EXPECT_EQ(answers.size(), w.num_queries());
}

TEST(Mechanism, KronNearNoiselessInferenceRecoversData) {
  AllRangeWorkload w(Domain({4, 4}));
  // Essentially no privacy => essentially no noise => x_hat ~= x.
  auto mech =
      Mechanism::Prepare(std::make_shared<KronStrategy>(KronDesign(w)),
                         {1e9, 0.5});
  ASSERT_TRUE(mech.ok());
  Vector x(w.num_cells());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i % 7);
  Rng rng(5);
  const Vector xhat = mech.ValueOrDie().Release(x, &rng);
  EXPECT_LT(MaxAbsDiff(xhat, x), 1e-5);
}

TEST(Mechanism, KronBatchedReleasesBitIdenticalToSequential) {
  // The batched engine's contract: with a shared seed, release b of a batch
  // equals the b-th sequential Release call bitwise (identical noise draws,
  // identical block-solve iterates), and both paths leave the rng in the
  // same state.
  AllRangeWorkload w(Domain({6, 5}));
  const auto strategy = std::make_shared<KronStrategy>(KronDesign(w));
  ASSERT_TRUE(strategy->has_completion());  // exercise the PCG branch
  auto mech = Mechanism::Prepare(strategy, {0.5, 1e-4});
  ASSERT_TRUE(mech.ok());
  const Mechanism& m = mech.ValueOrDie();

  Vector x(w.num_cells());
  Rng data_rng(19);
  for (auto& v : x) v = static_cast<double>(data_rng.UniformInt(50));

  constexpr std::size_t kBatch = 6;
  Rng seq_rng(1234), batch_rng(1234);
  std::vector<Vector> sequential;
  for (std::size_t b = 0; b < kBatch; ++b) {
    sequential.push_back(m.Release(x, &seq_rng));
  }
  const std::vector<Vector> batched = m.ReleaseBatch(x, kBatch, &batch_rng);
  ASSERT_EQ(batched.size(), kBatch);
  for (std::size_t b = 0; b < kBatch; ++b) {
    EXPECT_EQ(batched[b], sequential[b]) << "release " << b;
  }
  EXPECT_EQ(seq_rng.NextU64(), batch_rng.NextU64());
}

TEST(Release, QueryErrorProfileMatchesDenseProfile) {
  AllRangeWorkload ranges(Domain({4, 3}));
  const KronStrategy a = KronDesign(ranges);

  // A small explicit probe workload over the same cells.
  const std::size_t n = ranges.num_cells();
  Matrix probe(3, n);
  for (std::size_t j = 0; j < n; ++j) probe(0, j) = 1.0;  // total
  probe(1, 0) = 1.0;                                      // single cell
  for (std::size_t j = 0; j < n / 2; ++j) probe(2, j) = 1.0;  // half range
  ExplicitWorkload w(ranges.domain(), probe, "probe");

  const PrivacyParams privacy{0.5, 1e-4};
  const Vector implicit = release::QueryErrorProfile(w, a, privacy);
  const Vector dense = release::QueryErrorProfile(w, a.Materialize(), privacy);
  ASSERT_EQ(implicit.size(), dense.size());
  for (std::size_t q = 0; q < implicit.size(); ++q) {
    EXPECT_NEAR(implicit[q], dense[q], 1e-8 * std::max(1.0, dense[q]));
  }
}

}  // namespace
}  // namespace dpmm
