// Umbrella header for the dpmm library — an implementation of the adaptive
// (eps, delta)-differentially-private query answering mechanism of Li &
// Miklau (VLDB 2012), with the matrix mechanism, the Eigen-Design strategy
// selection algorithm, the competing strategies of the paper's evaluation,
// and the supporting linear algebra.
//
// Quickstart — the unified API. optimize::Design is one overload set
// returning one DesignResult: Design(workload) picks the engine (the
// implicit Kronecker pipeline when the workload has Kronecker
// eigenstructure, dense otherwise; overridable via DesignOptions::engine),
// and Design(SymmetricEigenResult) / Design(KronEigenResult) run the dense /
// kron engine from a precomputed eigendecomposition of W^T W. Mechanism
// runs the one Prop. 3 release (y = A x + noise, x_hat = (A^T A)^+ A^T y)
// through the LinearStrategy interface, whichever engine the strategy uses;
// LinearStrategy::Materialize gives any strategy's explicit matrix form:
//
//   using namespace dpmm;
//   auto w = ExplicitWorkload::FromMatrix(builders::Fig1Matrix(), "Fig1");
//   auto design = optimize::Design(w).ValueOrDie();
//   PrivacyParams budget;                        // eps = 0.5, delta = 1e-4
//   auto mech = Mechanism::Prepare(design.strategy, budget).ValueOrDie();
//   Rng rng(42);
//   linalg::Vector x_hat = mech.Release(x, &rng);    // private estimate
//   linalg::Vector answers = w.Answer(x_hat);        // workload answers
//   linalg::Vector sd = release::QueryErrorProfile(  // per-query stddev
//       w, *design.strategy, budget);
//   Strategy dense = design.strategy->Materialize(); // p x n matrix form
//
// A hand-built strategy rides the same mechanism — it is held by shared
// pointer, so copies of the mechanism share the strategy's one cached
// factorization:
//
//   auto identity = Mechanism::Prepare(
//       std::make_shared<Strategy>(IdentityStrategy(8)), budget);
//
// Any designed strategy — either engine — can be persisted and served:
// serialize::StrategyArtifact + serve::StrategyStore store it,
// release::ReleaseBatch releases against it, serve::AnswerEngine answers
// ad-hoc predicate queries from a stored release (see README).
#ifndef DPMM_DPMM_H_
#define DPMM_DPMM_H_

#include "data/data_vector.h"
#include "data/generators.h"
#include "data/io.h"
#include "domain/cell_condition.h"
#include "domain/domain.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/kron_operator.h"
#include "linalg/kronecker.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "mechanism/bounds.h"
#include "mechanism/error.h"
#include "mechanism/matrix_mechanism.h"
#include "mechanism/privacy.h"
#include "optimize/dual_solver.h"
#include "optimize/eigen_design.h"
#include "optimize/eigen_separation.h"
#include "optimize/l1_design.h"
#include "optimize/lbfgs.h"
#include "optimize/principal_vectors.h"
#include "optimize/weighting_problem.h"
#include "query/predicate.h"
#include "query/workload_builder.h"
#include "release/release.h"
#include "serialize/artifact.h"
#include "serve/answer_engine.h"
#include "serve/budget_ledger.h"
#include "serve/file_lock.h"
#include "serve/fs_ops.h"
#include "serve/store.h"
#include "serve/wal.h"
#include "strategy/datacube.h"
#include "strategy/fourier.h"
#include "strategy/hierarchical.h"
#include "strategy/io.h"
#include "strategy/kron_strategy.h"
#include "strategy/linear_strategy.h"
#include "strategy/strategy.h"
#include "strategy/wavelet.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/text.h"
#include "util/thread_pool.h"
#include "util/threading.h"
#include "util/trace.h"
#include "workload/builders.h"
#include "workload/gram.h"
#include "workload/marginal_workloads.h"
#include "workload/range_workloads.h"
#include "workload/workload.h"

#endif  // DPMM_DPMM_H_
