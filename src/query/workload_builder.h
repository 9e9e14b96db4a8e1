// Builds workloads from predicate queries — the user-facing entry point for
// ad hoc tasks. Following the paper's guidance (Sec. 2.1), the analyst
// should include *every* query of interest, even ones derivable from
// others; the adaptive mechanism optimizes error across the whole set.
#ifndef DPMM_QUERY_WORKLOAD_BUILDER_H_
#define DPMM_QUERY_WORKLOAD_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "query/predicate.h"
#include "workload/workload.h"

namespace dpmm {
namespace query {

/// Accumulates counting queries (predicates and differences) over a
/// fixed domain and materializes them as an ExplicitWorkload.
class WorkloadBuilder {
 public:
  explicit WorkloadBuilder(Domain domain) : domain_(std::move(domain)) {}

  /// count(predicate). Returns the query's index within the workload.
  std::size_t AddCount(const Predicate& predicate);

  /// count(predicate) parsed from text; fails on parse errors.
  Result<std::size_t> AddCount(const std::string& predicate_text);

  /// count(a) - count(b) (e.g. Fig. 1's q8, male minus female).
  std::size_t AddDifference(const Predicate& a, const Predicate& b);

  std::size_t num_queries() const { return rows_.size(); }
  const Domain& domain() const { return domain_; }

  /// Human-readable description of query q.
  const std::string& description(std::size_t q) const {
    return descriptions_[q];
  }

  /// Materializes the accumulated queries. The builder can keep growing
  /// afterwards; Build() snapshots the current state.
  ExplicitWorkload Build(std::string name = "adhoc") const;

 private:
  Domain domain_;
  std::vector<linalg::Vector> rows_;
  std::vector<std::string> descriptions_;
};

}  // namespace query
}  // namespace dpmm

#endif  // DPMM_QUERY_WORKLOAD_BUILDER_H_
