#include "query/workload_builder.h"

namespace dpmm {
namespace query {

std::size_t WorkloadBuilder::AddCount(const Predicate& predicate) {
  rows_.push_back(predicate.ToRow(domain_));
  descriptions_.push_back("count(" + predicate.ToString(domain_) + ")");
  return rows_.size() - 1;
}

Result<std::size_t> WorkloadBuilder::AddCount(
    const std::string& predicate_text) {
  auto parsed = ParsePredicate(predicate_text, domain_);
  if (!parsed.ok()) return parsed.status();
  return AddCount(parsed.ValueOrDie());
}

std::size_t WorkloadBuilder::AddDifference(const Predicate& a,
                                           const Predicate& b) {
  linalg::Vector row = a.ToRow(domain_);
  linalg::Vector rb = b.ToRow(domain_);
  for (std::size_t i = 0; i < row.size(); ++i) row[i] -= rb[i];
  rows_.push_back(std::move(row));
  descriptions_.push_back("count(" + a.ToString(domain_) + ") - count(" +
                          b.ToString(domain_) + ")");
  return rows_.size() - 1;
}

ExplicitWorkload WorkloadBuilder::Build(std::string name) const {
  DPMM_CHECK_GT(rows_.size(), 0u);
  linalg::Matrix w(rows_.size(), domain_.NumCells());
  for (std::size_t i = 0; i < rows_.size(); ++i) w.SetRow(i, rows_[i]);
  return ExplicitWorkload(domain_, std::move(w), std::move(name));
}

}  // namespace query
}  // namespace dpmm
