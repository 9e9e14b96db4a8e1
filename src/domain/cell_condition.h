// Cell conditions (Def. 1 / Fig. 1(a)): human-readable labels for the
// pairwise-unsatisfiable predicates that define each position of the data
// vector. The numeric machinery never needs these; they exist so examples
// and reports can explain what each cell and query means.
#ifndef DPMM_DOMAIN_CELL_CONDITION_H_
#define DPMM_DOMAIN_CELL_CONDITION_H_

#include <string>
#include <vector>

#include "domain/domain.h"

namespace dpmm {

/// Labels for the buckets of every attribute of a domain; renders the cell
/// condition phi_i of any cell index.
class CellLabels {
 public:
  /// `bucket_labels[a][b]` names bucket b of attribute a. Sizes must match
  /// the domain.
  CellLabels(const Domain& domain,
             std::vector<std::vector<std::string>> bucket_labels);

  /// Renders phi_i, e.g. "gpa in [3.0,3.5) AND gender = M".
  std::string Condition(std::size_t cell) const;

  const Domain& domain() const { return domain_; }

 private:
  Domain domain_;
  std::vector<std::vector<std::string>> bucket_labels_;
};

}  // namespace dpmm

#endif  // DPMM_DOMAIN_CELL_CONDITION_H_
