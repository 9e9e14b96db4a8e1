#include "domain/cell_condition.h"

#include <sstream>

#include "util/logging.h"

namespace dpmm {

CellLabels::CellLabels(const Domain& domain,
                       std::vector<std::vector<std::string>> bucket_labels)
    : domain_(domain), bucket_labels_(std::move(bucket_labels)) {
  DPMM_CHECK_EQ(bucket_labels_.size(), domain_.num_attributes());
  for (std::size_t a = 0; a < bucket_labels_.size(); ++a) {
    DPMM_CHECK_EQ(bucket_labels_[a].size(), domain_.size(a));
  }
}

std::string CellLabels::Condition(std::size_t cell) const {
  const auto multi = domain_.MultiIndex(cell);
  std::ostringstream oss;
  for (std::size_t a = 0; a < multi.size(); ++a) {
    if (a) oss << " AND ";
    oss << bucket_labels_[a][multi[a]];
  }
  return oss.str();
}

}  // namespace dpmm
