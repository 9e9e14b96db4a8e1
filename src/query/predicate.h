// Predicate counting queries over a bucketized domain. The paper's workloads
// are linear counting queries (Sec. 2.1); this module lets users state them
// as predicates over attribute buckets instead of raw matrix rows:
//
//   "age >= 3 AND income IN [4, 9]"
//
// Attribute names come from the Domain; values are bucket indices (the
// mapping from raw values to buckets is the caller's cell-condition design,
// Fig. 1(a)). A predicate is a conjunction of per-attribute interval
// conditions, which is exactly the class of axis-aligned box queries; unions
// are expressed as multiple workload queries.
#ifndef DPMM_QUERY_PREDICATE_H_
#define DPMM_QUERY_PREDICATE_H_

#include <string>
#include <vector>

#include "domain/domain.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace dpmm {
namespace query {

/// One condition on one attribute.
struct Condition {
  enum class Op {
    kEq,       // attr = v
    kNe,       // attr != v
    kLt,       // attr < v
    kLe,       // attr <= v
    kGt,       // attr > v
    kGe,       // attr >= v
    kBetween,  // attr IN [lo, hi]  (inclusive)
  };
  std::size_t attr = 0;
  Op op = Op::kEq;
  std::size_t value = 0;   // v, or lo for kBetween
  std::size_t value2 = 0;  // hi for kBetween

  /// True when bucket index `bucket` of the attribute satisfies this
  /// condition.
  bool Matches(std::size_t bucket) const;
};

/// A conjunction of conditions (multiple conditions on one attribute are
/// allowed and intersected).
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<Condition> conjuncts)
      : conjuncts_(std::move(conjuncts)) {}

  const std::vector<Condition>& conjuncts() const { return conjuncts_; }

  /// The 0/1 indicator row of this predicate over the domain's cells.
  linalg::Vector ToRow(const Domain& domain) const;

  std::string ToString(const Domain& domain) const;

 private:
  std::vector<Condition> conjuncts_;
};

/// The box a predicate selects, one attribute at a time: for each attribute
/// the ascending bucket indices that every condition on it admits (all
/// buckets when no condition names it). The selected cells are the cross
/// product of these lists, so the key, the answer and the row of a
/// predicate all come from k short lists instead of n cells.
class BoxSelection {
 public:
  BoxSelection(const Predicate& predicate, const Domain& domain);

  /// Canonical form of the box: one '0'/'1' per bucket, attribute by
  /// attribute, joined by '|'. Two predicates have equal keys exactly when
  /// they select the same cells, i.e. when their rows are equal.
  const std::string& key() const { return key_; }

  /// The sum of x over the selected cells, added in ascending index order.
  /// Bit-identical to linalg::Dot(ToRow(), x): the terms Dot adds for
  /// unselected cells are +-0, which leave its running sum unchanged.
  double Sum(const linalg::Vector& x) const;

  /// The 0/1 indicator row over the domain's cells.
  linalg::Vector ToRow() const;

 private:
  /// Calls visit(cell) for every selected cell, in ascending linear-index
  /// order, with no allocation per cell.
  template <typename Visit>
  void ForEachCell(Visit visit) const;
  template <typename Visit>
  void ForEachCellFrom(std::size_t attr, std::size_t offset,
                       Visit& visit) const;

  std::string key_;
  std::vector<std::size_t> buckets_;  // every attribute's list, concatenated
  std::vector<std::size_t> begin_;    // attribute a's list starts at begin_[a]
  std::vector<std::size_t> strides_;  // row-major stride of each attribute
  std::size_t num_cells_ = 0;
};

/// Parses a predicate string against the domain's attribute names.
///
/// Grammar (case-insensitive keywords):
///   predicate := "*" | condition ("AND" condition)*
///   condition := name op integer | name "IN" "[" integer "," integer "]"
///   op        := "=" | "==" | "!=" | "<" | "<=" | ">" | ">="
///
/// "*" (or the empty string) selects every cell — the total query.
Result<Predicate> ParsePredicate(const std::string& text,
                                 const Domain& domain);

}  // namespace query
}  // namespace dpmm

#endif  // DPMM_QUERY_PREDICATE_H_
