#include "query/predicate.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "util/metrics.h"
#include "util/text.h"

namespace dpmm {
namespace query {

bool Condition::Matches(std::size_t bucket) const {
  switch (op) {
    case Op::kEq: return bucket == value;
    case Op::kNe: return bucket != value;
    case Op::kLt: return bucket < value;
    case Op::kLe: return bucket <= value;
    case Op::kGt: return bucket > value;
    case Op::kGe: return bucket >= value;
    case Op::kBetween: return bucket >= value && bucket <= value2;
  }
  return false;
}

linalg::Vector Predicate::ToRow(const Domain& domain) const {
  return BoxSelection(*this, domain).ToRow();
}

BoxSelection::BoxSelection(const Predicate& predicate, const Domain& domain)
    : begin_(domain.num_attributes() + 1, 0),
      strides_(domain.num_attributes(), 1),
      num_cells_(domain.NumCells()) {
  const std::size_t k = domain.num_attributes();
  // The key doubles as the per-attribute masks: attribute a's buckets sit
  // at key_[mask_at[a] + b]. One pass over the conditions clears the
  // buckets each one rejects.
  std::vector<std::size_t> mask_at(k);
  for (std::size_t a = 0; a < k; ++a) {
    if (a > 0) key_ += '|';
    mask_at[a] = key_.size();
    key_.append(domain.size(a), '1');
  }
  buckets_.reserve(key_.size());
  for (const Condition& c : predicate.conjuncts()) {
    DPMM_CHECK_LT(c.attr, k);
    for (std::size_t b = 0; b < domain.size(c.attr); ++b) {
      if (!c.Matches(b)) key_[mask_at[c.attr] + b] = '0';
    }
  }
  for (std::size_t a = 0; a < k; ++a) {
    begin_[a] = buckets_.size();
    for (std::size_t b = 0; b < domain.size(a); ++b) {
      if (key_[mask_at[a] + b] == '1') buckets_.push_back(b);
    }
  }
  begin_[k] = buckets_.size();
  for (std::size_t a = k; a > 1; --a) {
    strides_[a - 2] = strides_[a - 1] * domain.size(a - 1);
  }
}

template <typename Visit>
void BoxSelection::ForEachCell(Visit visit) const {
  if (!strides_.empty()) ForEachCellFrom(0, 0, visit);
}

// Attribute `attr`'s selected buckets under `offset`, the linear offset of
// the buckets chosen for attributes before it. Attribute 0 outermost, each
// list ascending: row-major order, so the visited cells ascend.
template <typename Visit>
void BoxSelection::ForEachCellFrom(std::size_t attr, std::size_t offset,
                                   Visit& visit) const {
  const bool last = attr + 1 == strides_.size();
  for (std::size_t p = begin_[attr]; p < begin_[attr + 1]; ++p) {
    const std::size_t cell = offset + buckets_[p] * strides_[attr];
    if (last) {
      visit(cell);
    } else {
      ForEachCellFrom(attr + 1, cell, visit);
    }
  }
}

double BoxSelection::Sum(const linalg::Vector& x) const {
  DPMM_CHECK_EQ(x.size(), num_cells_);
  double s = 0;
  ForEachCell([&](std::size_t cell) { s += x[cell]; });
  return s;
}

linalg::Vector BoxSelection::ToRow() const {
  linalg::Vector row(num_cells_, 0.0);
  ForEachCell([&](std::size_t cell) { row[cell] = 1.0; });
  return row;
}

std::string Predicate::ToString(const Domain& domain) const {
  if (conjuncts_.empty()) return "*";
  std::ostringstream oss;
  for (std::size_t i = 0; i < conjuncts_.size(); ++i) {
    const Condition& c = conjuncts_[i];
    if (i) oss << " AND ";
    oss << domain.attribute_name(c.attr);
    switch (c.op) {
      case Condition::Op::kEq: oss << " = " << c.value; break;
      case Condition::Op::kNe: oss << " != " << c.value; break;
      case Condition::Op::kLt: oss << " < " << c.value; break;
      case Condition::Op::kLe: oss << " <= " << c.value; break;
      case Condition::Op::kGt: oss << " > " << c.value; break;
      case Condition::Op::kGe: oss << " >= " << c.value; break;
      case Condition::Op::kBetween:
        oss << " IN [" << c.value << ", " << c.value2 << "]";
        break;
    }
  }
  return oss.str();
}

namespace {

// Simple tokenizer: identifiers, integers, operators and brackets.
struct Tokenizer {
  explicit Tokenizer(const std::string& text) : s(text) {}

  // Returns the next token, empty string at end.
  std::string Next() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) {
      ++pos;
    }
    if (pos >= s.size()) return "";
    const char c = s[pos];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '*') {
      std::size_t start = pos;
      if (c == '*') {
        ++pos;
        return "*";
      }
      while (pos < s.size() &&
             (std::isalnum(static_cast<unsigned char>(s[pos])) ||
              s[pos] == '_')) {
        ++pos;
      }
      return s.substr(start, pos - start);
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos;
      while (pos < s.size() && std::isdigit(static_cast<unsigned char>(s[pos]))) {
        ++pos;
      }
      return s.substr(start, pos - start);
    }
    // Operators and punctuation (two-char first).
    if (pos + 1 < s.size()) {
      const std::string two = s.substr(pos, 2);
      if (two == "==" || two == "!=" || two == "<=" || two == ">=") {
        pos += 2;
        return two;
      }
    }
    ++pos;
    return std::string(1, c);
  }

  const std::string& s;
  std::size_t pos = 0;
};

std::string Upper(std::string v) {
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return v;
}

Status ParseError(const std::string& what) {
  return Status::InvalidArgument("predicate parse error: " + what);
}

// A digits-only literal too large for size_t.
Status OutOfRange(const std::string& literal) {
  return ParseError("integer " + literal + " out of range");
}

}  // namespace

Result<Predicate> ParsePredicate(const std::string& text,
                                 const Domain& domain) {
  static Counter* parses =
      MetricsRegistry::Global().GetCounter("dpmm.query.predicate.parses");
  static Histogram* parse_ns =
      MetricsRegistry::Global().GetHistogram("dpmm.query.predicate.parse_ns");
  parses->Add(1);
  PerfTimer parse_timer(&GetPerfContext()->predicate_parse_ns);
  const std::uint64_t t0 = MonotonicNanos();
  // Record on every exit, success or parse error.
  struct OnExit {
    Histogram* h;
    std::uint64_t t0;
    ~OnExit() { h->Record(MonotonicNanos() - t0); }
  } on_exit{parse_ns, t0};
  Tokenizer tok(text);
  std::vector<Condition> conjuncts;
  std::string t = tok.Next();
  if (t.empty() || t == "*") {
    const std::string rest = tok.Next();
    if (!rest.empty()) return ParseError("unexpected token after '*'");
    return Predicate();  // total query
  }
  for (;;) {
    // t holds an attribute name.
    std::size_t attr = domain.num_attributes();
    for (std::size_t a = 0; a < domain.num_attributes(); ++a) {
      if (domain.attribute_name(a) == t) {
        attr = a;
        break;
      }
    }
    if (attr == domain.num_attributes()) {
      return ParseError("unknown attribute '" + t + "'");
    }
    Condition cond;
    cond.attr = attr;

    const std::string op = tok.Next();
    const std::string op_upper = Upper(op);
    if (op_upper == "IN") {
      if (tok.Next() != "[") return ParseError("expected '[' after IN");
      const std::string lo = tok.Next();
      if (lo.empty() || !std::isdigit(static_cast<unsigned char>(lo[0]))) {
        return ParseError("expected integer lower bound");
      }
      if (tok.Next() != ",") return ParseError("expected ',' in IN range");
      const std::string hi = tok.Next();
      if (hi.empty() || !std::isdigit(static_cast<unsigned char>(hi[0]))) {
        return ParseError("expected integer upper bound");
      }
      if (tok.Next() != "]") return ParseError("expected ']' closing IN range");
      cond.op = Condition::Op::kBetween;
      if (!util::ParseSizeT(lo, &cond.value)) return OutOfRange(lo);
      if (!util::ParseSizeT(hi, &cond.value2)) return OutOfRange(hi);
      if (cond.value > cond.value2) {
        return ParseError("empty IN range");
      }
    } else {
      if (op == "=" || op == "==") {
        cond.op = Condition::Op::kEq;
      } else if (op == "!=") {
        cond.op = Condition::Op::kNe;
      } else if (op == "<") {
        cond.op = Condition::Op::kLt;
      } else if (op == "<=") {
        cond.op = Condition::Op::kLe;
      } else if (op == ">") {
        cond.op = Condition::Op::kGt;
      } else if (op == ">=") {
        cond.op = Condition::Op::kGe;
      } else {
        return ParseError("unknown operator '" + op + "'");
      }
      const std::string val = tok.Next();
      if (val.empty() || !std::isdigit(static_cast<unsigned char>(val[0]))) {
        return ParseError("expected integer value after operator");
      }
      if (!util::ParseSizeT(val, &cond.value)) return OutOfRange(val);
    }
    // Equality against an out-of-range bucket selects nothing; flag it as a
    // likely mistake (range operators may legitimately clip).
    if (cond.op == Condition::Op::kEq && cond.value >= domain.size(attr)) {
      return ParseError("bucket " + std::to_string(cond.value) +
                        " out of range for attribute '" + t + "'");
    }
    conjuncts.push_back(cond);

    const std::string next = tok.Next();
    if (next.empty()) break;
    if (Upper(next) != "AND") {
      return ParseError("expected AND, got '" + next + "'");
    }
    t = tok.Next();
    if (t.empty()) return ParseError("dangling AND");
  }
  return Predicate(std::move(conjuncts));
}

}  // namespace query
}  // namespace dpmm
