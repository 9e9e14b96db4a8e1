#include "workload/builders.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "linalg/kronecker.h"

namespace dpmm {
namespace builders {

using linalg::Matrix;

Matrix AllRangeMatrix1D(std::size_t d) {
  const std::size_t m = d * (d + 1) / 2;
  Matrix w(m, d);
  std::size_t row = 0;
  for (std::size_t a = 0; a < d; ++a) {
    for (std::size_t b = a; b < d; ++b) {
      for (std::size_t j = a; j <= b; ++j) w(row, j) = 1.0;
      ++row;
    }
  }
  DPMM_CHECK_EQ(row, m);
  return w;
}

Matrix TotalMatrix(std::size_t n) {
  Matrix w(1, n);
  for (std::size_t j = 0; j < n; ++j) w(0, j) = 1.0;
  return w;
}

Matrix MarginalMatrix(const Domain& domain, const AttrSet& set) {
  std::vector<Matrix> factors;
  for (std::size_t a = 0; a < domain.num_attributes(); ++a) {
    const std::size_t d = domain.size(a);
    if (std::find(set.begin(), set.end(), a) != set.end()) {
      factors.push_back(Matrix::Identity(d));
    } else {
      factors.push_back(TotalMatrix(d));
    }
  }
  return linalg::KronList(factors);
}

ExplicitWorkload RandomRangeWorkload(const Domain& domain, std::size_t count,
                                     Rng* rng) {
  const std::size_t k = domain.num_attributes();
  const std::size_t n = domain.NumCells();
  Matrix w(count, n);
  std::vector<std::size_t> lo(k), hi(k);
  for (std::size_t q = 0; q < count; ++q) {
    for (std::size_t a = 0; a < k; ++a) {
      const std::size_t d = domain.size(a);
      // Two-step sampling: (1) dyadic scale chosen uniformly, (2) length
      // uniform within the scale, position uniform among valid starts.
      std::size_t levels = 1;
      while ((std::size_t{1} << levels) <= d) ++levels;  // 2^levels > d
      const std::size_t level = rng->UniformInt(levels);
      const std::size_t len_lo = std::size_t{1} << level;
      const std::size_t len_hi = std::min(d, (std::size_t{1} << (level + 1)) - 1);
      const std::size_t len =
          len_lo + rng->UniformInt(len_hi - len_lo + 1);
      const std::size_t start = rng->UniformInt(d - len + 1);
      lo[a] = start;
      hi[a] = start + len - 1;
    }
    // Fill the box: odometer over the per-dimension index ranges.
    std::vector<std::size_t> idx(lo);
    bool done = false;
    while (!done) {
      w(q, domain.CellIndex(idx)) = 1.0;
      std::size_t a = k;
      for (;;) {
        if (a == 0) {
          done = true;
          break;
        }
        --a;
        if (idx[a] < hi[a]) {
          ++idx[a];
          break;
        }
        idx[a] = lo[a];
      }
    }
  }
  return ExplicitWorkload(domain, std::move(w), "RandomRange");
}

ExplicitWorkload RandomPredicateWorkload(const Domain& domain,
                                         std::size_t count, Rng* rng) {
  const std::size_t n = domain.NumCells();
  Matrix w(count, n);
  for (std::size_t q = 0; q < count; ++q) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng->NextU64() & 1) w(q, j) = 1.0;
    }
  }
  return ExplicitWorkload(domain, std::move(w), "RandomPredicate");
}

std::vector<AttrSet> RandomMarginalSets(std::size_t num_attributes,
                                        std::size_t count, Rng* rng) {
  DPMM_CHECK_LT(num_attributes, 60u);
  const std::size_t total = (std::size_t{1} << num_attributes) - 1;
  DPMM_CHECK_LE(count, total);
  std::set<std::size_t> chosen;
  while (chosen.size() < count) {
    chosen.insert(1 + rng->UniformInt(total));  // non-empty masks
  }
  std::vector<AttrSet> out;
  for (std::size_t mask : chosen) {
    AttrSet s;
    for (std::size_t a = 0; a < num_attributes; ++a) {
      if (mask & (std::size_t{1} << a)) s.push_back(a);
    }
    out.push_back(std::move(s));
  }
  return out;
}

Matrix Fig1Matrix() {
  return Matrix::FromRows({
      {1, 1, 1, 1, 1, 1, 1, 1},      // q1: all students
      {1, 1, 1, 1, 0, 0, 0, 0},      // q2: male students
      {0, 0, 0, 0, 1, 1, 1, 1},      // q3: female students
      {1, 1, 0, 0, 1, 1, 0, 0},      // q4: gpa < 3.0
      {0, 0, 1, 1, 0, 0, 1, 1},      // q5: gpa >= 3.0
      {0, 0, 0, 0, 0, 0, 1, 1},      // q6: female, gpa >= 3.5 bucket pair
      {1, 1, 0, 0, 0, 0, 0, 0},      // q7: male, gpa < 3.0
      {1, 1, 1, 1, -1, -1, -1, -1},  // q8: male minus female
  });
}

CellLabels Fig1Labels() {
  Domain d({2, 4}, {"gender", "gpa"});
  return CellLabels(
      d, {{"gender=M", "gender=F"},
          {"gpa in [1.0,2.0)", "gpa in [2.0,3.0)", "gpa in [3.0,3.5)",
           "gpa in [3.5,4.0)"}});
}

std::vector<std::string> Fig1QueryDescriptions() {
  return {
      "all students",
      "male students",
      "female students",
      "students with gpa < 3.0",
      "students with gpa >= 3.0",
      "female students with gpa >= 3.0",
      "male students with gpa < 3.0",
      "difference between male and female students",
  };
}

}  // namespace builders
}  // namespace dpmm
