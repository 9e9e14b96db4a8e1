#include "workload/gram.h"

#include <algorithm>

#include "util/threading.h"

namespace dpmm {
namespace gram {

using linalg::Matrix;

Matrix AllRange1D(std::size_t d) {
  Matrix g(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      const std::size_t lo = std::min(i, j);
      const std::size_t hi = std::max(i, j);
      g(i, j) = static_cast<double>((lo + 1) * (d - hi));
    }
  }
  return g;
}

Matrix NormalizedAllRange1D(std::size_t d) {
  // G_ij = sum over ranges [a,b] covering both i and j of 1/(b-a+1).
  // For fixed length L >= span+1 the number of covering positions is
  // min(i, d-L) - max(0, j-L+1) + 1 (for i <= j), clipped at 0.
  Matrix g(d, d);
  ParallelFor(0, d, 8, [&](std::size_t lo_row, std::size_t hi_row) {
    for (std::size_t i = lo_row; i < hi_row; ++i) {
      for (std::size_t j = i; j < d; ++j) {
        const std::size_t span = j - i + 1;
        double s = 0;
        for (std::size_t len = span; len <= d; ++len) {
          const std::size_t a_max = std::min(i, d - len);
          const std::size_t a_min = (j + 1 >= len) ? (j + 1 - len) : 0;
          if (a_max + 1 > a_min) {
            s += static_cast<double>(a_max - a_min + 1) / static_cast<double>(len);
          }
        }
        g(i, j) = s;
        g(j, i) = s;
      }
    }
  });
  return g;
}

Matrix Prefix1D(std::size_t d) {
  Matrix g(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      g(i, j) = static_cast<double>(d - std::max(i, j));
    }
  }
  return g;
}

Matrix NormalizedPrefix1D(std::size_t d) {
  // Tail harmonic sums: tail[t] = sum_{u >= t} 1/(u+1), t in [0, d).
  std::vector<double> tail(d + 1, 0.0);
  for (std::size_t t = d; t > 0; --t) {
    tail[t - 1] = tail[t] + 1.0 / static_cast<double>(t);
  }
  Matrix g(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      g(i, j) = tail[std::max(i, j)];
    }
  }
  return g;
}

Matrix Ones(std::size_t d) {
  Matrix g(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) g(i, j) = 1.0;
  }
  return g;
}

std::size_t NumRanges1D(std::size_t d) { return d * (d + 1) / 2; }

}  // namespace gram
}  // namespace dpmm
