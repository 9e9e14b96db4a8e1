#include "data/generators.h"

#include <cmath>

#include "util/rng.h"

namespace dpmm {
namespace data {

linalg::Vector ToCounts(std::vector<double> weights, double total) {
  double s = 0;
  for (double w : weights) s += w;
  DPMM_CHECK_GT(s, 0.0);
  for (auto& w : weights) w = std::floor(w / s * total + 0.5);
  return weights;
}

namespace {

// Bell-shaped profile over d buckets centered at c (in bucket units).
double Bell(std::size_t i, double c, double width) {
  const double z = (static_cast<double>(i) - c) / width;
  return std::exp(-0.5 * z * z);
}

// Discretized log-normal-ish heavy tail over d buckets.
double HeavyTail(std::size_t i, double peak, double decay) {
  const double x = static_cast<double>(i) + 1.0;
  return std::exp(-std::pow(std::fabs(std::log(x / peak)), 1.5) / decay);
}

}  // namespace

DataVector GenCensusLike(std::uint64_t seed) {
  Domain domain({8, 16, 16}, {"age", "occupation", "income"});
  Rng rng(seed);

  // Lumpy categorical occupation profile (fixed draws => deterministic).
  std::vector<double> occ(16);
  for (auto& v : occ) v = 0.25 + rng.UniformDouble() * rng.UniformDouble() * 4.0;

  std::vector<double> weights(domain.NumCells());
  for (std::size_t cell = 0; cell < weights.size(); ++cell) {
    const auto m = domain.MultiIndex(cell);
    const std::size_t age = m[0], o = m[1], inc = m[2];
    // Margins: working-age bulge, lumpy occupations, heavy-tailed income.
    double w = Bell(age, 3.2, 2.1) * occ[o] * HeavyTail(inc, 4.5, 0.9);
    // Correlations: income rises with age until retirement; some
    // occupations skew high-income.
    const double age_income = 1.0 + 0.35 * std::tanh((static_cast<double>(age) -
                                                      2.0) *
                                                     (static_cast<double>(inc) -
                                                      5.0) /
                                                     20.0);
    const double occ_income =
        1.0 + 0.25 * std::sin(static_cast<double>(o) * 1.7 +
                              static_cast<double>(inc) * 0.45);
    w *= age_income * occ_income;
    // Multiplicative jitter so no two cells are exactly proportional.
    w *= 0.85 + 0.3 * rng.UniformDouble();
    weights[cell] = w;
  }
  return DataVector(domain, ToCounts(std::move(weights), 15e6));
}

DataVector GenAdultLike(std::uint64_t seed) {
  Domain domain({8, 8, 16, 2}, {"age", "work", "education", "income"});
  Rng rng(seed + 1);

  std::vector<double> work(8);
  for (auto& v : work) v = 0.3 + rng.UniformDouble() * 3.0;

  std::vector<double> weights(domain.NumCells());
  for (std::size_t cell = 0; cell < weights.size(); ++cell) {
    const auto m = domain.MultiIndex(cell);
    const std::size_t age = m[0], wk = m[1], edu = m[2], inc = m[3];
    double w = Bell(age, 2.8, 1.9) * work[wk] * Bell(edu, 8.5, 3.5);
    // P(income > 50K) grows with education and age.
    const double p_high =
        0.08 + 0.55 / (1.0 + std::exp(-(static_cast<double>(edu) - 9.0) * 0.6 -
                                      (static_cast<double>(age) - 3.0) * 0.3));
    w *= (inc == 1) ? p_high : (1.0 - p_high);
    w *= 0.8 + 0.4 * rng.UniformDouble();
    weights[cell] = w;
  }
  return DataVector(domain, ToCounts(std::move(weights), 33e3));
}

}  // namespace data
}  // namespace dpmm
