// Deterministic random number generation for mechanisms and workload
// sampling. We implement our own samplers (xoshiro256++ core, Box-Muller
// Gaussian, inverse-CDF Laplace) so that seeded runs are bit-identical across
// standard libraries — std::normal_distribution is implementation-defined.
#ifndef DPMM_UTIL_RNG_H_
#define DPMM_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace dpmm {

/// Seeded pseudo-random generator with Gaussian / Laplace / uniform samplers.
///
/// Not cryptographically secure; adequate for simulation. (A production DP
/// deployment must replace this with a cryptographically secure source and a
/// floating-point-attack-hardened sampler; that concern is orthogonal to the
/// error analysis reproduced here.)
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Next raw 64 bits.
  std::uint64_t NextU64();

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t UniformInt(std::uint64_t bound);

  /// Standard normal sample (mean 0, stddev 1), via Box-Muller.
  double Gaussian();

  /// Gaussian with the given scale (stddev).
  double Gaussian(double stddev) { return stddev * Gaussian(); }

  /// Laplace sample with the given scale b (density (1/2b) exp(-|x|/b)).
  double Laplace(double scale);

  /// Fisher-Yates shuffle of indices 0..n-1.
  std::vector<std::size_t> Permutation(std::size_t n);

 private:
  std::uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// One nondeterministic 64-bit seed from process entropy (std::random_device
/// mixed with pid and a monotonic counter, so repeated calls differ even on
/// platforms with a weak random_device). This is the ONLY sanctioned entropy
/// source outside seeded Rng streams — the invariant linter (rule
/// unseeded-rng) rejects std::rand / std::random_device elsewhere, so every
/// nondeterministic draw in the tree is auditable here. Use it for process
/// tags and ids, NEVER for privacy noise: noise must come from an explicitly
/// seeded Rng so releases are reproducible from their recorded seed.
std::uint64_t EntropySeed();

}  // namespace dpmm

#endif  // DPMM_UTIL_RNG_H_
