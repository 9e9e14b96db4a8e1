#include "util/rng.h"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <random>

#include "util/logging.h"

namespace dpmm {

namespace {

// splitmix64: used only to expand the user seed into xoshiro state.
std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = SplitMix64(&s);
}

std::uint64_t Rng::NextU64() {
  // xoshiro256++
  const std::uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::UniformDouble() {
  // 53-bit mantissa in [0,1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::UniformInt(std::uint64_t bound) {
  DPMM_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (-bound) % bound;
  for (;;) {
    std::uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::Gaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 is bounded away from 0 so log() is finite.
  double u1;
  do {
    u1 = UniformDouble();
  } while (u1 <= 1e-300);
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Laplace(double scale) {
  // Inverse CDF on u ~ Uniform(-1/2, 1/2): x = -b * sgn(u) * ln(1 - 2|u|).
  double u = UniformDouble() - 0.5;
  const double sign = (u < 0) ? -1.0 : 1.0;
  u = std::fabs(u);
  if (u >= 0.5) u = 0.5 - 1e-16;  // guard log(0)
  return -scale * sign * std::log(1.0 - 2.0 * u);
}

std::vector<std::size_t> Rng::Permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::size_t j = UniformInt(i);
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

std::uint64_t EntropySeed() {
  // The only random_device in the tree (see the header contract). Mix with
  // pid + a counter through splitmix64 so two calls — or two processes on a
  // platform where random_device is deterministic — never collide.
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t device_bits = [] {
    std::random_device rd;  // lint:allow(unseeded-rng): this IS the sanctioned entropy source
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }();
  std::uint64_t s = device_bits ^
                    (static_cast<std::uint64_t>(::getpid()) << 48) ^
                    (counter.fetch_add(1) * 0xD1B54A32D192ED03ULL);
  return SplitMix64(&s);
}

}  // namespace dpmm
