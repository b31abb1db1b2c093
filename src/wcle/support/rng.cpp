#include "wcle/support/rng.hpp"

#include <cmath>

namespace wcle {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire-style rejection for unbiased bounded integers.
  if (bound <= 1) return 0;
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Rng::next_in(std::uint64_t lo, std::uint64_t hi) noexcept {
  return lo + next_below(hi - lo + 1);
}

double Rng::next_double() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

BinomialConstants::BinomialConstants(double p) noexcept
    : p_(p), s_(p > 0.5 ? 1.0 - p : p) {
  log_q_ = std::log1p(-s_);
  const double q = 1.0 - s_;
  lo_ = q * (1.0 - 0x1.0p-40);
  hi_ = q * (1.0 + 0x1.0p-40);
}

bool BinomialConstants::unit_hit(double u) const noexcept {
  if (u < lo_) return false;
  if (u > hi_) return true;
  return std::floor(std::log(u) / log_q_) + 1.0 <= 1.0;
}

std::uint64_t Rng::next_binomial(std::uint64_t n, double p) noexcept {
  return next_binomial(n, BinomialConstants(p));
}

std::uint64_t Rng::next_binomial(std::uint64_t n,
                                 const BinomialConstants& c) noexcept {
  if (n == 0 || c.p_ <= 0.0) return 0;
  if (c.p_ >= 1.0) return n;
  const double p = c.s_;
  std::uint64_t hits = 0;
  const double np = static_cast<double>(n) * p;
  if (n == 1) {
    hits = c.unit_hit(1.0 - next_double()) ? 1 : 0;
  } else if (np < 32.0) {
    // Geometric skipping (BG algorithm): expected O(np) iterations. Each
    // geometric gap counts the trials up to and including the next success.
    double sum = 0.0;
    for (;;) {
      const double gap =
          std::floor(std::log(1.0 - next_double()) / c.log_q_) + 1.0;
      sum += gap;
      if (sum > static_cast<double>(n)) break;
      if (++hits == n) break;
    }
  } else {
    // Normal approximation with clamping; adequate for walk-splitting at
    // large counts where relative error of O(1/sqrt(np)) is far below
    // sampling noise.
    const double sigma = std::sqrt(np * (1.0 - p));
    // Box-Muller.
    const double u1 = 1.0 - next_double();
    const double u2 = next_double();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    double value = np + sigma * z + 0.5;
    if (value < 0.0) value = 0.0;
    if (value > static_cast<double>(n)) value = static_cast<double>(n);
    hits = static_cast<std::uint64_t>(value);
  }
  return c.p_ > 0.5 ? n - hits : hits;
}

Rng Rng::fork(std::uint64_t key) noexcept {
  std::uint64_t mix = s_[0] ^ rotl(key, 31) ^ 0xd1b54a32d192ed03ULL;
  const std::uint64_t seed = splitmix64(mix);
  return Rng(seed);
}

}  // namespace wcle
