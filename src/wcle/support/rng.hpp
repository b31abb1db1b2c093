// Deterministic, fast pseudo-random number generation for simulations.
//
// All randomness in the library flows through `Rng` so that every experiment is
// reproducible from a single 64-bit seed. The generator is xoshiro256**, seeded
// via SplitMix64 (the recommended seeding procedure of its authors). We avoid
// std::mt19937 because its state is large and its distributions are not
// guaranteed to be bit-identical across standard-library implementations;
// every distribution used here is implemented explicitly.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace wcle {

/// SplitMix64 step: used for seeding and for hashing seeds into streams.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// next_binomial's constants for one success probability p, computed once
/// for a p that many draws share (the walk engine's 1/2 and 1/k splits).
/// A draw with them returns exactly what next_binomial(n, p) returns and
/// consumes the same stream words.
class BinomialConstants {
 public:
  explicit BinomialConstants(double p) noexcept;

  /// The n == 1 decision for u = 1 - next_double() (u in (0, 1]): the
  /// geometric loop's `floor(log(u) / log_q) + 1 <= 1`, which is u > q for
  /// q = 1 - p, p <= 1/2. Exactness contract: it returns that expression's
  /// bit for every u. Outside the window q·(1 ± 2^-40) it compares u with
  /// the window's edges: there log(u) / log_q is at least ~2^-41 away from
  /// 1 (|log_q| <= log 2), far beyond the few 2^-52 relative errors of
  /// log, log1p, the division and q's rounding. Inside the window it
  /// evaluates the expression itself.
  bool unit_hit(double u) const noexcept;

 private:
  friend class Rng;
  double p_;      ///< as given
  double s_;      ///< the probability drawn with: min(p, 1 - p)
  double log_q_;  ///< log1p(-s_)
  double lo_;     ///< (1 - s_)·(1 - 2^-40)
  double hi_;     ///< (1 - s_)·(1 + 2^-40)
};

/// xoshiro256** PRNG with explicitly implemented, implementation-independent
/// distributions. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased (rejection).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform double in [0, 1) with 53 random bits.
  double next_double() noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool next_bool(double p) noexcept;

  /// Binomial(n, p) sample, drawn for min(p, 1 - p) (n minus the draw when
  /// p > 1/2). Two regimes, deterministic given the stream:
  ///  * n·p < 32: exact geometric skipping. Each gap up to and including
  ///    the next success is floor(log(u) / log1p(-p)) + 1 for one
  ///    u = 1 - next_double(); O(n·p) draws. A single unit (n == 1) is one
  ///    threshold comparison (BinomialConstants::unit_hit).
  ///  * n·p >= 32: a normal approximation, one Box–Muller draw (two
  ///    doubles) rounded and clamped to [0, n].
  std::uint64_t next_binomial(std::uint64_t n, double p) noexcept;
  /// The same draw with p's constants precomputed: equal values, equal
  /// stream positions, and no libm call for n == 1 outside the window.
  std::uint64_t next_binomial(std::uint64_t n,
                              const BinomialConstants& c) noexcept;

  /// Derive an independent child stream (hash of this stream's seed and key).
  Rng fork(std::uint64_t key) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace wcle
