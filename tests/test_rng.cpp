#include "wcle/support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstdint>
#include <vector>

namespace wcle {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  std::vector<int> hist(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) ++hist[rng.next_below(kBuckets)];
  const double expected = kSamples / static_cast<double>(kBuckets);
  for (int h : hist) EXPECT_NEAR(h, expected, 5 * std::sqrt(expected));
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.next_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    saw_lo |= v == 5;
    saw_hi |= v == 9;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
    EXPECT_FALSE(rng.next_bool(-0.5));
    EXPECT_TRUE(rng.next_bool(1.5));
  }
}

TEST(Rng, BernoulliMeanMatchesP) {
  Rng rng(23);
  const double p = 0.3;
  int hits = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) hits += rng.next_bool(p);
  EXPECT_NEAR(hits / static_cast<double>(trials), p, 0.01);
}

TEST(Rng, BinomialBoundaryCases) {
  Rng rng(29);
  EXPECT_EQ(rng.next_binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.next_binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.next_binomial(100, 1.0), 100u);
}

class RngBinomialParam
    : public ::testing::TestWithParam<std::pair<std::uint64_t, double>> {};

TEST_P(RngBinomialParam, MeanAndRangeMatch) {
  const auto [n, p] = GetParam();
  Rng rng(31 + n);
  const int trials = 4000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    const std::uint64_t k = rng.next_binomial(n, p);
    ASSERT_LE(k, n);
    sum += static_cast<double>(k);
  }
  const double mean = sum / trials;
  const double expect = static_cast<double>(n) * p;
  const double sigma = std::sqrt(expect * (1 - p));
  EXPECT_NEAR(mean, expect, 5 * sigma / std::sqrt(trials) + 0.3);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RngBinomialParam,
    ::testing::Values(std::pair<std::uint64_t, double>{1, 0.5},
                      std::pair<std::uint64_t, double>{10, 0.5},
                      std::pair<std::uint64_t, double>{10, 0.05},
                      std::pair<std::uint64_t, double>{100, 0.9},
                      std::pair<std::uint64_t, double>{1000, 0.5},
                      std::pair<std::uint64_t, double>{100000, 0.125},
                      std::pair<std::uint64_t, double>{1000000, 0.01}));

// next_binomial's log-form loop as it stood before BinomialConstants,
// verbatim but for drawing from `rng`: the reference the precomputed
// constants and the single-unit threshold must reproduce bit for bit.
std::uint64_t reference_binomial(Rng& rng, std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - reference_binomial(rng, n, 1.0 - p);

  const double np = static_cast<double>(n) * p;
  if (np < 32.0) {
    const double log_q = std::log1p(-p);
    std::uint64_t hits = 0;
    double sum = 0.0;
    for (;;) {
      const double gap =
          std::floor(std::log(1.0 - rng.next_double()) / log_q) + 1.0;
      sum += gap;
      if (sum > static_cast<double>(n)) return hits;
      ++hits;
      if (hits == n) return n;
    }
  }
  const double sigma = std::sqrt(np * (1.0 - p));
  const double u1 = 1.0 - rng.next_double();
  const double u2 = rng.next_double();
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  double value = np + sigma * z + 0.5;
  if (value < 0.0) value = 0.0;
  if (value > static_cast<double>(n)) value = static_cast<double>(n);
  return static_cast<std::uint64_t>(value);
}

/// The walk engine's probabilities (1/2, 1/k per port count) and a few
/// others: generic, tiny, just below 1/2, and above 1/2 (drawn flipped).
std::vector<double> equivalence_probabilities() {
  std::vector<double> ps = {0.5, 0.3, 1e-9, 0.5 - 0x1.0p-30, 0.7};
  for (int k = 2; k <= 64; ++k) ps.push_back(1.0 / k);
  return ps;
}

TEST(Rng, BinomialMatchesTheLogFormReferenceInLockstep) {
  std::vector<std::uint64_t> ns;
  for (std::uint64_t n = 1; n <= 40; ++n) ns.push_back(n);
  for (const std::uint64_t n : {64ull, 1000ull, 100000ull}) ns.push_back(n);
  std::uint64_t seed = 1;
  for (const double p : equivalence_probabilities()) {
    const BinomialConstants c(p);
    for (const std::uint64_t n : ns) {
      Rng ref(seed), by_p(seed), by_constants(seed);
      ++seed;
      for (int draw = 0; draw < 64; ++draw) {
        const std::uint64_t want = reference_binomial(ref, n, p);
        ASSERT_EQ(by_p.next_binomial(n, p), want)
            << "p=" << p << " n=" << n << " draw " << draw;
        ASSERT_EQ(by_constants.next_binomial(n, c), want)
            << "p=" << p << " n=" << n << " draw " << draw;
      }
      // Same values and the same number of words drawn.
      const std::uint64_t next = ref.next();
      ASSERT_EQ(by_p.next(), next) << "p=" << p << " n=" << n;
      ASSERT_EQ(by_constants.next(), next) << "p=" << p << " n=" << n;
    }
  }
}

TEST(Rng, UnitThresholdMatchesTheLogFormAroundItsWindow) {
  // Every u = 1 - next_double() is a multiple of 2^-53 in (0, 1]. Check the
  // single-unit decision on every such u from 4096 steps below the window
  // q·(1 ± 2^-40) around q = 1 - p to 4096 steps above it.
  constexpr double kStep = 0x1.0p-53;
  constexpr std::int64_t kTop = std::int64_t{1} << 53;  // u = 1
  for (const double p : equivalence_probabilities()) {
    if (p > 0.5) continue;  // drawn as 1 - p, covered by 0.3
    const BinomialConstants c(p);
    const double log_q = std::log1p(-p);
    const double q = 1.0 - p;
    const auto reach = static_cast<std::int64_t>(q * 0x1.0p-40 / kStep) + 4096;
    const auto mid = static_cast<std::int64_t>(q / kStep);
    std::int64_t hits = 0, checked = 0;
    for (std::int64_t m = mid - reach; m <= std::min(mid + reach, kTop); ++m) {
      const double u = static_cast<double>(m) * kStep;
      const bool want = std::floor(std::log(u) / log_q) + 1.0 <= 1.0;
      ASSERT_EQ(c.unit_hit(u), want) << "p=" << p << " u=" << u;
      hits += want;
      ++checked;
    }
    // The scan straddles the threshold: both outcomes occur.
    EXPECT_GT(hits, 0) << "p=" << p;
    EXPECT_LT(hits, checked) << "p=" << p;
  }
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(101);
  Rng child1 = parent.fork(1);
  Rng child2 = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (child1.next() == child2.next()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(37);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Rng, ShuffleIsUnbiasedOnFirstPosition) {
  Rng rng(41);
  std::vector<int> counts(5, 0);
  for (int t = 0; t < 50000; ++t) {
    std::vector<int> v{0, 1, 2, 3, 4};
    rng.shuffle(v);
    ++counts[v[0]];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(SplitMix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const std::uint64_t first = splitmix64(s);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), first);
  EXPECT_NE(splitmix64(s2), first);  // state advanced
}

}  // namespace
}  // namespace wcle
