#include "wcle/core/params.hpp"

#include <algorithm>
#include <cmath>

#include "wcle/sim/network.hpp"

namespace wcle {

double ElectionParams::log2_n(NodeId n) const {
  return std::log2(std::max<double>(2.0, static_cast<double>(n)));
}

double ElectionParams::contender_probability(NodeId n) const {
  return std::min(1.0, c1 * log2_n(n) / static_cast<double>(n));
}

std::uint64_t ElectionParams::walk_count(NodeId n) const {
  const double w = c2 * std::sqrt(static_cast<double>(n) * log2_n(n));
  return static_cast<std::uint64_t>(std::ceil(w));
}

std::uint64_t ElectionParams::intersection_threshold(NodeId n) const {
  // Paper: (3/4) c1 log n, valid once Lemma 1's Chernoff concentration has
  // kicked in ("sufficiently large c1", large n). At simulable sizes the
  // contender count X ~ Binomial(n, c1 log n / n) fluctuates by several
  // sigma, so an uncapped threshold can exceed X-1 and make stopping
  // impossible. Nodes know n and c1, so they can cap the threshold at a
  // 3-sigma lower quantile of X (minus themselves) — a finite-size
  // correction that converges to the paper's constant as n grows.
  const double mu = c1 * log2_n(n);
  const double p = contender_probability(n);
  const double sigma = std::sqrt(mu * (1.0 - p));
  const double quantile = std::floor(mu - 3.0 * sigma) - 1.0;
  const double paper = std::ceil(0.75 * mu);
  const double tau = std::max(1.0, std::min(paper, quantile));
  return static_cast<std::uint64_t>(tau);
}

std::uint64_t ElectionParams::distinct_threshold(NodeId n) const {
  // The paper's asymptotic threshold is (c2/2) sqrt(n log n) = walks/2,
  // assuming proxy collisions are negligible (walks << n). At simulable n the
  // walk count is a sizable fraction of n, so we use half the *exact*
  // expected number of distinct proxies under the stationary distribution,
  // E[distinct] = w (1 - 1/n)^{w-1}, which converges to walks/2 as n grows.
  const double w = static_cast<double>(walk_count(n));
  const double expected =
      w * std::pow(1.0 - 1.0 / static_cast<double>(n), w - 1.0);
  return static_cast<std::uint64_t>(std::ceil(0.5 * expected));
}

std::uint32_t ElectionParams::effective_max_length(NodeId n) const {
  if (max_length != 0) return max_length;
  const double cap = 8.0 * static_cast<double>(n) * static_cast<double>(n);
  return static_cast<std::uint32_t>(
      std::min(cap, static_cast<double>(1u << 24)));
}

std::uint64_t ElectionParams::scheduled_T(NodeId n, std::uint32_t t) const {
  const double lg = log2_n(n);
  return static_cast<std::uint64_t>(
      std::ceil((25.0 / 16.0) * c1 * static_cast<double>(t) * lg * lg));
}

std::uint64_t ElectionParams::id_space(NodeId n) const {
  const double space =
      std::pow(static_cast<double>(std::max<NodeId>(n, 2)), 4.0);
  const double cap = 9.0e18;  // stay within uint64
  return static_cast<std::uint64_t>(std::min(space, cap));
}

CongestConfig congest_config_for(const ElectionParams& params, NodeId n) {
  CongestConfig cfg = params.wide_messages ? CongestConfig::wide(n)
                                           : CongestConfig::standard(n);
  if (params.bandwidth_bits != 0) cfg.bandwidth_bits = params.bandwidth_bits;
  cfg.drop_probability = params.drop_probability;
  // Salted so the drop stream is independent of the id/coin/walk streams
  // forked from the same seed.
  cfg.drop_seed = params.seed ^ 0xD209D5EEDull;
  cfg.faults = params.faults;
  // The fault stream gets its own salt; an explicit faults.seed survives so
  // composed protocols (explicit election = election + broadcast, which run
  // on different sub-seeds) can share one set of victims.
  if (cfg.faults.seed == 0) cfg.faults.seed = params.seed ^ 0xFA017C4A5Dull;
  cfg.trace = params.trace;
  cfg.trace_every = params.trace_every;
  cfg.trace_walks = params.trace_walks;
  return cfg;
}

}  // namespace wcle
