#include "wcle/analysis/experiment.hpp"

#include <cmath>

#include "wcle/graph/spectral.hpp"
#include "wcle/support/rng.hpp"

namespace wcle {

GraphProfile profile_graph(const Graph& g, std::uint32_t mix_samples,
                           std::uint64_t max_t) {
  GraphProfile p;
  p.n = g.node_count();
  p.m = g.edge_count();
  Rng rng(0x9a99);
  p.tmix = mixing_time_estimate(g, mix_samples, rng, max_t);
  const double gap = spectral_gap(g);
  const CheegerBounds cb = cheeger_bounds(gap);
  p.cheeger_lower = cb.lower;
  p.cheeger_upper = cb.upper;
  p.sweep_conductance = conductance_sweep(g);
  return p;
}

double theorem13_message_envelope(std::uint64_t n, std::uint64_t tmix) {
  const double lg = std::log2(std::max<double>(2.0, static_cast<double>(n)));
  return std::sqrt(static_cast<double>(n)) * std::pow(lg, 3.5) *
         static_cast<double>(tmix);
}

double theorem13_time_envelope(std::uint64_t n, std::uint64_t tmix) {
  const double lg = std::log2(std::max<double>(2.0, static_cast<double>(n)));
  return static_cast<double>(tmix) * lg * lg;
}

double theorem15_message_envelope(std::uint64_t n, double phi) {
  return std::sqrt(static_cast<double>(n)) / std::pow(phi, 0.75);
}

}  // namespace wcle
