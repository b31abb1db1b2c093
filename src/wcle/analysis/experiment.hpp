// Experiment helpers: the graph characterization (tmix, conductance bounds)
// every bench row reports next to measured costs, and the theorem envelopes
// that normalize them, so the paper's shapes can be checked directly.
// Repeated seeded trials go through run_trials (wcle/api/trials.hpp).
#pragma once

#include <cstdint>

#include "wcle/graph/graph.hpp"

namespace wcle {

/// Graph characterization for bench rows.
struct GraphProfile {
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t tmix = 0;        ///< estimated mixing time (lazy walk)
  double cheeger_lower = 0.0;    ///< spectral lower bound on phi
  double cheeger_upper = 0.0;
  double sweep_conductance = 0.0;  ///< sweep-cut upper bound on phi
};

/// Profiles `g` (spectral gap + sampled mixing time). `mix_samples` point-mass
/// sources are tried; `max_t` caps the mixing-time search.
GraphProfile profile_graph(const Graph& g, std::uint32_t mix_samples = 4,
                           std::uint64_t max_t = 1u << 22);

/// Theoretical message envelope of Theorem 13: sqrt(n) log^{7/2} n * tmix
/// (constant-free; used to normalize measured curves).
double theorem13_message_envelope(std::uint64_t n, std::uint64_t tmix);

/// Theoretical time envelope of Theorem 13: tmix log^2 n.
double theorem13_time_envelope(std::uint64_t n, std::uint64_t tmix);

/// Lower-bound envelope of Theorem 15: sqrt(n) / phi^{3/4}.
double theorem15_message_envelope(std::uint64_t n, double phi);

}  // namespace wcle
