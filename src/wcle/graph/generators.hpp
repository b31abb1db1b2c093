// Graph family generators used across tests, examples, and the benchmark
// sweeps. Families mirror those named in the paper: rings (poorly connected),
// tori/grids, cliques (constant conductance), hypercubes, and expanders
// (realized as random d-regular graphs, which are expanders w.h.p. [Bollobas]).
#pragma once

#include <cstdint>

#include "wcle/graph/graph.hpp"
#include "wcle/support/rng.hpp"

namespace wcle {

/// Cycle on n >= 3 nodes. tmix = Theta(n^2), phi = Theta(1/n).
Graph make_ring(NodeId n, Rng* port_rng = nullptr);

/// Simple path on n >= 2 nodes (worst-case connectivity; test fodder).
Graph make_path(NodeId n, Rng* port_rng = nullptr);

/// Complete graph on n >= 2 nodes. phi = Theta(1), tmix = O(1).
Graph make_clique(NodeId n, Rng* port_rng = nullptr);

/// d-dimensional hypercube on 2^dim nodes. tmix = O(log n log log n).
Graph make_hypercube(std::uint32_t dim, Rng* port_rng = nullptr);

/// rows x cols torus (wrap-around 2D grid), rows, cols >= 3.
/// tmix = Theta(max(rows, cols)^2).
Graph make_torus(NodeId rows, NodeId cols, Rng* port_rng = nullptr);

/// rows x cols open grid (no wrap-around), rows, cols >= 2.
Graph make_grid(NodeId rows, NodeId cols, Rng* port_rng = nullptr);

/// Random d-regular simple graph via the pairing/configuration model with
/// rejection-and-repair; requires n*d even, d < n. W.h.p. an expander for
/// d >= 3: tmix = O(log n). Also used for the 4-regular supernode graph GS
/// of the lower-bound construction (Figure 1).
Graph make_random_regular(NodeId n, std::uint32_t d, Rng& rng,
                          Rng* port_rng = nullptr);

/// Erdos-Renyi G(n, p), conditioned on connectivity by resampling (throws
/// after `max_attempts` failures). Useful for irregular-degree coverage.
Graph make_connected_gnp(NodeId n, double p, Rng& rng,
                         Rng* port_rng = nullptr, int max_attempts = 64);

/// Barbell: two cliques of size k joined by a single edge. phi = Theta(1/k^2);
/// the classic poorly-connected stress test.
Graph make_barbell(NodeId k, Rng* port_rng = nullptr);

/// Two cliques of size k joined by a path of length `bridge_len` (>=1 edges).
Graph make_lollipop_pair(NodeId k, NodeId bridge_len, Rng* port_rng = nullptr);

/// Star: center 0 connected to n-1 leaves. phi = Theta(1) but maximally
/// irregular degrees — stress test for the degree-weighted machinery.
Graph make_star(NodeId n, Rng* port_rng = nullptr);

/// Complete bipartite K_{a,b} (a, b >= 1, a+b >= 3). Bipartite: the lazy
/// walk mixes, the non-lazy walk does not (the NonLazy* ablations' family).
Graph make_complete_bipartite(NodeId a, NodeId b, Rng* port_rng = nullptr);

/// Barabasi-Albert preferential attachment: starts from a clique on m0+1
/// nodes, each new node attaches to `m0` distinct existing nodes sampled
/// proportionally to degree. Power-law degrees, small diameter — the
/// unstructured-P2P topology of the paper's motivating applications.
Graph make_barabasi_albert(NodeId n, std::uint32_t m0, Rng& rng,
                           Rng* port_rng = nullptr);

/// Watts-Strogatz small world: ring lattice with k neighbours per side,
/// each lattice edge rewired with probability beta (conditioned on staying
/// simple and connected). Interpolates ring (beta=0) to expander-like.
Graph make_watts_strogatz(NodeId n, std::uint32_t k, double beta, Rng& rng,
                          Rng* port_rng = nullptr, int max_attempts = 64);

}  // namespace wcle
