// P2P overlay election — the scenario the paper's introduction motivates:
// large peer-to-peer overlays (Pastry/CAN/Tapestry-style) where scalability
// rules out Omega(m) flooding. Overlay graphs are engineered to be expanders
// (random regular degree ~log n), so the paper's sublinear election applies.
//
// This example compares, on the same overlay, the paper's algorithm against
// flooding election (the classical approach) and then completes the explicit
// variant by broadcasting the leader id — reproducing the paper's conclusion
// that the broadcast, not the election, is the scalable system's bottleneck.
//
//   ./build/examples/p2p_overlay_election [peers] [seed]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "wcle/baselines/candidate_flood.hpp"
#include "wcle/core/explicit_election.hpp"
#include "wcle/graph/generators.hpp"

int main(int argc, char** argv) {
  using namespace wcle;
  const NodeId peers =
      argc > 1 ? static_cast<NodeId>(std::atoi(argv[1])) : 1024;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  // A typical structured-overlay topology: random regular, degree ~ log n.
  std::uint32_t degree = 2;
  while ((NodeId{1} << degree) < peers) ++degree;
  if ((static_cast<std::uint64_t>(peers) * degree) % 2 != 0) ++degree;
  Rng grng(seed);
  const Graph overlay = make_random_regular(peers, degree, grng);
  std::cout << "overlay: " << overlay.describe()
            << " (degree ~ log2 peers)\n\n";

  // --- The paper's algorithm: implicit election + broadcast (Cor. 14).
  ElectionParams params;
  params.seed = seed;
  const ExplicitElectionResult ours = run_explicit_election(overlay, params);

  // --- Classical alternative: candidates flood their ids (Omega(m) regime).
  const CandidateFloodResult flood = run_candidate_flood(overlay, seed);

  std::cout << std::left << std::setw(34) << "approach" << std::setw(16)
            << "CONGEST msgs" << std::setw(10) << "rounds"
            << "outcome\n"
            << std::string(70, '-') << "\n";
  std::cout << std::setw(34) << "paper: implicit election"
            << std::setw(16) << ours.election.totals.congest_messages
            << std::setw(10) << ours.election.totals.rounds
            << (ours.election.success() ? "1 leader" : "failed") << "\n";
  std::cout << std::setw(34) << "paper: + push-pull broadcast"
            << std::setw(16) << ours.broadcast.totals.congest_messages
            << std::setw(10) << ours.broadcast.rounds
            << (ours.broadcast.complete ? "all informed" : "incomplete")
            << "\n";
  std::cout << std::setw(34) << "classical: candidate flooding"
            << std::setw(16) << flood.totals.congest_messages << std::setw(10)
            << flood.rounds << (flood.success() ? "1 leader" : "failed")
            << "\n\n";

  const double bcast_share =
      100.0 * double(ours.broadcast.totals.congest_messages) /
      double(ours.total_congest_messages());
  std::cout << "broadcast share of the explicit variant: " << std::fixed
            << std::setprecision(1) << bcast_share << "%\n"
            << "scaling note: election grows ~sqrt(peers) x polylog while "
               "broadcast and flooding grow ~linearly in peers x degree — at "
            << peers
            << " peers the polylog constants still dominate; the paper's "
               "asymptotic ordering (broadcast > election, election < "
               "flooding) takes over on larger / denser overlays (see "
               "wcle_cli sweep --spec=e4 and --spec=e9 for the "
               "crossovers).\n";
  return ours.success ? 0 : 1;
}
