// E8 — Lemma 16 / Figures 1-2: phi(G(alpha)) = Theta(alpha).
// The alpha sweep is the builtin spec "e8" (`wcle_cli sweep --spec=e8`): the
// registered `graph_profile` diagnostic reports the sweep-cut conductance,
// the Cheeger bounds, and the tmix estimate per lowerbound:<alpha> family.
// This binary adds the sweep/alpha normalization and the Claim 17
// illustration (the optimal cut avoids the cliques).
#include <vector>

#include "bench_common.hpp"
#include "wcle/graph/families.hpp"
#include "wcle/graph/lower_bound_graph.hpp"
#include "wcle/graph/spectral.hpp"
#include "wcle/support/table.hpp"

namespace {

using namespace wcle;

void run_tables() {
  const std::vector<CellResult> results = bench::run_builtin("e8");
  Table t({"alpha", "sweep_phi/alpha"});
  for (const CellResult& r : results) {
    const double alpha = lowerbound_alpha(r.cell.family);
    const auto phi = r.stats.extras.find("sweep_phi");
    if (phi == r.stats.extras.end()) continue;
    t.add_row({Table::num(alpha, 3), Table::num(phi->second.mean / alpha, 3)});
  }
  bench::print_report(
      "E8 (derived): Lemma 16 normalization", t,
      "sweep_phi/alpha must stay within a constant band across the sweep");

  // Claim 17 illustration: the minimum whole-clique cut vs clique-splitting.
  const int sc = default_bench_scale();
  const NodeId n = sc >= 2 ? 4000 : (sc == 1 ? 2000 : 800);
  Rng grng(0xE8010);
  const LowerBoundGraph lb = make_lower_bound_graph(n, 0.004, grng);
  std::vector<char> one_clique(lb.graph.node_count(), 0);
  for (NodeId v = 0; v < lb.clique_size; ++v) one_clique[v] = 1;
  std::vector<char> half_clique(lb.graph.node_count(), 0);
  for (NodeId v = 0; v < lb.clique_size / 2; ++v) half_clique[v] = 1;
  Table t2({"cut shape", "conductance"});
  t2.add_row({"whole clique (only inter-clique edges cut)",
              Table::num(cut_conductance(lb.graph, one_clique), 4)});
  t2.add_row({"half clique (cut passes through a clique)",
              Table::num(cut_conductance(lb.graph, half_clique), 4)});
  bench::print_report(
      "E8b: Claim 17 — optimal cuts avoid the cliques", t2,
      "the whole-clique cut must be far cheaper than any clique-splitting cut");
}

}  // namespace

int main() { run_tables(); }
