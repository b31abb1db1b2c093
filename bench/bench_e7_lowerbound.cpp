// E7 — Theorem 15, the message lower bound Omega(sqrt(n)/phi^{3/4}).
// Two views, both on the Section-4.1 graph G(alpha):
//   (a) the election sweep over alpha is the builtin spec "e7"
//       (`wcle_cli sweep --spec=e7`, families lowerbound:<alpha>); this
//       binary adds the sandwich check: the measured messages must sit
//       above the Theorem 15 lower envelope sqrt(n)/phi^{3/4};
//   (b) the proof's mechanism: a message-budgeted neighborhood explorer
//       (each clique spends its budget probing random ports, as in Lemma 18)
//       discovers few inter-clique edges when the budget is o(n^{2eps}),
//       leaving the clique-communication graph CG shattered into components —
//       precisely the 0-or-many-leaders failure mode of Lemmas 19-25.
#include <cmath>
#include <functional>
#include <vector>

#include "bench_common.hpp"
#include "wcle/analysis/experiment.hpp"
#include "wcle/graph/families.hpp"
#include "wcle/graph/lower_bound_graph.hpp"
#include "wcle/support/table.hpp"

namespace {

using namespace wcle;

/// Simulates Lemma 18's port-probing bound: each clique opens `budget` of its
/// ~s^2 ports uniformly at random; an inter-clique edge (4 per clique) is
/// found only if one of its ports is opened. Returns the number of connected
/// components of the resulting clique-communication graph CG.
std::uint64_t shattered_components(const LowerBoundGraph& lb,
                                   std::uint64_t budget_per_clique, Rng& rng) {
  const NodeId N = lb.num_cliques;
  const double total_ports = static_cast<double>(lb.clique_size) *
                             static_cast<double>(lb.clique_size - 1);
  const double p_find_one = std::min(
      1.0, static_cast<double>(budget_per_clique) / total_ports);
  // Union-find over cliques; each inter-clique edge is discovered if either
  // endpoint clique probes its port.
  std::vector<NodeId> parent(N);
  for (NodeId i = 0; i < N; ++i) parent[i] = i;
  std::function<NodeId(NodeId)> find = [&](NodeId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const Edge& e : lb.inter_clique_edges) {
    const bool found = rng.next_bool(p_find_one) || rng.next_bool(p_find_one);
    if (!found) continue;
    const NodeId a = find(lb.clique_of[e.a]), b = find(lb.clique_of[e.b]);
    if (a != b) parent[a] = b;
  }
  std::uint64_t components = 0;
  for (NodeId i = 0; i < N; ++i)
    if (find(i) == i) ++components;
  return components;
}

void run_tables() {
  // (a) the sweep plus the sandwich envelopes. The Theorem 13 upper
  // envelope needs each cell's tmix, so the graph is rebuilt from the
  // spec's (family, n, graph_seed) — by construction the same graph the
  // sweep ran on — and profiled.
  const ExperimentSpec spec = builtin_experiment("e7", default_bench_scale());
  const std::vector<CellResult> results = bench::run_spec(spec);
  Table t({"alpha", "n", "lower env", "msgs(mean)", "upper env",
           "msgs/lower", "msgs/upper"});
  for (const CellResult& r : results) {
    const double alpha = lowerbound_alpha(r.cell.family);
    const double lower = theorem15_message_envelope(r.n, alpha);
    const Graph g = make_family(r.cell.family,
                                static_cast<NodeId>(r.cell.requested_n),
                                spec.graph_seed);
    const GraphProfile prof = profile_graph(g, 2);
    const double upper = theorem13_message_envelope(r.n, prof.tmix);
    t.add_row({Table::num(alpha, 3), std::to_string(r.n), Table::num(lower),
               Table::num(r.stats.congest_messages.mean), Table::num(upper),
               Table::num(r.stats.congest_messages.mean / lower, 3),
               Table::num(r.stats.congest_messages.mean / upper, 3)});
  }
  bench::print_report(
      "E7a (derived): Theorem 15 sandwich", t,
      "msgs/lower must stay >= 1 (no algorithm can beat the envelope) and "
      "msgs/upper <= O(1) (Theorem 13 bounds it from above)");

  // (b) the proof mechanism: budget vs CG shattering.
  const int sc = default_bench_scale();
  const NodeId n = sc >= 2 ? 1200 : (sc == 1 ? 700 : 500);
  Rng grng(0xE7999);
  const LowerBoundGraph lb = make_lower_bound_graph(n, 0.003, grng);
  const double s2 = static_cast<double>(lb.clique_size) *
                    static_cast<double>(lb.clique_size);
  Table t2({"budget/clique (x s^2)", "CG components (mean)", "shattered?"});
  for (const double frac : {0.01, 0.05, 0.25, 1.0, 4.0}) {
    const std::uint64_t budget = static_cast<std::uint64_t>(frac * s2);
    double comps = 0;
    const int reps = 20;
    Rng rng(0xE7B00);
    for (int i = 0; i < reps; ++i)
      comps += static_cast<double>(shattered_components(lb, budget, rng));
    comps /= reps;
    t2.add_row({Table::num(frac, 3), Table::num(comps, 4),
                comps > 1.5 ? "yes -> 0 or >=2 leaders" : "no"});
  }
  bench::print_report(
      "E7b: Lemmas 18-20 — message budget vs clique-graph shattering", t2,
      "budgets below ~s^2 = Theta(n^{2eps}) per clique leave CG disconnected "
      "(components > 1), forcing the 0-or-multiple-leader failure of the "
      "proof; budgets >= s^2 connect it");
}

}  // namespace

int main() { run_tables(); }
