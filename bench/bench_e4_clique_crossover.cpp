// E4 — cliques: sublinearity in m and the crossover against flooding.
// Paper: on constant-conductance graphs the algorithm nearly matches the
// Kutten et al. [25] Omega(sqrt n) bound and, combined with broadcast, breaks
// the Omega(m) bound of [24] for explicit election. The four-algorithm
// clique sweep is the builtin spec "e4" (`wcle_cli sweep --spec=e4`); this
// binary derives the ours/m and flood/ours crossover ratios from the cells.
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "wcle/support/table.hpp"

namespace {

using namespace wcle;

void run_tables() {
  const std::vector<CellResult> results = bench::run_builtin("e4");
  // Regroup cells by n: ours vs the flooding baselines on the same clique.
  std::map<std::uint64_t, std::map<std::string, double>> by_n;
  std::map<std::uint64_t, double> edges;
  for (const CellResult& r : results) {
    by_n[r.n][r.cell.algorithm] = r.stats.congest_messages.mean;
    edges[r.n] = static_cast<double>(r.m);
  }
  Table t({"n", "ours/m", "cand_flood/ours", "flood_max/ours",
           "referee[25]/ours"});
  for (const auto& [n, algos] : by_n) {
    const double ours = algos.at("election");
    t.add_row({std::to_string(n), Table::num(ours / edges.at(n), 3),
               Table::num(algos.at("candidate_flood") / ours, 3),
               Table::num(algos.at("flood_max") / ours, 3),
               Table::num(algos.at("clique_referee") / ours, 3)});
  }
  bench::print_report(
      "E4 (derived): sublinearity and crossover ratios", t,
      "ours/m must shrink toward 0; the flooding ratios must grow past 1 "
      "(crossover); referee[25] stays cheaper by the walk/exchange polylogs");
}

}  // namespace

int main() { run_tables(); }
