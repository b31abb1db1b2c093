// E9 — Corollary 14, the explicit variant.
// Paper: explicit election costs O(sqrt(n) log^{7/2} n tmix + n log n / phi)
// messages; the concluding observation is that the broadcast term dominates,
// i.e. "the major communication cost for the explicit variant comes from
// broadcasting the leader information rather than electing". The
// clique/torus sweep is the builtin spec "e9" (`wcle_cli sweep --spec=e9`,
// columns election_messages / broadcast_messages); this binary derives the
// bcast/elect ratio per cell.
#include <vector>

#include "bench_common.hpp"
#include "wcle/support/table.hpp"

namespace {

using namespace wcle;

void run_tables() {
  const std::vector<CellResult> results = bench::run_builtin("e9");
  Table t({"graph", "n", "bcast/elect"});
  for (const CellResult& r : results) {
    const auto elect = r.stats.extras.find("election_messages");
    const auto bcast = r.stats.extras.find("broadcast_messages");
    if (elect == r.stats.extras.end() || bcast == r.stats.extras.end())
      continue;
    t.add_row({r.cell.family, std::to_string(r.n),
               Table::num(bcast->second.mean /
                              std::max(1.0, elect->second.mean), 3)});
  }
  bench::print_report(
      "E9 (derived): Cor 14 cost split", t,
      "asymptotically the n log n / phi broadcast term dominates; at "
      "simulable n the election's log^{7/2} n factor keeps the ratio flat — "
      "crossover estimate ~2^20 nodes");
}

}  // namespace

int main() { run_tables(); }
