// E10 — Corollaries 26/27: broadcast and spanning-tree construction need
// Omega(n / sqrt(phi)) messages.
// On G(alpha), any broadcast must discover all N = n^{1-eps} cliques at
// Omega(n^{2eps}) messages each. The three-algorithm alpha sweep is the
// builtin spec "e10" (`wcle_cli sweep --spec=e10`); this binary normalizes
// every cell by the n/sqrt(phi) envelope: the ratio must stay >= a constant
// (no algorithm can go below the bound) and track its growth as alpha
// shrinks.
#include <cmath>
#include <vector>

#include "bench_common.hpp"
#include "wcle/graph/families.hpp"
#include "wcle/support/table.hpp"

namespace {

using namespace wcle;

void run_tables() {
  const std::vector<CellResult> results = bench::run_builtin("e10");
  Table t({"alpha", "n", "algorithm", "envelope n/sqrt(phi)",
           "msgs/envelope"});
  for (const CellResult& r : results) {
    const double alpha = lowerbound_alpha(r.cell.family);
    const double envelope =
        static_cast<double>(r.n) / std::sqrt(alpha);
    t.add_row({Table::num(alpha, 3), std::to_string(r.n), r.cell.algorithm,
               Table::num(envelope),
               Table::num(r.stats.congest_messages.mean / envelope, 3)});
  }
  bench::print_report(
      "E10 (derived): Corollaries 26/27 normalization", t,
      "every ratio must stay >= Omega(1): no broadcast or ST algorithm can "
      "beat n/sqrt(phi) on this family");
}

}  // namespace

int main() { run_tables(); }
