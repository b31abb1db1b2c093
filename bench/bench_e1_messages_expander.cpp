// E1 — Theorem 13, message complexity on expanders.
// Paper: implicit leader election costs O(sqrt(n) log^{7/2} n * tmix) CONGEST
// messages; on expanders (tmix = O(log n)) that is O~(sqrt n) — sublinear in
// both n and m. The sweep itself is declarative (builtin spec "e1",
// reproducible via `wcle_cli sweep --spec=e1`); this binary adds the
// empirical growth-exponent fit (should be ~0.5 + o(1)).
#include <vector>

#include "bench_common.hpp"
#include "wcle/support/stats.hpp"
#include "wcle/support/table.hpp"

namespace {

using namespace wcle;

void run_tables() {
  const std::vector<CellResult> results = bench::run_builtin("e1");
  std::vector<double> xs, ys, ratios;
  for (const CellResult& r : results) {
    xs.push_back(static_cast<double>(r.n));
    ys.push_back(r.stats.congest_messages.mean);
    ratios.push_back(r.stats.congest_messages.mean /
                     static_cast<double>(r.m));
  }
  const LineFit fit = fit_power_law(xs, ys);
  std::cout << "empirical exponent: messages ~ n^" << Table::num(fit.slope, 3)
            << "  (theory: 0.5 + polylog); msgs/m "
            << Table::num(ratios.front(), 3) << " -> "
            << Table::num(ratios.back(), 3)
            << " (must shrink: sublinear in m)\n";
}

}  // namespace

int main() { run_tables(); }
