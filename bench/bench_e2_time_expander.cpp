// E2 — Theorem 13, time complexity on expanders.
// Paper: O(tmix log^2 n) rounds. The sweep is the builtin spec "e2"
// (`wcle_cli sweep --spec=e2`); measured rounds must sit below the paper's
// conservative schedule (scheduled_rounds column — Lemma 12's congestion
// padding), which this binary verifies and annotates with the growth fit.
#include <vector>

#include "bench_common.hpp"
#include "wcle/support/stats.hpp"
#include "wcle/support/table.hpp"

namespace {

using namespace wcle;

void run_tables() {
  const std::vector<CellResult> results = bench::run_builtin("e2");
  std::vector<double> xs, ys;
  bool under_schedule = true;
  for (const CellResult& r : results) {
    xs.push_back(static_cast<double>(r.n));
    ys.push_back(r.stats.rounds.mean);
    // schedule_slack is per-trial (schedule - rounds); its min going
    // negative means some trial exceeded its own Lemma 12 schedule.
    const auto slack = r.stats.extras.find("schedule_slack");
    if (slack != r.stats.extras.end() && slack->second.min < 0.0)
      under_schedule = false;
  }
  const LineFit fit = fit_power_law(xs, ys);
  std::cout << "empirical exponent: rounds ~ n^" << Table::num(fit.slope, 3)
            << "  (theory: polylog only, exponent ~0); rounds <= schedule: "
            << (under_schedule ? "yes (Lemma 12's padding verified)"
                               : "VIOLATED")
            << "\n";
}

}  // namespace

int main() { run_tables(); }
