// E12 — what does *not* knowing tmix cost? (the paper vs Kutten et al. [25]
// vs estimate-then-elect [29])
// The paper's contribution over [25] is removing the assumption that nodes
// know tmix, at the price of guess-and-double phases and the congestion pad;
// the rejected third option estimates tmix distributedly first (Omega(m)
// messages) and then runs [25]. All three run under identical conditions in
// the builtin spec "e12" (`wcle_cli sweep --spec=e12`); this binary derives
// the message/round overhead ratios per family, which theory caps at
// O(log^2 n) in time and a constant factor in walk stages.
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "wcle/support/table.hpp"

namespace {

using namespace wcle;

void run_tables() {
  const std::vector<CellResult> results = bench::run_builtin("e12");
  // Regroup by family: ours vs the two tmix-knowledge baselines.
  struct Row {
    double msgs = 0, rounds = 0;
  };
  std::map<std::string, std::map<std::string, Row>> by_family;
  for (const CellResult& r : results)
    by_family[r.cell.family + "_" + std::to_string(r.n)][r.cell.algorithm] = {
        r.stats.congest_messages.mean, r.stats.rounds.mean};
  Table t({"graph", "msgs ours/known", "rounds ours/known",
           "msgs est+elect/ours"});
  for (const auto& [family, algos] : by_family) {
    const auto ours = algos.find("election");
    const auto known = algos.find("known_tmix");
    const auto est = algos.find("estimate_then_elect");
    if (ours == algos.end() || known == algos.end() || est == algos.end())
      continue;
    t.add_row({family,
               Table::num(ours->second.msgs / known->second.msgs, 3),
               Table::num(ours->second.rounds / known->second.rounds, 3),
               Table::num(est->second.msgs / ours->second.msgs, 3)});
  }
  bench::print_report(
      "E12 (derived): the price of not knowing tmix", t,
      "ours/known quantifies guess-and-double + exchange overhead (theory: "
      "O(log^2 n) in rounds); est+elect/ours > 1 is the Omega(m) estimation "
      "fee that makes the [29] route lose");
}

}  // namespace

int main() { run_tables(); }
