// E3 — Theorem 13 on hypercubes.
// Paper: hypercubes have tmix = O(log n log log n), so election takes
// O(log^3 n log log n) time and O(sqrt(n) log^{9/2} n log log n) messages.
// The dimension sweep is the builtin spec "e3" (`wcle_cli sweep --spec=e3`);
// this binary normalizes the measured messages by the hypercube-specialized
// envelope (the ratio must stay flat-ish across dims).
#include <cmath>
#include <vector>

#include "bench_common.hpp"
#include "wcle/support/table.hpp"

namespace {

using namespace wcle;

void run_tables() {
  const std::vector<CellResult> results = bench::run_builtin("e3");
  Table t({"n", "msg_envelope", "msgs/envelope", "time_envelope"});
  for (const CellResult& r : results) {
    const double lg = std::log2(static_cast<double>(r.n));
    const double msg_env = std::sqrt(static_cast<double>(r.n)) *
                           std::pow(lg, 4.5) * std::log2(lg + 1.0);
    const double time_env = std::pow(lg, 3.0) * std::log2(lg + 1.0);
    t.add_row({std::to_string(r.n), Table::num(msg_env),
               Table::num(r.stats.congest_messages.mean / msg_env, 3),
               Table::num(time_env)});
  }
  bench::print_report(
      "E3 (derived): hypercube corollary envelopes", t,
      "msgs/envelope flat-ish across dims confirms the hypercube corollary");
}

}  // namespace

int main() { run_tables(); }
