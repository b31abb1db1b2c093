// E11 — Theorem 28: without knowledge of n, leader election costs Omega(m).
// The correct-n elections on dumbbells are the builtin spec "e11"
// (`wcle_cli sweep --spec=e11`, families dumbbell:<base>). The proof's
// engine — indistinguishability until a bridge crossing — is not
// sweep-shaped, so this binary keeps the supplemental demonstration:
//   (a) wrong-n split brain: running the paper's algorithm per side (the
//       behavior indistinguishability forces) yields 2 leaders overall;
//   (b) bridge-crossing cost: random port probing from within one side needs
//       ~m/2 probes in expectation to find a bridge port (Lemma 18's
//       argument specialized to the two bridge edges among 2m ports).
#include <vector>

#include "bench_common.hpp"
#include "wcle/core/leader_election.hpp"
#include "wcle/graph/dumbbell.hpp"
#include "wcle/graph/generators.hpp"
#include "wcle/support/table.hpp"

namespace {

using namespace wcle;

void run_tables() {
  bench::run_builtin("e11");

  const int sc = default_bench_scale();
  struct Case {
    const char* name;
    Graph base;
  };
  std::vector<Case> cases;
  cases.push_back({"torus_8x8", make_torus(8, 8)});
  cases.push_back({"hypercube_64", make_hypercube(6)});
  if (sc >= 1) {
    Rng grng(0xEB001);
    cases.push_back({"expander6_128", make_random_regular(128, 6, grng)});
    cases.push_back({"torus_12x12", make_torus(12, 12)});
  }

  Table t({"base G0", "m(dumbbell)", "split-brain leaders", "true-n leaders",
           "E[probes to cross bridge]", "~m/2"});
  for (const Case& c : cases) {
    Rng drng(0xEB100);
    const DumbbellGraph d = make_random_dumbbell(c.base, drng);

    // (a) wrong n: each side runs believing n = |G0| — by Observation 31 the
    // two halves behave exactly as two independent runs on G0.
    ElectionParams p;
    p.seed = 0xEB200;
    const ElectionResult left = run_leader_election(c.base, p);
    p.seed = 0xEB201;
    const ElectionResult right = run_leader_election(c.base, p);
    const std::size_t split = left.leaders.size() + right.leaders.size();

    // (b) true n on the dumbbell.
    p.seed = 0xEB202;
    const ElectionResult whole = run_leader_election(d.graph, p);

    // (c) expected probes to hit one of the 2 bridge ports among ~2m ports
    // when probing previously-unprobed ports uniformly (hypergeometric mean).
    const double ports = 2.0 * static_cast<double>(d.graph.edge_count());
    const double expected_probes = (ports + 1.0) / 3.0;  // E[min of 2 of N]

    t.add_row({c.name, std::to_string(d.graph.edge_count()),
               std::to_string(split), std::to_string(whole.leaders.size()),
               Table::num(expected_probes),
               Table::num(static_cast<double>(d.graph.edge_count()) / 2.0)});
  }
  bench::print_report(
      "E11b: Theorem 28 — unknown n forces Omega(m) (dumbbell split brain)",
      t,
      "split-brain leaders = 2 (one per indistinguishable half); true-n "
      "leaders = 1; bridge discovery costs Theta(m) port probes");
}

}  // namespace

int main() { run_tables(); }
