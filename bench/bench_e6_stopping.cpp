// E6 — Lemmas 3/6, the guess-and-double stopping rule, plus the bandwidth
// and token-coalescing ablations (tests/test_ablations.cpp).
// Paper: every contender stops once t_u = c3 tmix (c3 > 1); guess-and-double
// costs only a constant factor over the final guess. The whole grid —
// families x {standard, wide} bandwidth x {coalesced, naive} tokens — is the
// builtin spec "e6" (`wcle_cli sweep --spec=e6`): final_length is the
// stopping t_u (Theta(tmix)), phases its log, and the wide/coalesce rows
// chart Lemma 12's two regimes in the same table.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "wcle/core/leader_election.hpp"
#include "wcle/graph/generators.hpp"

namespace {

using namespace wcle;

void run_tables() { bench::run_builtin("e6"); }

void BM_StoppingTorus(benchmark::State& state) {
  const Graph g = make_torus(16, 16);
  ElectionParams p;
  std::uint64_t len = 0;
  for (auto _ : state) {
    p.seed += 1;
    len = run_leader_election(g, p).final_length;
  }
  state.counters["stop_t_u"] = static_cast<double>(len);
}
BENCHMARK(BM_StoppingTorus)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

WCLE_BENCH_MAIN(run_tables)
