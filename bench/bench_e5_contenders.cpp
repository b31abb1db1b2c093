// E5 — Lemma 1, contender concentration.
// Paper: w.h.p. the contender count lies in [3/4 c1 log n, 5/4 c1 log n].
// The sampling sweep is the builtin spec "e5" (`wcle_cli sweep --spec=e5`):
// the registered `contender_stage` diagnostic samples the lottery once per
// trial, so mean(in_window) in the table IS Pr[in window] and mean(zero) is
// the n^{-c1} total-failure rate — illustrating both the lemma and the
// finite-size slack that motivates the threshold correction in
// ElectionParams::intersection_threshold (core/params.cpp).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "wcle/core/params.hpp"
#include "wcle/support/rng.hpp"

namespace {

using namespace wcle;

void run_tables() { bench::run_builtin("e5"); }

std::uint64_t sample_contenders(NodeId n, double p_contender,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t count = 0;
  for (NodeId v = 0; v < n; ++v) count += rng.next_bool(p_contender);
  return count;
}

void BM_ContenderSampling(benchmark::State& state) {
  const NodeId n = static_cast<NodeId>(state.range(0));
  ElectionParams params;
  std::uint64_t seed = 1, last = 0;
  for (auto _ : state)
    last = sample_contenders(n, params.contender_probability(n), seed++);
  state.counters["contenders"] = static_cast<double>(last);
}
BENCHMARK(BM_ContenderSampling)->Arg(65536)->Unit(benchmark::kMicrosecond);

}  // namespace

WCLE_BENCH_MAIN(run_tables)
