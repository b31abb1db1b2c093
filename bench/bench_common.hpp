// Thin scaffolding for the experiment programs, which since the sweep engine
// are mostly declarative: each program runs its builtin ExperimentSpec
// (wcle/api/scenario.hpp) through the sweep engine and prints the
// paper-style table — the exact table `wcle_cli sweep --spec=eK` reproduces
// — plus the derived and supplemental proof-mechanism tables that are not
// sweep-shaped.
// Sweep sizes honour the WCLE_BENCH_SCALE env var (0 = quick, 1 = default,
// 2 = extended) so CI and laptops can trade depth for time.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "wcle/api/scenario.hpp"
#include "wcle/api/sink.hpp"
#include "wcle/api/sweep.hpp"
#include "wcle/support/table.hpp"

namespace wcle::bench {

/// Runs `spec` through the sweep engine with the paper-style table sink and
/// returns the per-cell results for bespoke post-analysis (power-law fits,
/// envelope ratios, ...).
inline std::vector<CellResult> run_spec(const ExperimentSpec& spec) {
  TableSink sink(std::cout);
  return run_sweep(spec, {&sink});
}

/// Convenience: the builtin experiment at the ambient scale.
inline std::vector<CellResult> run_builtin(const std::string& name) {
  return run_spec(builtin_experiment(name, default_bench_scale()));
}

/// Prints a supplemental banner + table + note (for the proof-mechanism
/// illustrations that are not sweep-shaped).
inline void print_report(const std::string& title, const Table& table,
                         const std::string& note = {}) {
  std::cout << "\n=== " << title << " ===\n";
  table.print(std::cout);
  if (!note.empty()) std::cout << note << "\n";
  std::cout.flush();
}

}  // namespace wcle::bench
