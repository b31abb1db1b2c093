// The sweep engine: expands an ExperimentSpec's grid into cells, executes
// every cell through the run_trials worker pool, and streams each cell's
// TrialStats to the attached sinks in deterministic cell order. Cells run in
// parallel across a worker pool, but a cell's trials always use the
// single-threaded trial path and results are emitted in expansion order —
// so the streamed output is bit-identical for ANY thread count (the same
// guarantee run_trials gives within one cell, lifted to the whole grid).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "wcle/api/scenario.hpp"
#include "wcle/api/trials.hpp"

namespace wcle {

class Sink;
class TraceWriter;

/// One point of the expanded grid. `options` is fully resolved (knobs,
/// bandwidth regime, drop probability applied); run_trials supplies the
/// per-trial seeds on top of it.
struct SweepCell {
  std::size_t index = 0;  ///< position in expansion order (post-filter)
  std::string algorithm;
  std::string family;
  std::string bandwidth;
  std::uint64_t requested_n = 0;
  double drop = 0.0;
  double crash = 0.0;
  double linkfail = 0.0;
  std::string adversary = "random";
  std::vector<std::pair<std::string, std::string>> knobs;  ///< resolved
  RunOptions options;
};

/// A finished cell: the resolved graph shape plus the aggregated trials.
struct CellResult {
  SweepCell cell;
  std::uint64_t n = 0;  ///< actual node count after family snapping
  std::uint64_t m = 0;  ///< edge count
  TrialStats stats;
};

/// Expands the grid in the documented axis order (family, n, algorithm,
/// bandwidth, drop, crash, linkfail, adversary, knob combinations).
/// Validates algorithm names against the registry and every cell's fault
/// plan (FaultPlan::validate); family strings are validated when the graphs
/// are built.
std::vector<SweepCell> expand_cells(const ExperimentSpec& spec);

/// The exact cell list run_sweep executes: expand_cells plus the
/// skip_unreliable filter (which needs the graphs — an election algorithm
/// that is unreliable on a given family/size is dropped and the survivors
/// re-indexed). Anything that schedules cells independently of run_sweep
/// (the serve job queue) MUST use this, not expand_cells, or its cell
/// indices — and therefore its output bytes — drift from the CLI's.
std::vector<SweepCell> sweep_cells(const ExperimentSpec& spec);

/// Runs one cell exactly as run_sweep would: builds the (family, n) graph
/// with spec.graph_seed, runs spec.trials seeded trials on the
/// single-threaded trial path. Deterministic: depends only on (spec, cell),
/// so results are safe to cache under canonical_cell_key and bit-identical
/// to the same cell inside a full run_sweep.
CellResult run_sweep_cell(const ExperimentSpec& spec, const SweepCell& cell);

/// Runs the sweep: builds each distinct (family, n) graph once, filters
/// unreliable (algorithm, graph) cells when spec.skip_unreliable is set,
/// executes the remaining cells on `threads` workers (0 = hardware
/// concurrency), and streams results to `sinks` in cell order. Returns the
/// results in the same order. Output is independent of `threads`.
///
/// A non-null `trace` (trace/writer.hpp) additionally records every trial's
/// per-round timeline: runs stream to the writer in (cell, trial) order —
/// byte-identical for any worker count — and the writer's trailer is
/// emitted after the last cell. The caller writes the header before calling.
/// Tracing is observational only: aggregates, sink bytes, and return value
/// are unchanged.
std::vector<CellResult> run_sweep(const ExperimentSpec& spec,
                                  const std::vector<Sink*>& sinks = {},
                                  unsigned threads = 0,
                                  TraceWriter* trace = nullptr);

}  // namespace wcle
