// The declarative experiment surface: an ExperimentSpec names an algorithm
// (registry key), a graph family (family registry key), and value grids over
// every scenario axis the harness understands — n, trials, bandwidth regime,
// message-drop probability, and the RunOptions knobs. The sweep engine
// (sweep.hpp) expands the grid into cells and executes them; the sinks
// (sink.hpp) render the streamed results. Every experiment bench E1-E13 is a
// builtin spec here, so any table in the repo is reproducible from
// `wcle_cli sweep --spec=eK` alone.
//
// Grid grammar (one token per axis, parse_spec):
//
//   algo=election,flood_max      algorithm axis ("all" = whole registry)
//   family=expander,torus        family axis (parameterized families use
//                                ':', e.g. lowerbound:0.004, dumbbell:torus)
//   n=256,512,1024               size axis
//   bandwidth=standard,wide,256  transport axis: named regime or raw bits
//   drop=0,0.01,0.1              fault axis: per-message loss probability
//   crash=0,0.1,0.3              fault axis: crash-stop node fraction
//   linkfail=0,0.05              fault axis: failed-link fraction
//   adversary=random,degree,contenders   fault axis: victim strategy
//   trials=5  base-seed=1000  graph-seed=1        scalars (no grids)
//   reliable=1                   drop (algo, graph) cells outside the
//                                algorithm's w.h.p. domain (reliable_on)
//   extras=phases,final_length   TrialStats extras keys added as table
//                                columns (mean); JSONL always carries all
//   name=e1  title=...           identification (no grids)
//
// Any other key must be one of the 22 RunOptions knobs (knob_names()) and
// grids like the axes above:
//   budget= c1= c2= churn= churn-end= churn-start= coalesce= crash-round=
//   initial-length= lazy-walks= linkfail-round= max-length= max-phases=
//   max-rounds= paper-schedule= source= tmix= tmix-mult= trace-every=
//   trace-walks= value-bits= wide=
//
// Cells expand in a fixed documented order — family (outer), n, algorithm,
// bandwidth, drop, crash, linkfail, adversary, then knob combinations (knob
// keys alphabetical, values in listed order) — and every cell's trials reuse
// the same base seed, so two cells differing in one axis are seed-paired
// comparisons.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "wcle/api/algorithm.hpp"

namespace wcle {

struct ExperimentSpec {
  std::string name = "custom";  ///< spec id (builtin: e1..e13)
  std::string title;            ///< banner printed by the table sinks
  std::string note;             ///< trailing commentary under the table
  std::vector<std::string> algorithms{"election"};
  std::vector<std::string> families{"expander"};
  std::vector<std::uint64_t> sizes{512};
  std::vector<std::string> bandwidths{"standard"};
  std::vector<double> drops{0.0};
  std::vector<double> crashes{0.0};
  std::vector<double> linkfails{0.0};
  std::vector<std::string> adversaries{"random"};
  /// RunOptions knob grids, keyed by the CLI spellings listed above.
  /// Alphabetical key order defines the expansion order.
  std::map<std::string, std::vector<std::string>> knobs;
  std::vector<std::string> table_extras;  ///< extras keys shown as columns
  int trials = 5;
  std::uint64_t base_seed = 1000;
  std::uint64_t graph_seed = 1;
  bool skip_unreliable = false;

  /// Number of grid cells the spec expands to (before reliable_on filtering).
  std::size_t cell_count() const;

  /// The spec re-serialized in the grid grammar (a reproducibility line:
  /// `wcle_cli sweep <to_string()>` re-runs the experiment).
  std::string to_string() const;
};

/// Parses grid-grammar tokens (each "key=v1,v2,..."). Throws
/// std::invalid_argument on unknown keys, malformed values, empty grids, or
/// unknown algorithm names. Graph family names are validated lazily by
/// make_family at sweep time (parameterized values need the size to build).
ExperimentSpec parse_spec(const std::vector<std::string>& tokens);

/// Same, splitting `text` on whitespace.
ExperimentSpec parse_spec(const std::string& text);

/// Applies grid-grammar tokens on top of `base` (e.g. a builtin experiment):
/// the first mention of an axis key replaces that axis of the base, repeated
/// mentions append, and axes the tokens never name keep the base's grids.
ExperimentSpec parse_spec_onto(ExperimentSpec base,
                               const std::vector<std::string>& tokens);

/// Applies one knob to `options`. Throws std::invalid_argument for an
/// unknown key or malformed value. The key set is shared with the parser
/// and single_run_spec: all three read one table of run options.
void apply_knob(RunOptions& options, const std::string& key,
                const std::string& value);

/// Applies one bandwidth-axis value ("standard", "wide", or raw bits).
void apply_bandwidth(RunOptions& options, const std::string& value);

/// The canonical one-cell spec for a single `run`/`trials` invocation: the
/// spec whose sweep expansion reproduces exactly `options` (trace pointer
/// aside) on graph (family, n, graph_seed), trial seeds base_seed.. — the
/// replayable identity written into trace headers. A knob is emitted exactly
/// when its canonical text differs from the default's (numbers round-trip
/// exactly); `wide` only alongside a raw-bits bandwidth.
/// Throws std::invalid_argument for options the grammar cannot express
/// (explicit fault seed, pinned crash victims).
ExperimentSpec single_run_spec(const std::string& algorithm,
                               const std::string& family, std::uint64_t n,
                               int trials, std::uint64_t base_seed,
                               std::uint64_t graph_seed,
                               const RunOptions& options);

struct SweepCell;

/// The canonical identity of one sweep cell: the one-cell replayable spec
/// (single_run_spec over the cell's resolved options, carrying the parent
/// spec's trials/base_seed/graph_seed) rendered by ExperimentSpec::
/// to_string(). Two cells share a key exactly when they are the same
/// computation — same algorithm, graph family/size/seed, resolved knobs,
/// trial count, and trial seeds — regardless of which grid they came from
/// or their position in it. This string is what trace headers record for
/// single runs and what the serve CellCache keys on.
std::string canonical_cell_key(const ExperimentSpec& spec,
                               const SweepCell& cell);

/// All recognized knob keys, sorted.
std::vector<std::string> knob_names();

/// The builtin experiment registry: E1-E14 as specs, sized by `scale`
/// (0 = smoke/CI, 1 = default, 2 = extended — the WCLE_BENCH_SCALE levels).
/// Throws std::invalid_argument for an unknown name.
ExperimentSpec builtin_experiment(const std::string& name, int scale = 1);

/// Names of all builtin experiments, in e1..e14 order.
std::vector<std::string> builtin_experiment_names();

/// One-line summaries (name -> title) for `wcle_cli list`.
std::vector<std::pair<std::string, std::string>> builtin_experiment_titles();

/// WCLE_BENCH_SCALE from the environment; 1 when unset. Throws
/// std::invalid_argument naming the variable for any value but 0, 1 or 2.
int default_bench_scale();

}  // namespace wcle
