// wcle_cli — the library as a command-line tool, driven by the algorithm
// registry and the sweep engine: every protocol (the paper's election and
// all baselines) and every experiment (E1-E14) is runnable through one
// surface.
//
//   wcle_cli list                          algorithms + families + specs
//   wcle_cli run    --algo=election --family=expander --n=1024 --seed=7
//                   [--crash=0.2 --linkfail=0.05 --adversary=contenders]
//   wcle_cli trials --algo=flood_max --family=hypercube --n=256 --trials=20
//                   [--threads=8] [--base-seed=1000] [--format=json|csv]
//   wcle_cli sweep  --spec=e1 [--scale=0|1|2] [--format=text|csv|jsonl]
//   wcle_cli sweep  algo=election family=expander n=256,512,1024 trials=5
//                   drop=0,0.05 crash=0,0.2 bandwidth=standard,wide  (grid)
//   wcle_cli sweep  --family=hypercube --from=64 --to=1024 --trials=3
//                   (doubling-sweep sugar for the grid engine)
//
// run/trials take every grid-grammar run option and fault axis as
// --key=value (--c1= --wide --max-phases= --drop= --crash= --churn= ...;
// see api/scenario.hpp), one value each: grids belong to `sweep`.
// Unrecognized options produce a warning on stderr (typo protection).
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <fstream>
#include <thread>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "wcle/analysis/cli.hpp"
#include "wcle/analysis/experiment.hpp"
#include "wcle/api/registry.hpp"
#include "wcle/api/scenario.hpp"
#include "wcle/api/serialize.hpp"
#include "wcle/api/sink.hpp"
#include "wcle/api/sweep.hpp"
#include "wcle/api/trials.hpp"
#include "wcle/graph/families.hpp"
#include "wcle/obs/congestion.hpp"
#include "wcle/serve/server.hpp"
#include "wcle/obs/perfetto.hpp"
#include "wcle/obs/walks.hpp"
#include "wcle/support/table.hpp"
#include "wcle/trace/reader.hpp"
#include "wcle/trace/recorder.hpp"
#include "wcle/api/replay.hpp"
#include "wcle/trace/summarize.hpp"
#include "wcle/trace/writer.hpp"

namespace {

using namespace wcle;

// get_u64 with a 32-bit range check: --n / --tmix etc. must not silently
// wrap through static_cast (a wrapped-to-zero --tmix would flip known_tmix
// into its "estimate the oracle" path, the opposite of an explicit hint).
std::uint32_t get_u32(const CliArgs& args, const std::string& key,
                      std::uint32_t fallback) {
  const std::uint64_t v = args.get_u64(key, fallback);
  if (v > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("--" + key + "=" + std::to_string(v) +
                                " exceeds the 32-bit limit");
  return static_cast<std::uint32_t>(v);
}

/// get_u64 bounded to int for counts (--trials): no silent wrap to 0.
int get_count(const CliArgs& args, const std::string& key, int fallback) {
  const std::uint64_t v =
      args.get_u64(key, static_cast<std::uint64_t>(fallback));
  if (v > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
    throw std::invalid_argument("--" + key + "=" + std::to_string(v) +
                                " exceeds the supported range");
  return static_cast<int>(v);
}

/// Shared --format parsing: validates against the command's allowed set so
/// run/trials/sweep agree on spelling and error text.
std::string parse_format(const CliArgs& args,
                         const std::vector<std::string>& allowed) {
  const std::string format = args.get("format", allowed.front());
  for (const std::string& name : allowed)
    if (format == name) return format;
  std::string known;
  for (const std::string& name : allowed)
    known += (known.empty() ? "" : ", ") + name;
  throw std::invalid_argument("unknown --format=" + format + " (" + known +
                              ")");
}

/// Shared sink selection for the sweep-style commands ("json" is accepted as
/// an alias for jsonl).
std::unique_ptr<Sink> make_sink(const std::string& format, std::ostream& out) {
  if (format == "text") return std::make_unique<TableSink>(out);
  if (format == "csv") return std::make_unique<CsvSink>(out);
  return std::make_unique<JsonlSink>(out);  // jsonl / json
}

/// --trace=FILE handling shared by run/trials/sweep: an opened stream plus
/// its trace writer. Empty when --trace was not given.
struct TraceOutput {
  // Heap-held so the stream's address survives the move out of open_trace —
  // the writer keeps a pointer to it.
  std::unique_ptr<std::ofstream> file;
  std::unique_ptr<TraceWriter> writer;
  explicit operator bool() const { return writer != nullptr; }
};

TraceOutput open_trace(const CliArgs& args) {
  TraceOutput t;
  const std::string path = args.get("trace", "");
  if (path.empty()) return t;
  t.file = std::make_unique<std::ofstream>(path, std::ios::binary);
  if (!*t.file) throw std::runtime_error("cannot open --trace=" + path);
  t.writer = std::make_unique<BinaryTraceWriter>(*t.file);
  return t;
}

/// The one grid cell a run/trials invocation names. Every grammar key given
/// as --key=value becomes a spec token, so these commands accept exactly the
/// sweep grammar's run options and fault axes, and read them the same way.
struct OneCell {
  ExperimentSpec spec;
  SweepCell cell;
  Graph graph;
};

OneCell one_cell(const CliArgs& args, const std::string& trials,
                 const std::string& base_seed) {
  std::vector<std::string> tokens = {"trials=" + trials,
                                     "base-seed=" + base_seed,
                                     "graph-seed=" + args.get("seed", "1")};
  std::vector<std::string> keys = {"algo",  "family", "n",        "bandwidth",
                                   "drop",  "crash",  "linkfail", "adversary"};
  for (const std::string& knob : knob_names()) keys.push_back(knob);
  for (const std::string& key : keys) {
    if (!args.has(key)) continue;
    std::string value = args.get(key, "");
    // A bare flag switches its option on; for --trace-walks, every walk.
    if (value.empty()) value = key == "trace-walks" ? "1" : "true";
    tokens.push_back(key + "=" + value);
  }
  OneCell one;
  one.spec = parse_spec(tokens);
  std::vector<SweepCell> cells = expand_cells(one.spec);
  if (cells.size() != 1)
    throw std::invalid_argument(
        "'" + args.command() + "' runs one cell, but the options expand to " +
        std::to_string(cells.size()) +
        " (a comma list?); use `wcle_cli sweep` for grids");
  one.cell = std::move(cells.front());
  one.graph = make_family(one.cell.family,
                          static_cast<NodeId>(one.cell.requested_n),
                          one.spec.graph_seed);
  return one;
}

/// The --trace output of run/trials. The header is the cell's canonical key
/// (the identity serve and perfbench use too), so `replay` re-executes
/// exactly this cell.
void write_cell_trace(TraceWriter& writer, const std::string& tool,
                      const OneCell& one,
                      const std::vector<TraceRecorder>& recorders) {
  writer.header({kTraceVersion, tool, canonical_cell_key(one.spec, one.cell)});
  for (std::size_t i = 0; i < recorders.size(); ++i) {
    TraceRunMeta meta;
    meta.run = i;
    meta.trial = i;
    meta.seed = one.spec.base_seed + i;
    meta.n = one.graph.node_count();
    meta.algorithm = one.cell.algorithm;
    meta.family = one.cell.family;
    write_run(writer, meta, recorders[i]);
  }
  writer.finish(recorders.size());
}

int cmd_list(const CliArgs& args) {
  const std::string format = parse_format(args, {"text", "json"});
  if (format == "json") {
    // Machine-readable registry listing so external tooling can enumerate
    // scenarios without scraping the aligned table.
    std::cout << "{\"algorithms\":[";
    bool first = true;
    for (const Algorithm* a : AlgorithmRegistry::instance().all()) {
      std::cout << (first ? "" : ",") << "{\"name\":\""
                << json_escape(a->name()) << "\",\"kind\":\""
                << json_escape(kind_name(a->kind())) << "\",\"offline\":"
                << (a->offline() ? "true" : "false") << ",\"caveat\":\""
                << json_escape(a->caveat()) << "\",\"description\":\""
                << json_escape(a->describe()) << "\"}";
      first = false;
    }
    std::cout << "],\"families\":[";
    first = true;
    for (const std::string& f : family_names()) {
      std::cout << (first ? "" : ",") << "\"" << json_escape(f) << "\"";
      first = false;
    }
    std::cout << "],\"experiments\":[";
    first = true;
    for (const auto& [name, title] : builtin_experiment_titles()) {
      std::cout << (first ? "" : ",") << "{\"name\":\"" << json_escape(name)
                << "\",\"title\":\"" << json_escape(title) << "\"}";
      first = false;
    }
    std::cout << "]}\n";
    return 0;
  }
  Table t({"algorithm", "kind", "caveat", "description"});
  for (const Algorithm* a : AlgorithmRegistry::instance().all()) {
    const std::string caveat = a->caveat();
    t.add_row({a->name(), kind_name(a->kind()), caveat.empty() ? "-" : caveat,
               a->describe()});
  }
  t.print(std::cout);
  std::cout << "\ngraph families:";
  for (const std::string& f : family_names()) std::cout << " " << f;
  std::cout << "\n  (lowerbound:<alpha> and dumbbell:<base> take a ':' "
               "parameter)\n";
  std::cout << "\nexperiments (wcle_cli sweep --spec=<name>):\n";
  for (const auto& [name, title] : builtin_experiment_titles())
    std::cout << "  " << name << (name.size() < 3 ? "  " : " ") << title
              << "\n";
  return 0;
}

int cmd_run(const CliArgs& args) {
  const OneCell one = one_cell(args, "1", args.get("seed", "1"));
  const Algorithm& algo =
      AlgorithmRegistry::instance().at(one.cell.algorithm);
  const std::string format = parse_format(args, {"text", "json"});
  TraceOutput trace = open_trace(args);
  std::vector<TraceRecorder> recorders(trace ? 1 : 0);
  RunOptions options = one.cell.options;
  options.set_seed(one.spec.base_seed);
  if (trace) options.params.trace = &recorders.front();
  RunResult r = algo.run(one.graph, options);
  attach_verdict(one.graph, options, algo.kind(), r);
  if (trace) write_cell_trace(*trace.writer, "run", one, recorders);
  if (format == "json") {
    std::cout << to_json(r) << "\n";
  } else {
    std::cout << one.graph.describe() << "\n" << r.summary() << "\n";
  }
  return r.success ? 0 : 1;
}

int cmd_trials(const CliArgs& args) {
  const OneCell one =
      one_cell(args, args.get("trials", "10"),
               args.get("base-seed", args.get("seed", "1000")));
  const unsigned threads = get_u32(args, "threads", 0);
  TraceOutput trace = open_trace(args);
  std::vector<TraceRecorder> recorders;
  const TrialStats s =
      run_trials(AlgorithmRegistry::instance().at(one.cell.algorithm),
                 one.graph, one.cell.options, one.spec.trials,
                 one.spec.base_seed, threads, trace ? &recorders : nullptr);
  if (trace) write_cell_trace(*trace.writer, "trials", one, recorders);
  const std::string format = parse_format(args, {"text", "json", "csv"});
  if (format == "json") {
    std::cout << to_json(s) << "\n";
    return s.success_rate > 0.5 ? 0 : 1;
  }
  Table t({"metric", "mean", "stddev", "min", "median", "max"});
  const auto row = [&t](const std::string& name, const Summary& m) {
    t.add_row({name, Table::num(m.mean), Table::num(m.stddev),
               Table::num(m.min), Table::num(m.median), Table::num(m.max)});
  };
  row("congest messages", s.congest_messages);
  row("rounds", s.rounds);
  row("leader count", s.leader_count);
  // Always present (all-zero in the reliable model) so the row set — and
  // therefore the CSV schema — does not depend on the data.
  row("dropped messages", s.dropped_messages);
  row("crash-dropped messages", s.crash_dropped_messages);
  row("link-dropped messages", s.link_dropped_messages);
  row("agreement", s.agreement);
  // Data-plane pool gauges (obs): footprint and high-water occupancy of the
  // message pool and the id pool (WordPool) across the trials.
  row("pool msg slots", s.pool_msg_slots);
  row("pool msg live high", s.pool_msg_live_high);
  row("pool id blocks", s.pool_id_blocks);
  row("pool id live high", s.pool_id_live_high);
  for (const auto& [key, summary] : s.extras) row(key, summary);
  if (format == "csv") {
    // Rate rows only carry a mean; the spread columns stay empty.
    t.add_row({"success_rate", Table::num(s.success_rate), "", "", "", ""});
    t.add_row({"zero_leader_rate", Table::num(s.zero_leader_rate), "", "", "",
               ""});
    t.add_row({"multi_leader_rate", Table::num(s.multi_leader_rate), "", "",
               "", ""});
    t.add_row({"safety_rate", Table::num(s.safety_rate), "", "", "", ""});
    t.add_row({"liveness_rate", Table::num(s.liveness_rate), "", "", "", ""});
    t.write_csv(std::cout);
    return s.success_rate > 0.5 ? 0 : 1;
  }
  std::cout << one.graph.describe() << "\nalgorithm: " << s.algorithm << " ("
            << s.trials << " trials, " << s.threads << " threads)\n";
  t.print(std::cout);
  std::cout << "success rate: " << s.success_rate
            << " (zero-leader " << s.zero_leader_rate << ", multi-leader "
            << s.multi_leader_rate << ")\n"
            << "verdicts: safety " << s.safety_rate << ", liveness "
            << s.liveness_rate << ", agreement " << s.agreement.mean << "\n";
  return s.success_rate > 0.5 ? 0 : 1;
}

// The declarative sweep: a builtin spec (--spec=e1), grid-grammar
// positionals (algo=... family=... n=256,512 ...), or the legacy
// --from/--to doubling sugar — all three run through the same engine.
int cmd_sweep(const CliArgs& args) {
  ExperimentSpec spec;
  const std::string spec_name = args.get("spec", "");
  if (!spec_name.empty()) {
    // An explicit --scale wins without reading WCLE_BENCH_SCALE.
    const std::uint64_t scale_raw =
        args.has("scale") ? args.get_u64("scale", 1)
                          : static_cast<std::uint64_t>(default_bench_scale());
    if (scale_raw > 2)
      throw std::invalid_argument("--scale=" + std::to_string(scale_raw) +
                                  " (0 = quick, 1 = default, 2 = extended)");
    const int scale = static_cast<int>(scale_raw);
    // Grid-grammar positionals refine the builtin (e.g. trials=1 n=64):
    // axes they name are replaced, everything else keeps the builtin grid.
    spec = parse_spec_onto(builtin_experiment(spec_name, scale),
                           args.positionals());
  } else if (!args.positionals().empty()) {
    spec = parse_spec(args.positionals());
  } else {
    // Legacy sugar: --family --from --to --trials [--algo], doubling n.
    const NodeId from = get_u32(args, "from", 64);
    const NodeId to = get_u32(args, "to", 512);
    if (from == 0)
      throw std::invalid_argument("--from must be >= 1 (doubling sweep)");
    spec.algorithms = {args.get("algo", "election")};
    spec.families = {args.get("family", "hypercube")};
    spec.sizes.clear();
    for (NodeId n = from; n <= to;) {
      spec.sizes.push_back(n);
      if (n > std::numeric_limits<NodeId>::max() / 2) break;  // no wrap to 0
      n *= 2;
    }
    spec.trials = get_count(args, "trials", 3);
    // The pre-engine doubling sweep seeded trials and graphs from
    // --seed (default 1); keep that so recorded legacy runs reproduce.
    spec.base_seed = args.get_u64("seed", 1);
    spec.graph_seed = args.get_u64("seed", 1);
    spec.title = "sweep: " + spec.algorithms[0] + " on " + spec.families[0];
  }

  const unsigned threads = get_u32(args, "threads", 0);
  // --trace-every=K and --trace-walks[=K] become their grid knobs' tokens
  // (a bare flag means 1), so the grammar validates them and the sampling
  // rides in the header spec: traced sweeps replay identically. Explicit
  // grid tokens win over the flags.
  std::vector<std::string> trace_tokens;
  for (const std::string key : {"trace-every", "trace-walks"}) {
    if (!args.has(key) || spec.knobs.count(key)) continue;
    const std::string value = args.get(key, "");
    trace_tokens.push_back(key + "=" + (value.empty() ? "1" : value));
  }
  spec = parse_spec_onto(std::move(spec), trace_tokens);
  const std::unique_ptr<Sink> sink =
      make_sink(parse_format(args, {"text", "csv", "jsonl", "json"}),
                std::cout);
  TraceOutput trace = open_trace(args);
  if (trace)
    trace.writer->header({kTraceVersion, "sweep", spec.to_string()});
  run_sweep(spec, {sink.get()}, threads, trace.writer.get());
  return 0;
}

// Byte-compares a recorded trace against a fresh re-execution of its header
// spec (api/replay.hpp): exit 0 = byte-identical, 1 = drift. With --diff a
// mismatch also decodes the first differing record (run meta, round row, or
// event) instead of leaving only a byte offset.
int cmd_replay(const CliArgs& args) {
  const std::string path = args.get("trace", "");
  if (path.empty())
    throw std::invalid_argument("replay needs --trace=FILE");
  const bool diff = args.get_bool("diff", false);
  const ReplayReport rep =
      verify_replay(path, get_u32(args, "threads", 0), diff);
  std::cout << "trace:  " << path << " (version=" << rep.header.version
            << ", tool=" << rep.header.tool << ")\n"
            << "spec:   " << rep.header.spec << "\n";
  std::cout << "replay: " << rep.detail << "\n";
  if (!rep.ok && !rep.diff.empty()) std::cout << rep.diff << "\n";
  return rep.ok ? 0 : 1;
}

/// Shared by the trace and obs commands: select --run=<i> of a loaded trace.
const TraceRunData& select_run(const TraceFileData& data,
                               const CliArgs& args) {
  const std::uint64_t run = args.get_u64("run", 0);
  if (run >= data.runs.size())
    throw std::invalid_argument(
        "--run=" + std::to_string(run) + " out of range (trace holds " +
        std::to_string(data.runs.size()) + " runs)");
  return data.runs[run];
}

// Per-round series of one recorded run (trace/summarize.hpp).
int cmd_trace_summary(const CliArgs& args) {
  const std::string path = args.get("trace", "");
  if (path.empty())
    throw std::invalid_argument("trace-summary needs --trace=FILE");
  const TraceFileData data = read_trace_file(path);
  const TraceRunData& r = select_run(data, args);
  const TraceSummary summary = summarize_trace(r);
  const Table table = trace_summary_table(summary, args.get_u64("every", 1));
  const std::string format = parse_format(args, {"text", "csv"});
  if (format == "csv") {
    table.write_csv(std::cout);
    return 0;
  }
  std::cout << "run " << r.meta.run << ": " << r.meta.algorithm << " on "
            << r.meta.family << " n=" << r.meta.n << " seed=" << r.meta.seed
            << " (cell " << r.meta.cell << ", trial " << r.meta.trial << ")\n";
  if (summary.sampled)
    std::cout << "sampled trace (row stride " << summary.stride
              << "): cumulative series are stride-scaled estimates; "
              << "messages= is the run_end exact total when present\n";
  std::cout << "rounds=" << summary.rounds
            << " quiet_after=" << summary.rounds_to_quiet
            << " messages=" << summary.total_messages
            << " dropped=" << summary.total_dropped << " peak_backlog="
            << summary.peak_backlog << "@r" << summary.peak_backlog_round
            << "\nlive=" << summary.final_live << "/" << r.meta.n
            << " crashes=" << summary.crashes << " link_failures="
            << summary.link_failures << " churn_out=" << summary.churn_outs
            << " contenders=" << summary.contenders << " phases="
            << summary.phase_marks << " segments=" << summary.segments
            << "\n";
  table.print(std::cout);
  return 0;
}

/// Rebuilds the graph a recorded run executed on, the same way run_sweep
/// builds it: expand the header spec and rebuild the run's cell at the
/// spec's graph seed. The trace header is a replayable identity, so this is
/// exact, not a reconstruction.
Graph graph_for_run(const TraceHeader& header, const TraceRunMeta& meta) {
  const ExperimentSpec spec = parse_spec(header.spec);
  const std::vector<SweepCell> cells = expand_cells(spec);
  if (meta.cell >= cells.size())
    throw std::runtime_error("trace run " + std::to_string(meta.run) +
                             " names cell " + std::to_string(meta.cell) +
                             " but the header spec expands to " +
                             std::to_string(cells.size()) + " cells");
  const SweepCell& cell = cells[meta.cell];
  return make_family(cell.family, static_cast<NodeId>(cell.requested_n),
                     spec.graph_seed);
}

// Lemma 12 made visible: per-round max-edge walk-token load from the
// walk_hop stream of a traced run, next to the sqrt(n/phi)*log^2(n)
// envelope with phi bounds computed from the run's actual graph.
int cmd_congestion_report(const CliArgs& args) {
  const std::string path = args.get("trace", "");
  if (path.empty())
    throw std::invalid_argument("congestion-report needs --trace=FILE");
  const TraceFileData data = read_trace_file(path);
  const TraceRunData& r = select_run(data, args);
  if (r.hops.empty())
    throw std::runtime_error(
        "run " + std::to_string(r.meta.run) +
        " holds no walk_hop records — record the trace with --trace-walks "
        "(schema v2) to enable congestion accounting");
  const CongestionReport report = analyze_congestion(r.hops);
  const Graph g = graph_for_run(data.header, r.meta);
  const Lemma12Envelope env = lemma12_envelope(g);

  Table table({"round", "messages", "walkers", "busy-edges",
               "max-edge(msgs)", "max-edge(walkers)", "envelope", "ratio"});
  for (const RoundCongestion& rc : report.rounds)
    table.add_row({std::to_string(rc.round), std::to_string(rc.messages),
                   std::to_string(rc.walkers), std::to_string(rc.busy_edges),
                   std::to_string(rc.max_edge_messages),
                   std::to_string(rc.max_edge_walkers), Table::num(env.bound),
                   Table::num(env.bound > 0.0
                                  ? static_cast<double>(rc.max_edge_walkers) /
                                        env.bound
                                  : 0.0)});
  const std::string format = parse_format(args, {"text", "csv"});
  if (format == "csv") {
    table.write_csv(std::cout);
    return 0;
  }
  std::cout << "run " << r.meta.run << ": " << r.meta.algorithm << " on "
            << r.meta.family << " n=" << r.meta.n << " seed=" << r.meta.seed
            << "\nconductance: phi in [" << Table::num(env.phi_lower) << ", "
            << Table::num(env.phi_upper)
            << "] (Cheeger lower / sweep-cut upper)"
            << "\nLemma 12 envelope: sqrt(n/phi)*log2(n)^2 = "
            << Table::num(env.bound) << " (phi = " << Table::num(env.phi)
            << ", the conservative upper bound)"
            << "\ntotals: " << report.total_messages << " token messages, "
            << report.total_walkers << " walker moves, max edge load "
            << report.max_edge_messages << " msgs / "
            << report.max_edge_walkers << " walkers in one round\n";
  std::cout << "by tag:";
  for (const auto& [tag, count] : report.messages_by_tag)
    std::cout << " 0x" << std::hex << static_cast<unsigned>(tag) << std::dec
              << "=" << count;
  std::cout << "\nper-round max-edge load (msgs): mean="
            << Table::num(report.round_max_messages.mean)
            << " median=" << Table::num(report.round_max_messages.median)
            << " max=" << Table::num(report.round_max_messages.max) << "\n";
  table.print(std::cout);
  return 0;
}

// Per-walk path/lifetime statistics over the sampled origins of one run.
int cmd_trace_walks_summary(const CliArgs& args) {
  const std::string path = args.get("trace", "");
  if (path.empty())
    throw std::invalid_argument("trace-walks-summary needs --trace=FILE");
  const TraceFileData data = read_trace_file(path);
  const TraceRunData& r = select_run(data, args);
  if (r.hops.empty())
    throw std::runtime_error(
        "run " + std::to_string(r.meta.run) +
        " holds no walk_hop records — record the trace with --trace-walks "
        "(schema v2) to enable per-walk summaries");
  const std::vector<WalkSummary> walks = summarize_walks(r.hops);

  Table table({"origin", "hops", "walkers", "first", "last", "lifetime",
               "max-count", "uniq-edges", "uniq-nodes"});
  for (const WalkSummary& w : walks)
    table.add_row({std::to_string(w.origin), std::to_string(w.hops),
                   std::to_string(w.walkers), std::to_string(w.first_round),
                   std::to_string(w.last_round),
                   std::to_string(w.last_round - w.first_round + 1),
                   std::to_string(w.max_count), std::to_string(w.unique_edges),
                   std::to_string(w.unique_nodes)});
  const std::string format = parse_format(args, {"text", "csv"});
  if (format == "csv") {
    table.write_csv(std::cout);
    return 0;
  }
  // Hop sampling is by origin: name the stride so a sparse origin column
  // reads as sampling, not as missing walks.
  std::string stride = "1";
  const ExperimentSpec spec = parse_spec(data.header.spec);
  const auto knob = spec.knobs.find("trace-walks");
  if (knob != spec.knobs.end() && !knob->second.empty())
    stride = knob->second.front();
  std::cout << "run " << r.meta.run << ": " << r.meta.algorithm << " on "
            << r.meta.family << " n=" << r.meta.n << " seed=" << r.meta.seed
            << "\n" << walks.size()
            << " traced walk origins (sampled: origin % " << stride
            << " == 0), " << r.hops.size() << " hop records\n";
  table.print(std::cout);
  return 0;
}

// Renders a trace as Chrome trace-event JSON for chrome://tracing or the
// Perfetto UI (obs/perfetto.hpp). Exports every run in the file.
int cmd_trace_export(const CliArgs& args) {
  const std::string path = args.get("trace", "");
  if (path.empty())
    throw std::invalid_argument("trace-export needs --trace=FILE");
  const std::string out_path = args.get("out", "");
  if (out_path.empty())
    throw std::invalid_argument("trace-export needs --out=FILE.json");
  const TraceFileData data = read_trace_file(path);
  std::ofstream out(out_path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open --out=" + out_path);
  write_chrome_trace(out, data);
  std::cout << "wrote " << out_path << ": " << data.runs.size()
            << " run(s) as trace-event JSON (load in ui.perfetto.dev or "
               "chrome://tracing)\n";
  return 0;
}

void warn_unconsumed(const CliArgs& args);

// The daemon's drain trigger must be async-signal-safe: the handler writes
// one byte to the event loop's self-pipe (write(2) is on the safe list) and
// the loop does the actual shutdown on its own thread.
int g_serve_wake_fd = -1;

extern "C" void serve_drain_signal(int) {
  if (g_serve_wake_fd >= 0) {
    const char byte = 'd';
    [[maybe_unused]] const ssize_t n = write(g_serve_wake_fd, &byte, 1);
  }
}

// The long-running sweep service: POST specs, poll job status, stream
// results. SIGTERM/SIGINT drain gracefully (stop accepting, finish accepted
// jobs and open streams, then exit 0).
int cmd_serve(const CliArgs& args) {
  ServeConfig config;
  const HostPort listen =
      args.get_host_port("listen", config.host, config.port);
  config.host = listen.host;
  config.port = listen.port;
  config.workers = get_u32(args, "workers", 0);
  config.cache_max_bytes = args.get_u64("cache-mb", 64) * 1024 * 1024;

  Server server(config);
  server.listen();
  g_serve_wake_fd = server.wake_fd();
  std::signal(SIGTERM, serve_drain_signal);
  std::signal(SIGINT, serve_drain_signal);
  warn_unconsumed(args);
  // Flushed before serving so wrappers can wait for readiness on stdout.
  std::cout << "wcle serve: listening on " << config.host << ":"
            << server.port() << " (workers="
            << (config.workers == 0 ? std::thread::hardware_concurrency()
                                    : config.workers)
            << ", cache=" << config.cache_max_bytes / (1024 * 1024) << "MB)"
            << std::endl;
  const int rc = server.run();
  std::cout << "wcle serve: drained, exiting\n";
  return rc;
}

void usage() {
  std::cout <<
      "usage: wcle_cli <command> [options]   (--help: this text)\n"
      "  registry: list [--format=json]\n"
      "            run    --algo=<name> [--format=json]\n"
      "            trials --algo=<name> --trials=<k> [--threads=<t>]\n"
      "                   [--base-seed=<s>] [--format=json|csv]\n"
      "  sweep:    sweep --spec=<e1..e14> [--scale=0|1|2]\n"
      "                  [--format=text|csv|jsonl] [--threads=<t>]\n"
      "            sweep <key=v1,v2,..> ...   (grid grammar; keys: algo\n"
      "                  family n bandwidth drop crash linkfail adversary\n"
      "                  trials base-seed graph-seed reliable extras + any\n"
      "                  RunOptions knob)\n"
      "            sweep --from= --to= --trials= [--algo=]  (doubling sugar)\n"
      "  serve:    serve [--listen=HOST:PORT] [--workers=<t>]\n"
      "                  [--cache-mb=<m>]   (default 127.0.0.1:8080; sweep\n"
      "            daemon: POST /sweep with spec tokens, GET /jobs/<id>,\n"
      "            GET /jobs/<id>/results streams JSONL byte-identical to\n"
      "            `sweep --format=jsonl`; /cache /metricz /healthz;\n"
      "            SIGTERM drains gracefully)\n"
      "  trace:    run/trials/sweep --trace=FILE  (per-round timelines in\n"
      "            the binary trace framing, e.g. FILE.btrace)\n"
      "            run/trials/sweep --trace-every=<k>  (sampled rows: keep\n"
      "            every k-th round row; events always kept)\n"
      "            replay --trace=FILE [--threads=<t>] [--diff]\n"
      "            (re-execute from the header, verify byte-identity;\n"
      "             --diff decodes the first differing record on mismatch)\n"
      "            trace-summary --trace=FILE [--run=<i>] [--every=<k>]\n"
      "                          [--format=text|csv]\n"
      "  obs:      run/trials/sweep --trace-walks[=K]  (schema v2: record\n"
      "            walk_hop records for origins with origin % K == 0)\n"
      "            congestion-report --trace=FILE [--run=<i>]\n"
      "                [--format=text|csv]  (per-round max-edge load vs the\n"
      "                 Lemma 12 sqrt(n/phi)*log2(n)^2 envelope)\n"
      "            trace-walks-summary --trace=FILE [--run=<i>]\n"
      "                [--format=text|csv]  (per-walk path/lifetime stats)\n"
      "            trace-export --trace=FILE --out=FILE.json\n"
      "                (Chrome trace-event JSON for Perfetto)\n"
      "  common:   run/trials accept --family=<see list> --n=<nodes>\n"
      "            --seed=<u64> and every grammar knob and fault axis as\n"
      "            --key=value (one value; grids need sweep):\n"
      "            --bandwidth= --drop= --crash= --linkfail= --adversary=\n"
      "            --c1= --c2= --wide --paper-schedule --lazy-walks=\n"
      "            --coalesce= --max-phases= --max-length= --initial-length=\n"
      "            --source= --value-bits= --tmix= --tmix-mult= --budget=\n"
      "            --max-rounds= --crash-round= --linkfail-round= --churn=\n"
      "            --churn-start= --churn-end= --trace-every= --trace-walks\n";
}

void warn_unconsumed(const CliArgs& args) {
  for (const std::string& key : args.unconsumed())
    std::cerr << "warning: --" << key << " was ignored by '" << args.command()
              << "' (unknown option, or not used by this command)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args = CliArgs::parse(argc, argv);
    if (args.has("help")) {
      usage();
      return 0;
    }
    int rc = 2;
    if (args.command() == "list") rc = cmd_list(args);
    else if (args.command() == "run") rc = cmd_run(args);
    else if (args.command() == "trials") rc = cmd_trials(args);
    else if (args.command() == "sweep") rc = cmd_sweep(args);
    else if (args.command() == "serve") rc = cmd_serve(args);
    else if (args.command() == "replay") rc = cmd_replay(args);
    else if (args.command() == "trace-summary") rc = cmd_trace_summary(args);
    else if (args.command() == "congestion-report")
      rc = cmd_congestion_report(args);
    else if (args.command() == "trace-walks-summary")
      rc = cmd_trace_walks_summary(args);
    else if (args.command() == "trace-export") rc = cmd_trace_export(args);
    else {
      usage();
      return args.command().empty() ? 0 : 2;
    }
    warn_unconsumed(args);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
