// wcle_perfbench: the timed half of the benchmark (run.py is the other
// half). It runs one workload in a closed loop on one thread — the next run
// starts when the previous one ends — times it with steady_clock, and prints
// raw samples as JSON lines. run.py generates the inputs (the seed order),
// turns the samples into metrics and checks every simulated output against
// perfbench/expected.json. Everything here reaches libwcle through public
// entry points only: make_family, the algorithm registry, parse_spec +
// sweep_cells + run_sweep with a Sink and a TraceWriter, and Network::send /
// run_until_idle / metrics. Every library knob stays at its default.
//
//   wcle_perfbench elect --family F --n N --graph-seed G --algo A
//                  --seeds S1,S2,... --warmup-seed W --seconds T
//                  --min-cycles C [--traced] [--spans FILE]
//   wcle_perfbench sweep --spec "GRID" --seconds T --min-cycles C
//                  [--first-cell] [--traced] [--spans FILE]
//
// Timing: the run is a series of cycles, at least C of them and then until
// T seconds have passed. A cycle first sets up — a fresh graph (the grid
// expansion for the sweep) plus one discarded warm-up run, timed as one
// set-up sample — and then makes one timed pass over the input list (the
// seed order, or one run_sweep of the grid), timing every input on its own.
// Spreading the set-ups over the run keeps one slow stretch of the host
// from hitting them all. With --traced, odd cycles also record spans
// (name, start, end, parent span, run id, work count) around every call
// into a library layer, a sim probe runs at the end, and the spans are
// written to FILE on exit. --first-cell stops the sweep after the first
// set-up, whose warm-up cell is checked (check mode).
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "wcle/api/algorithm.hpp"
#include "wcle/api/registry.hpp"
#include "wcle/api/scenario.hpp"
#include "wcle/api/sink.hpp"
#include "wcle/api/sweep.hpp"
#include "wcle/graph/families.hpp"
#include "wcle/sim/network.hpp"
#include "wcle/trace/writer.hpp"

#ifndef WCLE_PERFBENCH_BUILD_TYPE
#define WCLE_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef WCLE_PERFBENCH_COMPILER
#define WCLE_PERFBENCH_COMPILER "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// FNV-1a 64 over a byte range, as 16 hex digits.
std::string digest(const char* data, std::size_t len) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string digest(std::string_view s) { return digest(s.data(), s.size()); }

/// The closed loop's stop rule: at least `min_cycles` whole cycles, then
/// whole cycles until `seconds` have passed since `start`.
bool more_cycles(std::int64_t cycle, std::int64_t min_cycles,
                 std::int64_t start, double seconds) {
  return cycle < min_cycles ||
         now_ns() - start < static_cast<std::int64_t>(seconds * 1e9);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// In-memory span log: kept only on traced cycles, written out at exit.
struct Span {
  std::string name;
  std::int64_t start = 0, end = 0;
  std::int64_t parent = -1;  ///< index into the log, -1 = root
  std::int64_t run = -1;     ///< seed (elections) or cell index (sweep)
  std::uint64_t n = 0;       ///< work count at this boundary (msgs, bytes)
};

class SpanLog {
 public:
  bool on = false;

  /// Appends a finished span; returns its index (-1 when not recording).
  std::int64_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int64_t parent = -1, std::int64_t run = -1,
                   std::uint64_t n = 0) {
    if (!on) return -1;
    spans_.push_back({name, start, end, parent, run, n});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Opens a span whose end is filled in by close().
  std::int64_t open(const char* name, std::int64_t parent = -1) {
    return add(name, now_ns(), 0, parent);
  }
  void close(std::int64_t id, std::uint64_t n = 0) {
    if (id < 0) return;
    spans_[id].end = now_ns();
    spans_[id].n = n;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_)
      out << "{\"name\":" << quoted(s.name) << ",\"start\":" << s.start
          << ",\"end\":" << s.end << ",\"parent\":" << s.parent
          << ",\"run\":" << s.run << ",\"n\":" << s.n << "}\n";
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  std::vector<Span> spans_;
};

SpanLog g_spans;
/// Records, one JSON object per line, printed after timing ends. main()
/// reserves the buffer up front (untouched pages cost no memory) so that
/// records do not interleave allocations with the library's: with one
/// string per record the sweep's peak RSS flipped between two values 10%
/// apart from run to run.
std::string g_out;

void emit(const std::string& record) {
  g_out += record;
  g_out += '\n';
}

struct Args {
  std::string mode;
  std::map<std::string, std::string> kv;
  bool flag(const std::string& k) const { return kv.count(k) > 0; }
  std::string get(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  }
  std::uint64_t u64(const std::string& k) const {
    return std::stoull(get(k));
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2)
    throw std::invalid_argument("usage: wcle_perfbench elect|sweep ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw std::invalid_argument("bad arg " + k);
    k = k.substr(2);
    if (k == "traced" || k == "first-cell")
      a.kv[k] = "1";
    else if (i + 1 < argc)
      a.kv[k] = argv[++i];
    else
      throw std::invalid_argument("--" + k + " needs a value");
  }
  return a;
}

std::vector<std::uint64_t> parse_list(const std::string& s) {
  std::vector<std::uint64_t> out;
  std::stringstream ss(s);
  for (std::string tok; std::getline(ss, tok, ',');)
    out.push_back(std::stoull(tok));
  return out;
}

double extra(const wcle::RunResult& r, const char* key) {
  const auto it = r.extras.find(key);
  return it == r.extras.end() ? 0.0 : it->second;
}

// The walk engine's transport tags (walk_token, reply_up, flood_down,
// unicast_up): read from Metrics::congest_messages_by_tag, so the benchmark
// needs no walk-engine header.
constexpr int kWalkTags[] = {0x10, 0x11, 0x12, 0x13};

std::string run_record(std::uint64_t seed, std::int64_t cycle, bool warmup,
                       bool traced, double ms, const wcle::RunResult& r) {
  std::ostringstream o;
  o.precision(12);
  const wcle::Metrics& t = r.totals;
  o << "{\"ev\":\"run\",\"seed\":" << seed << ",\"cycle\":" << cycle
    << ",\"warmup\":" << warmup << ",\"traced\":" << traced
    << ",\"ms\":" << ms << ",\"leaders\":[";
  for (std::size_t i = 0; i < r.leaders.size(); ++i)
    o << (i ? "," : "") << r.leaders[i];
  o << "],\"congest\":" << t.congest_messages
    << ",\"logical\":" << t.logical_messages << ",\"rounds\":" << r.rounds
    << ",\"backlog\":" << t.max_edge_backlog
    << ",\"pool_msg_slots\":" << t.pool_msg_slots
    << ",\"pool_id_blocks\":" << t.pool_id_blocks
    << ",\"crash_dropped\":" << t.crash_dropped_messages
    << ",\"link_dropped\":" << t.link_dropped_messages
    << ",\"dropped\":" << t.dropped_messages << ",\"walk_tags\":[";
  for (int i = 0; i < 4; ++i)
    o << (i ? "," : "") << t.congest_messages_by_tag[kWalkTags[i]];
  o << "],\"phases\":" << extra(r, "phases")
    << ",\"contenders\":" << extra(r, "contenders")
    << ",\"final_length\":" << extra(r, "final_length") << "}";
  return o.str();
}

/// Sends one bandwidth-sized message out of every port, then drains the
/// wave with run_until_idle; repeats for at least 6 waves and 0.3 s, the
/// first wave discarded. Only the transport surfaces every protocol uses
/// are touched.
void sim_probe(const wcle::Graph& g) {
  const wcle::CongestConfig cfg = wcle::CongestConfig::standard(g.node_count());
  wcle::Network net(g, cfg);
  wcle::Message m;
  m.tag = 0x01;
  m.bits = cfg.bandwidth_bits;
  const std::int64_t root = g_spans.open("sim.probe");
  std::ostringstream o;
  o << "{\"ev\":\"probe\",\"waves\":[";
  const std::int64_t t_start = now_ns();
  for (int wave = 0; wave < 6 || now_ns() - t_start < 300'000'000; ++wave) {
    std::uint64_t sends = 0;
    const std::int64_t t0 = now_ns();
    for (wcle::NodeId u = 0; u < g.node_count(); ++u) {
      m.a = u;
      for (wcle::Port p = 0; p < g.degree(u); ++p, ++sends) net.send(u, p, m);
    }
    const std::int64_t t1 = now_ns();
    const std::uint64_t before = net.metrics().congest_messages;
    std::uint64_t delivered = 0;
    net.run_until_idle([&](const wcle::Delivery&) { ++delivered; });
    const std::int64_t t2 = now_ns();
    const std::uint64_t msgs = net.metrics().congest_messages - before;
    if (delivered != sends || msgs != sends)
      throw std::runtime_error("sim probe: wave lost messages");
    if (wave == 0) continue;  // warm-up wave
    g_spans.add("sim.send", t0, t1, root, wave, sends);
    g_spans.add("sim.drain", t1, t2, root, wave, msgs);
    o << (wave > 1 ? "," : "") << "{\"sends\":" << sends
      << ",\"send_ns\":" << (t1 - t0) << ",\"msgs\":" << msgs
      << ",\"drain_ns\":" << (t2 - t1) << "}";
  }
  g_spans.close(root);
  o << "]}";
  emit(o.str());
}

// ------------------------------------------------------------ elections

void run_elect(const Args& a) {
  const std::string family = a.get("family");
  const auto n = static_cast<wcle::NodeId>(a.u64("n"));
  const std::uint64_t graph_seed = a.u64("graph-seed");
  const wcle::Algorithm& algo = wcle::AlgorithmRegistry::instance().at(
      a.get("algo"));
  const std::vector<std::uint64_t> seeds = parse_list(a.get("seeds"));
  const double seconds = std::stod(a.get("seconds"));
  const auto min_cycles = static_cast<std::int64_t>(a.u64("min-cycles"));
  const bool traced = a.flag("traced");
  if (seeds.empty()) throw std::invalid_argument("need --seeds");

  auto elect = [&](const wcle::Graph& g, std::uint64_t seed,
                   std::int64_t cycle, bool warmup, std::int64_t parent) {
    wcle::RunOptions opt;
    opt.set_seed(seed);
    const std::int64_t t0 = now_ns();
    try {
      const wcle::RunResult r = algo.run(g, opt);
      const std::int64_t t1 = now_ns();
      g_spans.add(warmup ? "core.warmup" : "core.run", t0, t1, parent,
                  static_cast<std::int64_t>(seed), r.totals.congest_messages);
      emit(run_record(seed, cycle, warmup, g_spans.on, ms_between(t0, t1), r));
    } catch (const std::exception& e) {
      emit("{\"ev\":\"run\",\"seed\":" + std::to_string(seed) +
           ",\"cycle\":" + std::to_string(cycle) +
           ",\"warmup\":" + std::to_string(warmup) +
           ",\"error\":" + quoted(e.what()) + "}");
    }
  };

  std::unique_ptr<wcle::Graph> g;
  const std::int64_t start = now_ns();
  for (std::int64_t cycle = 0; more_cycles(cycle, min_cycles, start, seconds);
       ++cycle) {
    g_spans.on = traced && cycle % 2 == 1;
    // Setup: a fresh graph + one discarded warm-up run.
    const std::int64_t t0 = now_ns();
    const std::int64_t setup = g_spans.open("bench.setup");
    g.reset();
    g = std::make_unique<wcle::Graph>(wcle::make_family(family, n, graph_seed));
    const std::int64_t tg = now_ns();
    g_spans.add("graph.make_family", t0, tg, setup, -1, g->memory_bytes());
    elect(*g, a.u64("warmup-seed"), cycle, true, setup);
    g_spans.close(setup);
    emit("{\"ev\":\"setup\",\"s\":" +
         std::to_string(ms_between(t0, now_ns()) / 1e3) + "}");
    // The timed pass over the seed order.
    const std::int64_t span = g_spans.open("bench.cycle");
    for (const std::uint64_t seed : seeds) elect(*g, seed, cycle, false, span);
    g_spans.close(span, seeds.size());
  }
  g_spans.on = traced;
  if (traced) sim_probe(*g);
}

// ---------------------------------------------------------------- sweep

/// Records a timestamp at begin() and after every cell: the differences are
/// the per-cell times (threads=1, so cells run one after another).
class StampSink final : public wcle::Sink {
 public:
  std::vector<std::int64_t> stamps;
  void begin(const wcle::ExperimentSpec&,
             const std::vector<wcle::SweepCell>&) override {
    stamps.push_back(now_ns());
  }
  void cell(const wcle::CellResult&) override { stamps.push_back(now_ns()); }
};

/// Timing decorator around the JsonlSink (JsonlSink is final).
class TimedSink final : public wcle::Sink {
 public:
  TimedSink(wcle::Sink& inner, const std::ostringstream& out,
            std::int64_t parent)
      : inner_(&inner), out_(&out), parent_(parent) {}
  void begin(const wcle::ExperimentSpec& spec,
             const std::vector<wcle::SweepCell>& cells) override {
    inner_->begin(spec, cells);
  }
  void cell(const wcle::CellResult& r) override {
    const auto before = out_->view().size();
    const std::int64_t t0 = now_ns();
    inner_->cell(r);
    const std::int64_t t1 = now_ns();
    g_spans.add("api.sink", t0, t1, parent_,
                static_cast<std::int64_t>(r.cell.index),
                out_->view().size() - before);
  }
  void end(const wcle::ExperimentSpec& spec) override { inner_->end(spec); }

 private:
  wcle::Sink* inner_;
  const std::ostringstream* out_;
  std::int64_t parent_;
};

/// Forwarding decorator around the binary TraceWriter: notes the byte
/// offset where each cell's runs begin (for per-cell output checks) and, on
/// traced cycles, a span from each run's begin_run to its end_run.
class TimedTraceWriter final : public wcle::TraceWriter {
 public:
  TimedTraceWriter(wcle::TraceWriter& inner, const std::ostringstream& out,
                   std::int64_t parent)
      : inner_(&inner), out_(&out), parent_(parent) {}

  std::vector<std::size_t> cell_offsets;  ///< first byte of each cell's runs
  std::size_t finish_offset = 0;
  std::uint64_t runs = 0;

  void header(const wcle::TraceHeader& h) override { inner_->header(h); }
  void begin_run(const wcle::TraceRunMeta& meta) override {
    run_start_bytes_ = out_->view().size();
    if (meta.cell >= cell_offsets.size())
      cell_offsets.resize(meta.cell + 1, run_start_bytes_);
    run_cell_ = static_cast<std::int64_t>(meta.cell);
    run_start_ = g_spans.on ? now_ns() : 0;
    inner_->begin_run(meta);
  }
  void round(const wcle::TraceRound& r) override { inner_->round(r); }
  void event(const wcle::TraceEvent& e) override { inner_->event(e); }
  void walk_hop(const wcle::TraceWalkHop& h) override { inner_->walk_hop(h); }
  void end_run(std::uint64_t rounds, std::uint64_t events,
               std::uint64_t quanta) override {
    inner_->end_run(rounds, events, quanta);
    ++runs;
    if (g_spans.on)
      g_spans.add("trace.write", run_start_, now_ns(), parent_, run_cell_,
                  out_->view().size() - run_start_bytes_);
  }
  void finish(std::uint64_t runs_total) override {
    finish_offset = out_->view().size();
    const std::int64_t t0 = now_ns();
    inner_->finish(runs_total);
    g_spans.add("trace.write", t0, now_ns(), parent_, -1,
                out_->view().size() - finish_offset);
  }

 private:
  wcle::TraceWriter* inner_;
  const std::ostringstream* out_;
  std::int64_t parent_;
  std::int64_t run_cell_ = -1;
  std::int64_t run_start_ = 0;
  std::size_t run_start_bytes_ = 0;
};

/// Runs one cell alone through run_sweep_cell (the warm-up, and check
/// mode); returns the digest of its JSONL line, or the exception text, as
/// a JSON field.
std::string run_cell_alone(const wcle::ExperimentSpec& spec,
                           const wcle::SweepCell& cell) {
  try {
    return "\"jsonl\":" +
           quoted(digest(wcle::to_json(wcle::run_sweep_cell(spec, cell)) +
                         "\n"));
  } catch (const std::exception& e) {
    return "\"error\":" + quoted(e.what());
  }
}

std::string cell_stats_record(const wcle::ExperimentSpec& spec,
                              const std::vector<wcle::CellResult>& results) {
  std::ostringstream o;
  o.precision(12);
  o << "{\"ev\":\"cells\",\"cells\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const wcle::TrialStats& s = results[i].stats;
    const int t = s.trials;
    auto ext = [&](const char* k) {
      const auto it = s.extras.find(k);
      return it == s.extras.end() ? 0.0 : it->second.median;
    };
    o << (i ? "," : "") << "{\"key\":"
      << quoted(wcle::canonical_cell_key(spec, results[i].cell))
      << ",\"algorithm\":" << quoted(s.algorithm) << ",\"trials\":" << t
      << ",\"congest\":" << s.congest_messages.median
      << ",\"congest_sum\":" << s.congest_messages.mean * t
      << ",\"logical\":" << s.logical_messages.median
      << ",\"logical_sum\":" << s.logical_messages.mean * t
      << ",\"rounds\":" << s.rounds.median
      << ",\"pool_msg_slots\":" << s.pool_msg_slots.median
      << ",\"pool_id_blocks\":" << s.pool_id_blocks.median
      << ",\"crash_dropped\":" << s.crash_dropped_messages.mean * t
      << ",\"link_dropped\":" << s.link_dropped_messages.mean * t
      << ",\"dropped\":" << s.dropped_messages.mean * t
      << ",\"phases\":" << ext("phases")
      << ",\"contenders\":" << ext("contenders")
      << ",\"final_length\":" << ext("final_length") << "}";
  }
  o << "]}";
  return o.str();
}

void run_sweep_workload(const Args& a) {
  const std::string grid = a.get("spec");
  const double seconds = std::stod(a.get("seconds"));
  const auto min_cycles = static_cast<std::int64_t>(a.u64("min-cycles"));
  const bool traced = a.flag("traced");

  wcle::ExperimentSpec spec;
  const std::int64_t start = now_ns();
  for (std::int64_t cycle = 0; more_cycles(cycle, min_cycles, start, seconds);
       ++cycle) {
    g_spans.on = traced && cycle % 2 == 1;
    // Setup: grid expansion (parse + sweep_cells, which builds the graph)
    // and one discarded warm-up cell, checked against cell 0's output.
    const std::int64_t s0 = now_ns();
    const std::int64_t setup = g_spans.open("bench.setup");
    spec = wcle::parse_spec(grid);
    const std::vector<wcle::SweepCell> cells = wcle::sweep_cells(spec);
    if (cells.empty()) throw std::invalid_argument("sweep: empty grid");
    const std::int64_t s1 = now_ns();
    g_spans.add("api.expand", s0, s1, setup, -1, cells.size());
    const std::string checked = run_cell_alone(spec, cells[0]);
    g_spans.add("core.warmup", s1, now_ns(), setup, 0);
    g_spans.close(setup);
    emit("{\"ev\":\"setup\",\"s\":" +
         std::to_string(ms_between(s0, now_ns()) / 1e3) + "," + checked + "}");
    if (a.flag("first-cell")) return;  // check mode: cell 0 alone

    std::ostringstream jsonl, trace;
    wcle::JsonlSink jsonl_sink(jsonl);
    StampSink stamps;
    const std::unique_ptr<wcle::TraceWriter> binary =
        wcle::make_trace_writer(wcle::TraceFormat::kBinary, trace);
    const std::int64_t t0 = now_ns();
    const std::int64_t span = g_spans.open("api.run_sweep");
    TimedSink timed_sink(jsonl_sink, jsonl, span);
    TimedTraceWriter writer(*binary, trace, span);
    std::vector<wcle::CellResult> results;
    std::string error;
    try {
      writer.header({wcle::kTraceVersion, "sweep", spec.to_string()});
      results = wcle::run_sweep(spec, {&timed_sink, &stamps}, /*threads=*/1,
                                &writer);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const std::int64_t t1 = now_ns();
    g_spans.close(span, results.size());

    // Output digests, per cell and whole, after the clock stopped.
    const std::string_view j = jsonl.view(), tr = trace.view();
    std::ostringstream o;
    o.precision(12);
    o << "{\"ev\":\"grid\",\"cycle\":" << cycle
      << ",\"traced\":" << g_spans.on << ",\"ms\":" << ms_between(t0, t1)
      << ",\"jsonl_digest\":" << quoted(digest(j))
      << ",\"trace_digest\":" << quoted(digest(tr))
      << ",\"jsonl_bytes\":" << j.size() << ",\"trace_bytes\":" << tr.size()
      << ",\"trace_runs\":" << writer.runs;
    if (!error.empty()) o << ",\"error\":" << quoted(error);
    o << ",\"cells\":[";
    std::size_t line_start = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::size_t line_end = j.find('\n', line_start);
      const std::size_t tb =
          i < writer.cell_offsets.size() ? writer.cell_offsets[i] : tr.size();
      const std::size_t te = i + 1 < writer.cell_offsets.size()
                                 ? writer.cell_offsets[i + 1]
                                 : writer.finish_offset;
      o << (i ? "," : "") << "{\"ms\":"
        << (i + 1 < stamps.stamps.size()
                ? ms_between(stamps.stamps[i], stamps.stamps[i + 1])
                : 0.0)
        << ",\"start\":" << (i < stamps.stamps.size() ? stamps.stamps[i] : 0)
        << ",\"jsonl\":"
        << quoted(line_end == std::string::npos
                      ? std::string("missing")
                      : digest(j.data() + line_start,
                               line_end + 1 - line_start))
        << ",\"trace\":"
        << quoted(te >= tb && te <= tr.size() ? digest(tr.data() + tb, te - tb)
                                              : std::string("missing"))
        << "}";
      if (line_end != std::string::npos) line_start = line_end + 1;
    }
    o << "]}";
    emit(o.str());
    if (cycle == 0 && error.empty())
      emit(cell_stats_record(spec, results));
  }
  g_spans.on = traced;
  if (traced) {
    const std::int64_t tg = now_ns();
    const wcle::Graph g = wcle::make_family(
        spec.families.front(), static_cast<wcle::NodeId>(spec.sizes.front()),
        spec.graph_seed);
    g_spans.add("graph.make_family", tg, now_ns(), -1, -1, g.memory_bytes());
    sim_probe(g);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
#ifndef NDEBUG
    if (!a.flag("first-cell") && a.get("seconds") != "0") {
      std::cerr << "wcle_perfbench: refusing to time an assert-enabled build "
                   "(NDEBUG is not defined)\n";
      return 2;
    }
#endif
    std::cout << "{\"ev\":\"env\",\"compiler\":"
              << quoted(WCLE_PERFBENCH_COMPILER)
              << ",\"build_type\":" << quoted(WCLE_PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
              << ",\"ndebug\":true}\n";
#else
              << ",\"ndebug\":false}\n";
#endif
    g_out.reserve(64u << 20);
    if (a.mode == "elect")
      run_elect(a);
    else if (a.mode == "sweep")
      run_sweep_workload(a);
    else
      throw std::invalid_argument("unknown mode '" + a.mode + "'");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    emit("{\"ev\":\"rss\",\"peak_kb\":" + std::to_string(ru.ru_maxrss) + "}");
    std::cout << g_out;
    if (a.kv.count("spans")) g_spans.write(a.get("spans"));
    std::cout.flush();
    return std::cout ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "wcle_perfbench: " << e.what() << "\n";
    return 2;
  }
}
