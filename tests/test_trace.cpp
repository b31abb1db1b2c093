// Trace & replay subsystem: recorder rebasing, tracing-never-perturbs,
// timeline/metrics reconciliation, the writer's framing round-tripping
// through the reader, the reader rejecting malformed input,
// single_run_spec's grammar round-trip, thread-count invariance of traced
// trials, the replay verifier (including tamper detection), and the
// summarize pass.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "wcle/api/registry.hpp"
#include "wcle/api/scenario.hpp"
#include "wcle/api/serialize.hpp"
#include "wcle/api/sweep.hpp"
#include "wcle/api/trials.hpp"
#include "wcle/graph/families.hpp"
#include "wcle/trace/reader.hpp"
#include "wcle/trace/recorder.hpp"
#include "wcle/api/replay.hpp"
#include "wcle/trace/summarize.hpp"
#include "wcle/trace/writer.hpp"

namespace wcle {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "wcle_trace_" + name;
}

/// One traced run of `algo_name`, returning (result json, recorder).
std::pair<std::string, TraceRecorder> traced_run(const std::string& algo_name,
                                                 const Graph& g,
                                                 RunOptions options) {
  const Algorithm& algo = AlgorithmRegistry::instance().at(algo_name);
  auto rec = std::make_unique<TraceRecorder>();
  options.params.trace = rec.get();
  const RunResult r = algo.run(g, options);
  TraceRecorder out = std::move(*rec);
  return {to_json(r), std::move(out)};
}

TEST(TraceRecorder, SegmentsRebaseOntoOneTimeline) {
  TraceRecorder rec;
  rec.begin_segment();
  rec.on_send(1);
  rec.on_round(1, 3, 2, 0, 0, 1, 5);
  rec.on_round(2, 1, 1, 0, 0, 0, 0);
  rec.begin_segment();  // a second Network attaches
  rec.on_send(1);       // its local round 1 is absolute round 3
  rec.on_round(1, 2, 2, 0, 0, 0, 0);
  ASSERT_EQ(rec.rounds().size(), 3u);
  EXPECT_EQ(rec.rounds()[2].round, 3u);
  EXPECT_EQ(rec.rounds()[2].sends, 1u);
  EXPECT_EQ(rec.rounds()[2].quanta, 2u);
  EXPECT_EQ(rec.segments(), 2u);
  EXPECT_EQ(rec.total_quanta(), 6u);
  // Segment events sit at the first round of their segment.
  ASSERT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.events()[0].round, 1u);
  EXPECT_EQ(rec.events()[1].round, 3u);
  EXPECT_EQ(rec.events()[1].a, 1u);  // segment ordinal
}

TEST(TraceRecorder, TracingNeverPerturbsResults) {
  const Graph g = make_family("expander", 32, 1);
  for (const char* name : {"election", "flood_max", "push_pull"}) {
    RunOptions options;
    options.params.seed = 7;
    options.params.faults.crash_fraction = 0.2;
    options.params.max_length = 64;
    options.max_rounds = 4000;
    const Algorithm& algo = AlgorithmRegistry::instance().at(name);
    const RunResult plain = algo.run(g, options);
    auto [traced_json, rec] = traced_run(name, g, options);
    EXPECT_EQ(to_json(plain), traced_json) << name;
    EXPECT_FALSE(rec.rounds().empty()) << name;
  }
}

TEST(TraceRecorder, TimelineReconcilesWithMetricsTotals) {
  const Graph g = make_family("hypercube", 32, 1);
  const Algorithm& algo = AlgorithmRegistry::instance().at("election");
  RunOptions options;
  options.params.seed = 5;
  options.params.drop_probability = 0.05;
  options.params.faults.crash_fraction = 0.1;
  options.params.max_length = 64;
  TraceRecorder rec;
  options.params.trace = &rec;
  const RunResult r = algo.run(g, options);
  std::uint64_t quanta = 0, sends = 0, rand_drops = 0, crash_drops = 0,
                link_drops = 0;
  for (const TraceRound& row : rec.rounds()) {
    quanta += row.quanta;
    sends += row.sends;
    rand_drops += row.dropped_rand;
    crash_drops += row.dropped_crash;
    link_drops += row.dropped_link;
  }
  EXPECT_EQ(quanta, r.totals.congest_messages);
  EXPECT_EQ(sends, r.totals.logical_messages);
  EXPECT_EQ(rand_drops, r.totals.dropped_messages);
  EXPECT_EQ(crash_drops, r.totals.crash_dropped_messages);
  EXPECT_EQ(link_drops, r.totals.link_dropped_messages);
  EXPECT_EQ(rec.rounds().back().round, r.rounds);
  // The crash batch shows up as discrete events matching the outcome.
  std::uint64_t crash_events = 0;
  for (const TraceEvent& e : rec.events())
    if (e.kind == TraceEventKind::kCrash) ++crash_events;
  EXPECT_EQ(crash_events, r.faults.crashed.size());
}

TEST(TraceWriter, RoundTripsThroughTheReader) {
  const Graph g = make_family("expander", 32, 1);
  RunOptions options;
  options.params.seed = 9;
  options.params.faults.crash_fraction = 0.25;
  options.params.faults.linkfail_fraction = 0.1;
  options.params.max_length = 64;
  options.max_rounds = 4000;
  auto [json, rec] = traced_run("election", g, options);
  (void)json;

  TraceRunMeta meta;
  meta.run = 2;
  meta.cell = 1;
  meta.trial = 0;
  meta.seed = 9;
  meta.n = 32;
  meta.algorithm = "election";
  meta.family = "expander";
  std::ostringstream out;
  BinaryTraceWriter w(out);
  w.header({kTraceVersion, "run", "name=y algo=election"});
  write_run(w, meta, rec);
  w.finish(1);

  const TraceFileData data = parse_trace(out.str());
  EXPECT_EQ(data.header.version, kTraceVersion);
  EXPECT_EQ(data.header.tool, "run");
  EXPECT_EQ(data.header.spec, "name=y algo=election");
  EXPECT_EQ(data.declared_runs, 1u);
  ASSERT_EQ(data.runs.size(), 1u);
  const TraceRunData& run = data.runs[0];
  EXPECT_EQ(run.meta, meta);
  EXPECT_EQ(run.declared_quanta, rec.total_quanta());
  // Crashes and link failures make every event kind but churn show up.
  ASSERT_GT(rec.events().size(), 8u);
  ASSERT_EQ(run.rounds.size(), rec.rounds().size());
  for (std::size_t i = 0; i < rec.rounds().size(); ++i)
    EXPECT_EQ(run.rounds[i], rec.rounds()[i]) << "round row #" << i;
  ASSERT_EQ(run.events.size(), rec.events().size());
  for (std::size_t i = 0; i < rec.events().size(); ++i)
    EXPECT_EQ(run.events[i], rec.events()[i]) << "event #" << i;
}

/// `header_line` framed as a trace with no records.
std::string framed_header(const std::string& header_line) {
  std::string bytes(kTraceMagic, 8);
  for (int i = 0; i < 4; ++i)
    bytes += static_cast<char>((header_line.size() >> (8 * i)) & 0xff);
  return bytes + header_line;
}

/// Expects `parse_trace(bytes)` to throw a runtime_error whose message
/// starts with "trace:".
void expect_trace_error(const std::string& bytes) {
  try {
    parse_trace(bytes);
    ADD_FAILURE() << "parsed without error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("trace:", 0), 0u) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not a runtime_error: " << e.what();
  }
}

TEST(TraceReader, RejectsInputWithoutTheMagic) {
  const std::string header =
      "{\"type\":\"header\",\"version\":2,\"tool\":\"run\",\"spec\":\"x\"}";
  EXPECT_EQ(parse_trace(framed_header(header)).header.spec, "x");
  expect_trace_error(header + "\n");
  expect_trace_error("");
}

TEST(TraceReader, RejectsAHeaderVersionThatWrapsIntoRange) {
  const auto header = [](const std::string& version) {
    return framed_header("{\"type\":\"header\",\"version\":" + version +
                         ",\"tool\":\"run\",\"spec\":\"x\"}");
  };
  EXPECT_EQ(parse_trace(header("1")).header.version, 1u);
  expect_trace_error(header("3"));
  expect_trace_error(header("4294967297"));            // 2^32 + 1
  expect_trace_error(header("18446744073709551617"));  // 2^64 + 1
}

TEST(TraceReader, RejectsAnUnknownEventKind) {
  std::ostringstream out;
  BinaryTraceWriter w(out);
  w.header({kTraceVersion, "run", "x"});
  w.begin_run(TraceRunMeta{});
  const std::size_t kind_at = out.str().size() + 1 + 8;  // tag, round
  w.event(TraceEvent{});  // a segment event
  w.end_run(0, 1, 0);
  w.finish(1);
  std::string bytes = out.str();
  ASSERT_EQ(parse_trace(bytes).runs.at(0).events.size(), 1u);
  bytes[kind_at] = static_cast<char>(200);
  expect_trace_error(bytes);
  bytes[kind_at] = static_cast<char>(TraceEventKind::kPhase) + 1;
  expect_trace_error(bytes);
}

TEST(TraceReader, RejectsAMalformedUnicodeEscapeInTheHeader) {
  const auto header = [](const std::string& spec) {
    return framed_header(
        "{\"type\":\"header\",\"version\":2,\"tool\":\"run\",\"spec\":\"" +
        spec + "\"}");
  };
  EXPECT_EQ(parse_trace(header("a\\u0009b")).header.spec, "a\tb");
  expect_trace_error(header("a\\uzz09b"));  // non-hex digits
  expect_trace_error(header("a\\u00"));     // would swallow the closing quote
  expect_trace_error(
      framed_header("{\"version\":2,\"tool\":\"run\",\"spec\":\"open"));
}

TEST(TraceSpec, SingleRunSpecRoundTripsOptions) {
  RunOptions options;
  options.params.seed = 21;
  options.params.c1 = 5.5;
  options.params.wide_messages = true;
  options.params.drop_probability = 0.125;
  options.params.faults.crash_fraction = 0.3;
  options.params.faults.crash_round = 4;
  options.params.faults.adversary = "degree";
  options.params.max_length = 128;
  options.max_rounds = 999;
  options.source = 3;
  const ExperimentSpec spec = single_run_spec("election", "hypercube", 64, 2,
                                              21, 1, options);
  // The spec line survives the grammar (to_string -> parse -> to_string).
  const std::string line = spec.to_string();
  EXPECT_EQ(parse_spec(line).to_string(), line);
  // Its single cell reproduces the options exactly.
  const std::vector<SweepCell> cells = expand_cells(parse_spec(line));
  ASSERT_EQ(cells.size(), 1u);
  const ElectionParams& p = cells[0].options.params;
  EXPECT_EQ(p.c1, 5.5);
  EXPECT_TRUE(p.wide_messages);
  EXPECT_EQ(p.drop_probability, 0.125);
  EXPECT_EQ(p.faults.crash_fraction, 0.3);
  EXPECT_EQ(p.faults.crash_round, 4u);
  EXPECT_EQ(p.faults.adversary, "degree");
  EXPECT_EQ(p.max_length, 128u);
  EXPECT_EQ(cells[0].options.max_rounds, 999u);
  EXPECT_EQ(cells[0].options.source, 3u);
  // Options the grammar cannot express are rejected, not silently dropped.
  RunOptions pinned = options;
  pinned.params.faults.pinned_crashes = {1};
  EXPECT_THROW(single_run_spec("election", "hypercube", 64, 1, 1, 1, pinned),
               std::invalid_argument);
  RunOptions fault_seeded = options;
  fault_seeded.params.faults.seed = 77;
  EXPECT_THROW(
      single_run_spec("election", "hypercube", 64, 1, 1, 1, fault_seeded),
      std::invalid_argument);
}

TEST(TraceTrials, TracedTrialsAreThreadCountInvariant) {
  const Graph g = make_family("clique", 16, 1);
  const Algorithm& algo = AlgorithmRegistry::instance().at("flood_max");
  RunOptions options;
  options.params.faults.crash_fraction = 0.25;
  const auto serialize = [&](unsigned threads) {
    std::vector<TraceRecorder> recorders;
    const TrialStats s =
        run_trials(algo, g, options, 4, 100, threads, &recorders);
    std::ostringstream out;
    BinaryTraceWriter w(out);
    w.header({kTraceVersion, "trials", "x"});
    for (std::size_t i = 0; i < recorders.size(); ++i) {
      TraceRunMeta meta;
      meta.run = i;
      meta.trial = i;
      meta.seed = 100 + i;
      meta.n = 16;
      meta.algorithm = "flood_max";
      meta.family = "clique";
      write_run(w, meta, recorders[i]);
    }
    w.finish(recorders.size());
    return std::make_pair(out.str(), to_json(s));
  };
  const auto [trace1, stats1] = serialize(1);
  const auto [trace4, stats4] = serialize(4);
  EXPECT_EQ(trace1, trace4);
  // Aggregates differ only in the reported worker count.
  EXPECT_EQ(stats1.substr(stats1.find("success_rate")),
            stats4.substr(stats4.find("success_rate")));
}

TEST(TraceReplay, VerifiesByteIdentityAndCatchesTampering) {
  RunOptions options;
  options.params.faults.crash_fraction = 0.25;
  const ExperimentSpec spec =
      single_run_spec("flood_max", "clique", 16, 2, 50, 1, options);
  const std::string path = temp_path("replay.btrace");
  {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.is_open());
    BinaryTraceWriter writer(file);
    writer.header({kTraceVersion, "trials", spec.to_string()});
    run_sweep(spec, /*sinks=*/{}, /*threads=*/1, &writer);
  }
  ReplayReport rep = verify_replay(path, /*threads=*/2);
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_EQ(rep.runs, 2u);

  // Flip one timeline byte: replay must localize the drift.
  std::string bytes = read_file_bytes(path);
  const std::size_t at = bytes.size() - 10;
  bytes[at] = bytes[at] == '1' ? '2' : '1';
  {
    std::ofstream file(path, std::ios::binary);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  rep = verify_replay(path, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_GE(rep.first_difference, 1u);
  std::remove(path.c_str());
}

TEST(TraceSummarize, SeriesTrackLiveNodesAndCumulativeBill) {
  const Graph g = make_family("expander", 32, 1);
  RunOptions options;
  options.params.seed = 13;
  options.params.faults.crash_fraction = 0.25;
  options.params.faults.crash_round = 3;
  options.params.max_length = 64;
  options.max_rounds = 4000;
  auto [json, rec] = traced_run("election", g, options);
  (void)json;
  TraceRunData run;
  run.meta.n = 32;
  run.rounds = rec.rounds();
  run.events = rec.events();
  const TraceSummary s = summarize_trace(run);
  ASSERT_EQ(s.series.size(), rec.rounds().size());
  EXPECT_EQ(s.crashes, 8u);  // 0.25 * 32
  // Live nodes: 32 until the crash round, 24 after.
  EXPECT_EQ(s.series.front().live_nodes, 32u);
  EXPECT_EQ(s.series.back().live_nodes, 24u);
  EXPECT_EQ(s.final_live, 24u);
  // Cumulative series are monotone and end at the totals.
  for (std::size_t i = 1; i < s.series.size(); ++i)
    EXPECT_GE(s.series[i].cum_messages, s.series[i - 1].cum_messages);
  EXPECT_EQ(s.series.back().cum_messages, s.total_messages);
  EXPECT_EQ(s.total_messages, rec.total_quanta());
  EXPECT_LE(s.rounds_to_quiet, s.rounds);
  EXPECT_GE(s.peak_backlog, 1u);
  // The table renders one row per round plus the header, and downsampling
  // keeps the last round.
  const Table full = trace_summary_table(s);
  EXPECT_EQ(full.rows(), s.series.size());
  const Table sparse = trace_summary_table(s, 10);
  std::ostringstream csv;
  sparse.write_csv(csv);
  EXPECT_NE(csv.str().find("\n" + std::to_string(s.rounds) + ","),
            std::string::npos);
}

TEST(TraceWriter, WalkHopsRoundTripThroughTheReader) {
  // A v2 trace with walk_hop records must reload hop for hop.
  const Graph g = make_family("expander", 32, 1);
  RunOptions options;
  options.params.seed = 11;
  options.params.max_length = 64;
  options.params.trace_walks = 1;
  options.max_rounds = 4000;
  auto [json, rec] = traced_run("election", g, options);
  (void)json;
  ASSERT_FALSE(rec.walk_hops().empty());

  TraceRunMeta meta;
  meta.run = 0;
  meta.seed = 11;
  meta.n = 32;
  meta.algorithm = "election";
  meta.family = "expander";
  std::ostringstream out;
  BinaryTraceWriter w(out);
  w.header({kTraceVersion, "run",
            "name=single algo=election family=expander n=32 "
            "max-length=64 trace-walks=1 trials=1 base-seed=11"});
  write_run(w, meta, rec);
  w.finish(1);
  const TraceFileData data = parse_trace(out.str());
  ASSERT_EQ(data.runs.size(), 1u);
  EXPECT_EQ(data.runs[0].hops, rec.walk_hops());
  // v2 run_end still carries the all-rounds quanta bill.
  EXPECT_EQ(data.runs[0].declared_quanta, rec.total_quanta());
}

TEST(TraceSummarize, SampledTraceScalesCumulativeSeriesAndLabelsThem) {
  // A --trace-every=5 trace keeps rows 5, 10, 15, 20. The summarize pass
  // must infer the stride, scale the cumulative series by it, prefer the
  // run_end exact total, and label the estimate columns.
  TraceRunData run;
  run.meta.n = 8;
  for (std::uint64_t round = 5; round <= 20; round += 5) {
    TraceRound r;
    r.round = round;
    r.quanta = 2;
    r.sends = 2;
    run.rounds.push_back(r);
  }
  run.declared_quanta = 43;  // all 20 rounds, not 4 * 2 * 5 = 40
  const TraceSummary s = summarize_trace(run);
  EXPECT_EQ(s.stride, 5u);
  EXPECT_TRUE(s.sampled);
  ASSERT_EQ(s.series.size(), 4u);
  EXPECT_EQ(s.series[0].cum_messages, 10u);  // 2 quanta * stride 5
  EXPECT_EQ(s.series[3].cum_messages, 40u);
  EXPECT_EQ(s.total_messages, 43u);  // run_end exact figure wins
  const Table t = trace_summary_table(s);
  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_NE(csv.str().find("cum_msgs(est)"), std::string::npos);

  // An unsampled timeline keeps the exact semantics and plain labels.
  TraceRunData dense;
  dense.meta.n = 8;
  for (std::uint64_t round = 1; round <= 4; ++round) {
    TraceRound r;
    r.round = round;
    r.quanta = 3;
    dense.rounds.push_back(r);
  }
  const TraceSummary d = summarize_trace(dense);
  EXPECT_EQ(d.stride, 1u);
  EXPECT_FALSE(d.sampled);
  EXPECT_EQ(d.total_messages, 12u);
  std::ostringstream dense_csv;
  trace_summary_table(d).write_csv(dense_csv);
  EXPECT_EQ(dense_csv.str().find("cum_msgs(est)"), std::string::npos);
}

}  // namespace
}  // namespace wcle
