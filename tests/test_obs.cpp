// wcle::obs unit tests: the stat registry's update-path semantics,
// congestion aggregation over hand-built hop streams, the Lemma 12
// envelope, per-walk summaries, and the Chrome trace-event exporter's
// output shape.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "wcle/graph/families.hpp"
#include "wcle/obs/congestion.hpp"
#include "wcle/obs/perfetto.hpp"
#include "wcle/obs/registry.hpp"
#include "wcle/obs/walks.hpp"
#include "wcle/trace/reader.hpp"

namespace wcle {
namespace {

TraceWalkHop hop(std::uint64_t round, std::uint32_t origin, std::uint32_t src,
                 std::uint32_t dst, std::uint32_t count) {
  return TraceWalkHop{round, origin, src, dst, count, 0x10};
}

TEST(ObsRegistry, CountersGaugesAndHistograms) {
  StatRegistry reg;
  const std::size_t sends = reg.counter("sends");
  const std::size_t peak = reg.gauge("peak_backlog");
  const std::size_t loads = reg.histogram("edge_load");

  reg.add(sends, 3);
  reg.add(sends, 4);
  EXPECT_EQ(reg.counter_value(sends), 7u);

  reg.set_max(peak, 5);
  reg.set_max(peak, 2);  // lower value must not regress the high-water mark
  reg.set_max(peak, 9);
  EXPECT_EQ(reg.gauge_value(peak), 9u);

  reg.observe(loads, 0);
  reg.observe(loads, 1);
  reg.observe(loads, 5);
  reg.observe(loads, 1024);
  const std::vector<HistogramSnapshot> hists = reg.histograms();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].name, "edge_load");
  EXPECT_EQ(hists[0].count, 4u);
  EXPECT_EQ(hists[0].sum, 1030u);
  EXPECT_EQ(hists[0].min, 0u);
  EXPECT_EQ(hists[0].max, 1024u);
  ASSERT_EQ(hists[0].buckets.size(), 65u);
  EXPECT_EQ(hists[0].buckets[0], 1u);   // value 0
  EXPECT_EQ(hists[0].buckets[1], 1u);   // value 1 (bit width 1)
  EXPECT_EQ(hists[0].buckets[3], 1u);   // value 5 (bit width 3)
  EXPECT_EQ(hists[0].buckets[11], 1u);  // value 1024 (bit width 11)

  reg.reset();
  EXPECT_EQ(reg.counter_value(sends), 0u);
  EXPECT_EQ(reg.gauge_value(peak), 0u);
  EXPECT_EQ(reg.histograms()[0].count, 0u);
}

TEST(ObsCongestion, AggregatesPerRoundEdgeLoads) {
  // Round 1: edge 0->1 carries two messages (3 + 4 walkers), edge 2->3 one.
  // Round 4: one message. Hop streams arrive round-ordered, as recorded.
  const std::vector<TraceWalkHop> hops = {
      hop(1, 8, 0, 1, 3), hop(1, 12, 0, 1, 4), hop(1, 8, 2, 3, 1),
      hop(4, 12, 1, 0, 2)};
  const CongestionReport report = analyze_congestion(hops);
  ASSERT_EQ(report.rounds.size(), 2u);
  EXPECT_EQ(report.rounds[0].round, 1u);
  EXPECT_EQ(report.rounds[0].messages, 3u);
  EXPECT_EQ(report.rounds[0].walkers, 8u);
  EXPECT_EQ(report.rounds[0].busy_edges, 2u);
  EXPECT_EQ(report.rounds[0].max_edge_messages, 2u);  // edge 0->1
  EXPECT_EQ(report.rounds[0].max_edge_walkers, 7u);   // 3 + 4
  EXPECT_EQ(report.rounds[1].round, 4u);
  EXPECT_EQ(report.rounds[1].messages, 1u);
  EXPECT_EQ(report.total_messages, 4u);
  EXPECT_EQ(report.total_walkers, 10u);
  EXPECT_EQ(report.max_edge_messages, 2u);
  EXPECT_EQ(report.max_edge_walkers, 7u);
  EXPECT_EQ(report.messages_by_tag.at(0x10), 4u);
  EXPECT_EQ(report.round_max_messages.count, 2u);
  EXPECT_EQ(report.round_max_messages.max, 2.0);
}

TEST(ObsCongestion, Lemma12EnvelopeShape) {
  EXPECT_EQ(lemma12_bound(0, 0.5), 0.0);
  EXPECT_EQ(lemma12_bound(128, 0.0), 0.0);
  // sqrt(n/phi) * log2(n)^2: grows with n, shrinks as phi improves.
  EXPECT_GT(lemma12_bound(1024, 0.25), lemma12_bound(256, 0.25));
  EXPECT_GT(lemma12_bound(256, 0.1), lemma12_bound(256, 0.4));
  const double expect = 16.0 * 64.0;  // sqrt(256/1) * 8^2
  EXPECT_NEAR(lemma12_bound(256, 1.0), expect, 1e-9);

  const Graph g = make_family("expander", 64, 1);
  const Lemma12Envelope env = lemma12_envelope(g);
  EXPECT_GT(env.phi_lower, 0.0);
  EXPECT_GE(env.phi_upper, env.phi_lower);
  EXPECT_EQ(env.phi, env.phi_upper);
  EXPECT_GT(env.bound, 0.0);
}

TEST(ObsWalks, PerWalkSummariesGroupByOrigin) {
  const std::vector<TraceWalkHop> hops = {
      hop(1, 4, 0, 1, 2), hop(1, 6, 5, 6, 1), hop(2, 4, 1, 2, 3),
      hop(5, 4, 2, 1, 1), hop(6, 4, 1, 2, 1)};
  const std::vector<WalkSummary> walks = summarize_walks(hops);
  ASSERT_EQ(walks.size(), 2u);
  EXPECT_EQ(walks[0].origin, 4u);
  EXPECT_EQ(walks[0].hops, 4u);
  EXPECT_EQ(walks[0].walkers, 7u);
  EXPECT_EQ(walks[0].first_round, 1u);
  EXPECT_EQ(walks[0].last_round, 6u);
  EXPECT_EQ(walks[0].max_count, 3u);
  EXPECT_EQ(walks[0].unique_edges, 3u);  // 0->1, 1->2 (twice), 2->1
  EXPECT_EQ(walks[0].unique_nodes, 2u);  // dst endpoints {1, 2}
  EXPECT_EQ(walks[1].origin, 6u);
  EXPECT_EQ(walks[1].hops, 1u);
}

TEST(ObsPerfetto, ChromeTraceEventShape) {
  TraceFileData data;
  data.header = {kTraceVersion, "run", "name=x algo=election"};
  TraceRunData run;
  run.meta.run = 0;
  run.meta.n = 8;
  run.meta.algorithm = "election";
  run.meta.family = "expander";
  for (std::uint64_t round = 1; round <= 3; ++round) {
    TraceRound r;
    r.round = round;
    r.quanta = 2;
    run.rounds.push_back(r);
  }
  TraceEvent phase1;
  phase1.round = 1;
  phase1.kind = TraceEventKind::kPhase;
  phase1.label = "phase";
  phase1.a = 1;
  TraceEvent phase2 = phase1;
  phase2.round = 2;
  phase2.a = 2;
  TraceEvent crash;
  crash.round = 2;
  crash.kind = TraceEventKind::kCrash;
  crash.a = 5;
  run.events = {phase1, phase2, crash};
  run.hops = {hop(1, 0, 0, 1, 2), hop(2, 0, 1, 2, 2)};
  data.runs.push_back(run);

  std::ostringstream out;
  write_chrome_trace(out, data);
  const std::string json = out.str();
  EXPECT_EQ(json.find("{\"displayTimeUnit\""), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Phase 1 closes where phase 2 opens: a duration slice of 1 round.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1"), std::string::npos);
  // The crash renders as an instant, the rows as counters, the hop stream
  // as the walk_load counter track.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"crash\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"quanta\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"walk_load\""), std::string::npos);
  // Balanced object: ends with the closed array and root brace.
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

}  // namespace
}  // namespace wcle
