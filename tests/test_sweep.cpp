// Tests for the sweep engine and sinks: grid expansion order, graph reuse
// and snapping, reliable_on filtering, the seeded message-drop fault axis,
// and the acceptance property of the whole subsystem — the streamed JSONL is
// byte-identical for repeated runs of the same spec at ANY worker-thread
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>

#include "wcle/api/scenario.hpp"
#include "wcle/api/sink.hpp"
#include "wcle/api/sweep.hpp"

namespace wcle {
namespace {

std::string jsonl_of(const ExperimentSpec& spec, unsigned threads) {
  std::ostringstream out;
  JsonlSink sink(out);
  run_sweep(spec, {&sink}, threads);
  return out.str();
}

TEST(Sweep, ExpansionOrderIsFamilyOuterThenSizeThenAlgorithm) {
  const ExperimentSpec spec =
      parse_spec("algo=flood_max,flood_broadcast family=clique,ring n=16,32 "
                 "trials=1");
  const std::vector<SweepCell> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 8u);
  EXPECT_EQ(cells[0].family, "clique");
  EXPECT_EQ(cells[0].requested_n, 16u);
  EXPECT_EQ(cells[0].algorithm, "flood_max");
  EXPECT_EQ(cells[1].algorithm, "flood_broadcast");
  EXPECT_EQ(cells[2].requested_n, 32u);
  EXPECT_EQ(cells[4].family, "ring");
  for (std::size_t i = 0; i < cells.size(); ++i)
    EXPECT_EQ(cells[i].index, i);
}

TEST(Sweep, KnobGridsExpandAndResolve) {
  const ExperimentSpec spec = parse_spec(
      "algo=flood_max family=clique n=16 trials=1 c1=2,8 wide=false,true");
  const std::vector<SweepCell> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 4u);
  // Alphabetical knob order: c1 outer, wide inner.
  EXPECT_EQ(cells[0].options.params.c1, 2.0);
  EXPECT_FALSE(cells[0].options.params.wide_messages);
  EXPECT_TRUE(cells[1].options.params.wide_messages);
  EXPECT_EQ(cells[2].options.params.c1, 8.0);
}

TEST(Sweep, GraphsSnapAndCarryShape) {
  const ExperimentSpec spec =
      parse_spec("algo=flood_max family=torus n=10 trials=1");
  const std::vector<CellResult> results = run_sweep(spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].cell.requested_n, 10u);
  EXPECT_EQ(results[0].n, 9u);   // snapped to 3x3
  EXPECT_EQ(results[0].m, 18u);  // torus edges = 2n
  EXPECT_EQ(results[0].stats.trials, 1);
}

TEST(Sweep, SkipUnreliableFiltersUnfairCells) {
  const ExperimentSpec spec = parse_spec(
      "algo=clique_referee,flood_max family=ring,clique n=16 trials=1 "
      "reliable=1");
  const std::vector<CellResult> results = run_sweep(spec);
  // clique_referee survives on the clique only; flood_max everywhere.
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].cell.family, "ring");
  EXPECT_EQ(results[0].cell.algorithm, "flood_max");
  // Post-filter indices stay dense so sinks and JSONL stay gap-free.
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].cell.index, i);
}

TEST(Sweep, DropAxisLosesMessagesDeterministically) {
  const ExperimentSpec spec = parse_spec(
      "algo=flood_broadcast family=clique n=16 trials=2 drop=0,0.5");
  const std::vector<CellResult> results = run_sweep(spec);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stats.dropped_messages.max, 0.0);
  EXPECT_GT(results[1].stats.dropped_messages.mean, 0.0);
  // Lossy links still pay bandwidth: congest messages stay comparable.
  EXPECT_GT(results[1].stats.congest_messages.mean, 0.0);
  // And the faulty cell is exactly reproducible.
  const std::vector<CellResult> again = run_sweep(spec);
  EXPECT_EQ(to_json(results[1]), to_json(again[1]));
}

#ifndef WCLE_SOURCE_DIR
#define WCLE_SOURCE_DIR "."
#endif

TEST(Sweep, LossyElectionGridMatchesItsRecordedJsonl) {
  // Under drop > 0 a walk token can be lost while a later flood over the
  // same edge gets through. The receiver's level then has no link from the
  // sender's departure entry, and the walk engine must fall back to the
  // (node, level) lookup, which finds the level when a token over another
  // edge created it. This grid takes that path thousands of times; its
  // JSONL was recorded before the trail carried links.
  const std::string golden =
      std::string(WCLE_SOURCE_DIR) + "/tests/golden/drop_grid.jsonl";
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden JSONL: " << golden;
  std::ostringstream recorded;
  recorded << in.rdbuf();
  const ExperimentSpec spec =
      parse_spec("algo=election,known_tmix family=expander n=128,256 "
                 "drop=0.05,0.2 trials=3");
  EXPECT_EQ(jsonl_of(spec, /*threads=*/2), recorded.str());
}

TEST(Sweep, ElectionSurvivesMildFaultsAndTerminatesUnderHeavyOnes) {
  // The fault axis must never hang the election: walks are phase-driven and
  // the guess-and-double cap bounds the run even when every convergecast is
  // starved. Success under heavy loss is not expected — termination is.
  const ExperimentSpec spec = parse_spec(
      "algo=election family=clique n=16 trials=1 drop=0.3 max-phases=6");
  const std::vector<CellResult> results = run_sweep(spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].stats.congest_messages.mean, 0.0);
}

TEST(Sweep, JsonlIsIdenticalForAnyThreadCountAndRepeatedRuns) {
  const ExperimentSpec spec = parse_spec(
      "algo=flood_max,push_pull family=clique,hypercube n=16,32 trials=3 "
      "drop=0,0.25");
  const std::string t1 = jsonl_of(spec, 1);
  const std::string t4 = jsonl_of(spec, 4);
  const std::string t4_again = jsonl_of(spec, 4);
  const std::string hw = jsonl_of(spec, 0);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t4, t4_again);
  EXPECT_EQ(t1, hw);
  // One line per cell, stats always single-threaded inside a cell.
  std::istringstream lines(t1);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_NE(line.find("\"threads\":1"), std::string::npos);
    ++count;
  }
  EXPECT_EQ(count, spec.cell_count());
}

TEST(Sweep, TableAndCsvSinksRenderEveryCell) {
  const ExperimentSpec spec = parse_spec(
      "algo=flood_max family=clique,ring n=16 trials=2 drop=0,0.5 "
      "extras=informed name=demo title=DemoTitle");
  std::ostringstream table_out, csv_out;
  TableSink table(table_out);
  CsvSink csv(csv_out);
  run_sweep(spec, {&table, &csv});

  const std::string text = table_out.str();
  EXPECT_NE(text.find("DemoTitle"), std::string::npos);
  EXPECT_NE(text.find("family"), std::string::npos);  // >1 family => column
  EXPECT_NE(text.find("drop"), std::string::npos);    // >1 drop => column
  EXPECT_NE(text.find("reproduce: wcle_cli sweep"), std::string::npos);

  std::istringstream lines(csv_out.str());
  std::string header;
  std::getline(lines, header);
  EXPECT_NE(header.find("n,m"), std::string::npos);
  EXPECT_NE(header.find("dropped(mean)"), std::string::npos);
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) ++rows;
  EXPECT_EQ(rows, spec.cell_count());
}

TEST(Sweep, CsvCellsWithSeparatorsAreQuoted) {
  // Golden: extras keys and family/adversary names are free-form strings;
  // cells containing commas, quotes, or newlines must arrive RFC 4180
  // quoted instead of shearing the row apart.
  Table t({"name", "value,with,commas", "plain"});
  t.add_row({"say \"hi\"", "line\nbreak", "clean"});
  t.add_row({"a,b", "x", "y"});
  std::ostringstream out;
  t.write_csv(out);
  EXPECT_EQ(out.str(),
            "name,\"value,with,commas\",plain\n"
            "\"say \"\"hi\"\"\",\"line\nbreak\",clean\n"
            "\"a,b\",x,y\n");
  // The escape helper itself: clean cells pass through untouched.
  EXPECT_EQ(Table::csv_escape("plain"), "plain");
  EXPECT_EQ(Table::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(Table::csv_escape("q\"q"), "\"q\"\"q\"");
  EXPECT_EQ(Table::csv_escape("cr\rlf"), "\"cr\rlf\"");
}

TEST(Sweep, FaultAxesExpandAndResolve) {
  const ExperimentSpec spec = parse_spec(
      "algo=flood_max family=clique n=16 trials=1 crash=0,0.25 linkfail=0.1 "
      "adversary=random,degree crash-round=2");
  const std::vector<SweepCell> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 4u);
  // Axis order: ... drop, crash, linkfail, adversary.
  EXPECT_EQ(cells[0].crash, 0.0);
  EXPECT_EQ(cells[0].adversary, "random");
  EXPECT_EQ(cells[1].adversary, "degree");
  EXPECT_EQ(cells[2].crash, 0.25);
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.linkfail, 0.1);
    EXPECT_EQ(cell.options.params.faults.crash_fraction, cell.crash);
    EXPECT_EQ(cell.options.params.faults.linkfail_fraction, 0.1);
    EXPECT_EQ(cell.options.params.faults.adversary, cell.adversary);
    EXPECT_EQ(cell.options.params.faults.crash_round, 2u);
  }
  // The reproduction line round-trips the fault axes.
  const ExperimentSpec again = parse_spec(spec.to_string());
  EXPECT_EQ(again.crashes, spec.crashes);
  EXPECT_EQ(again.linkfails, spec.linkfails);
  EXPECT_EQ(again.adversaries, spec.adversaries);
  EXPECT_EQ(again.cell_count(), spec.cell_count());
  EXPECT_THROW(parse_spec("crash=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_spec("adversary=byzantine"), std::invalid_argument);
}

TEST(Sweep, FaultyJsonlIsIdenticalForAnyThreadCountAndRerun) {
  // The acceptance property under faults: nonzero crash/linkfail/drop axes
  // with every adversary strategy, byte-identical JSONL across worker
  // counts and across process-internal reruns.
  const ExperimentSpec spec = parse_spec(
      "algo=flood_max,candidate_flood family=expander n=32 trials=3 "
      "drop=0,0.1 crash=0,0.25 linkfail=0.1 "
      "adversary=random,degree,contenders");
  const std::string t1 = jsonl_of(spec, 1);
  const std::string t4 = jsonl_of(spec, 4);
  const std::string again = jsonl_of(spec, 4);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t4, again);
  // Verdict fields flow into every line, and faulty cells record losses.
  EXPECT_NE(t1.find("\"safety_rate\":"), std::string::npos);
  EXPECT_NE(t1.find("\"crash\":0.25"), std::string::npos);
  EXPECT_NE(t1.find("\"adversary\":\"contenders\""), std::string::npos);
  std::size_t lines = 0;
  std::istringstream in(t1);
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, spec.cell_count());
}

TEST(Sweep, E14ReportsVerdictRatesInEverySink) {
  ExperimentSpec spec = builtin_experiment("e14", 0);
  // Shrink to a fast deterministic slice: the full scale-0 grid runs in CI.
  spec.algorithms = {"election", "flood_max"};
  spec.sizes = {16};
  spec.trials = 2;
  std::ostringstream table_out, csv_out, jsonl_out;
  TableSink table(table_out);
  CsvSink csv(csv_out);
  JsonlSink jsonl(jsonl_out);
  run_sweep(spec, {&table, &csv, &jsonl});
  const std::string text = table_out.str();
  EXPECT_NE(text.find("crash"), std::string::npos);
  EXPECT_NE(text.find("safety"), std::string::npos);
  EXPECT_NE(text.find("liveness"), std::string::npos);
  EXPECT_NE(text.find("agree(mean)"), std::string::npos);
  const std::string csv_text = csv_out.str();
  EXPECT_NE(csv_text.find("safety"), std::string::npos);
  EXPECT_NE(csv_text.find("liveness"), std::string::npos);
  const std::string jsonl_text = jsonl_out.str();
  EXPECT_NE(jsonl_text.find("\"safety_rate\":"), std::string::npos);
  EXPECT_NE(jsonl_text.find("\"liveness_rate\":"), std::string::npos);
  EXPECT_NE(jsonl_text.find("\"agreement\":"), std::string::npos);
}

TEST(Sweep, CustomBandwidthAxisChangesTheBill) {
  const ExperimentSpec spec = parse_spec(
      "algo=flood_max family=clique n=16 trials=2 bandwidth=8,1024");
  const std::vector<CellResult> results = run_sweep(spec);
  ASSERT_EQ(results.size(), 2u);
  // 8-bit links need many more B-bit quanta than 1024-bit links.
  EXPECT_GT(results[0].stats.congest_messages.mean,
            results[1].stats.congest_messages.mean);
}

TEST(Sweep, SweepCellsMatchesRunSweepCellList) {
  // sweep_cells is the cell list the serve job queue schedules from; it must
  // agree with what run_sweep executes — including the reliable_on filter
  // and its re-indexing — or served bytes drift from CLI bytes.
  const ExperimentSpec spec = parse_spec(
      "algo=clique_referee,flood_max family=ring,clique n=16 trials=1 "
      "reliable=1");
  const std::vector<SweepCell> cells = sweep_cells(spec);
  const std::vector<CellResult> results = run_sweep(spec);
  ASSERT_EQ(cells.size(), results.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, results[i].cell.index);
    EXPECT_EQ(cells[i].algorithm, results[i].cell.algorithm);
    EXPECT_EQ(cells[i].family, results[i].cell.family);
    EXPECT_EQ(cells[i].requested_n, results[i].cell.requested_n);
  }
}

TEST(Sweep, RunSweepCellReproducesRunSweepBytes) {
  // One cell at a time through run_sweep_cell must serialize to exactly the
  // whole-sweep lines: this is the determinism contract the serve daemon's
  // cache and streaming rest on.
  const ExperimentSpec spec = parse_spec(
      "algo=flood_max,push_pull family=clique,hypercube n=16,32 trials=2 "
      "drop=0,0.25");
  const std::string whole = jsonl_of(spec, 4);
  std::string cellwise;
  for (const SweepCell& cell : sweep_cells(spec)) {
    cellwise += to_json(run_sweep_cell(spec, cell));
    cellwise += "\n";
  }
  EXPECT_EQ(whole, cellwise);
}

// A streambuf that holds written bytes invisible until sync(): what a
// downstream pipe/file reader would see only materializes on flush. (An
// ostringstream cannot observe this — it has no buffer distinct from its
// visible string.)
class FlushVisibleBuf final : public std::streambuf {
 public:
  const std::string& visible() const { return visible_; }

 protected:
  int_type overflow(int_type ch) override {
    if (ch != traits_type::eof()) pending_.push_back(traits_type::to_char_type(ch));
    return ch;
  }
  int sync() override {
    visible_ += pending_;
    pending_.clear();
    return 0;
  }

 private:
  std::string pending_;
  std::string visible_;
};

TEST(Sweep, JsonlSinkFlushesEveryLineAsItCompletes) {
  // The per-line flush contract (sink.hpp): after each cell() call the full
  // line — terminator included — is already flushed through the stream, so
  // a live consumer (the serve daemon's result streams, tail -f) sees whole
  // lines the moment their cell completes, without waiting for sweep end.
  class FlushObserver final : public Sink {
   public:
    FlushObserver(JsonlSink& inner, const FlushVisibleBuf& buf)
        : inner_(&inner), buf_(&buf) {}
    void cell(const CellResult& result) override {
      inner_->cell(result);
      const std::string& visible = buf_->visible();
      ++cells_seen_;
      std::size_t lines = 0;
      for (const char ch : visible)
        if (ch == '\n') ++lines;
      EXPECT_EQ(lines, cells_seen_);
      ASSERT_FALSE(visible.empty());
      EXPECT_EQ(visible.back(), '\n');  // never a torn line
      EXPECT_NE(visible.rfind("\"cell\":" + std::to_string(result.cell.index)),
                std::string::npos);
    }

   private:
    JsonlSink* inner_;
    const FlushVisibleBuf* buf_;
    std::size_t cells_seen_ = 0;
  };

  const ExperimentSpec spec =
      parse_spec("algo=flood_max family=clique n=16,32 trials=1 drop=0,0.5");
  FlushVisibleBuf buf;
  std::ostream out(&buf);
  JsonlSink sink(out);
  FlushObserver observer(sink, buf);
  const std::vector<CellResult> results =
      run_sweep(spec, {&observer}, /*threads=*/2);
  EXPECT_EQ(results.size(), 4u);
  EXPECT_EQ(std::count(buf.visible().begin(), buf.visible().end(), '\n'), 4);
}

}  // namespace
}  // namespace wcle
