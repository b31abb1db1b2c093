// Data-plane rebuild proof obligations:
//   1. Bit-identity against the PRE-refactor engine: a fixed-seed faulty
//      (e14-style) cell's binary trace, recorded before the pool/ring/flat
//      rebuild and checked into tests/golden/, must replay byte-identically
//      on the current engine. This pins the whole stack — graph build, walk
//      engine RNG draw order, transport service order, fault injection, and
//      serialization — to the pre-refactor execution.
//   2. Sampled tracing (--trace-every=K): every K-th round row is kept,
//      events survive untouched, replay still round-trips, and K = 1 is the
//      pre-sampling format.
//   3. replay --diff decodes the first differing record — a round row or a
//      walk hop — instead of leaving only a byte offset.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "wcle/api/scenario.hpp"
#include "wcle/api/sweep.hpp"
#include "wcle/graph/families.hpp"
#include "wcle/sim/network.hpp"
#include "wcle/trace/reader.hpp"
#include "wcle/trace/recorder.hpp"
#include "wcle/api/replay.hpp"
#include "wcle/trace/writer.hpp"

namespace wcle {
namespace {

#ifndef WCLE_SOURCE_DIR
#define WCLE_SOURCE_DIR "."
#endif

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "wcle_dataplane_" + name;
}

/// Records `spec_text`'s sweep as a trace at `path`.
void write_trace(const std::string& spec_text, const std::string& path) {
  const ExperimentSpec spec = parse_spec(spec_text);
  std::ofstream file(path, std::ios::binary);
  ASSERT_TRUE(file.is_open());
  BinaryTraceWriter writer(file);
  writer.header({kTraceVersion, "trials", spec.to_string()});
  run_sweep(spec, /*sinks=*/{}, /*threads=*/1, &writer);
}

/// Little-endian bytes of `v`, as the trace framing writes integers.
template <typename T>
std::string le(T v) {
  std::string out;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out += static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff);
  return out;
}

/// Adds 1 to the byte at `prefix.size()` past the first occurrence of
/// `prefix` in the trace at `path` — a record's leading fields pick the
/// record, the offset the field to tamper with.
void tamper_after(const std::string& path, const std::string& prefix) {
  std::string bytes = read_file_bytes(path);
  const std::size_t at = bytes.find(prefix);
  ASSERT_NE(at, std::string::npos);
  ++bytes[at + prefix.size()];
  std::ofstream file(path, std::ios::binary);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(DataPlaneGolden, PreRefactorTraceReplaysByteIdentically) {
  const std::string golden =
      std::string(WCLE_SOURCE_DIR) +
      "/tests/golden/e14_cell_pre_refactor.btrace";
  {
    std::ifstream probe(golden, std::ios::binary);
    ASSERT_TRUE(probe.is_open()) << "missing golden trace: " << golden;
  }
  const ReplayReport rep = verify_replay(golden, /*threads=*/1);
  EXPECT_TRUE(rep.ok) << rep.detail << "\n"
                      << "the data plane no longer reproduces the "
                         "pre-refactor execution bit-for-bit";
  EXPECT_EQ(rep.runs, 2u);
}

TEST(DataPlaneGolden, PreObsE1TraceReplaysByteIdentically) {
  // Recorded at trace schema v1, before the wcle::obs layer landed: the
  // fault-free e1 slice must keep replaying byte-identically — walk-hop
  // tracing, pool gauges, and the schema v2 writer must all be invisible
  // when --trace-walks is off and the header says version 1.
  const std::string golden =
      std::string(WCLE_SOURCE_DIR) + "/tests/golden/e1_pre_obs.btrace";
  {
    std::ifstream probe(golden, std::ios::binary);
    ASSERT_TRUE(probe.is_open()) << "missing golden trace: " << golden;
  }
  const ReplayReport rep = verify_replay(golden, /*threads=*/1);
  EXPECT_TRUE(rep.ok) << rep.detail << "\n"
                      << "the obs layer perturbed the pre-obs execution "
                         "or the v1 trace encoding";
  EXPECT_EQ(rep.runs, 4u);
}

TEST(DataPlaneSampling, RecorderKeepsEveryKthRowAndAllEvents) {
  // Identical runs, traced at K = 1 and K = 4: the sampled row set must be
  // exactly the K-grid restriction of the full one, events identical, and
  // the total quanta bill unchanged.
  const ExperimentSpec spec = parse_spec(
      "algo=election family=expander n=32 trials=1 base-seed=7 "
      "max-length=64");
  const auto record = [&](std::uint32_t every) {
    std::ostringstream buf;
    BinaryTraceWriter writer(buf);
    ExperimentSpec s = spec;
    if (every > 1) s.knobs["trace-every"] = {std::to_string(every)};
    writer.header({kTraceVersion, "test", s.to_string()});
    run_sweep(s, /*sinks=*/{}, /*threads=*/1, &writer);
    return parse_trace(buf.str());
  };
  const TraceFileData full = record(1);
  const TraceFileData sampled = record(4);
  ASSERT_EQ(full.runs.size(), 1u);
  ASSERT_EQ(sampled.runs.size(), 1u);

  std::vector<TraceRound> expect;
  for (const TraceRound& r : full.runs[0].rounds)
    if (r.round % 4 == 0) expect.push_back(r);
  ASSERT_EQ(sampled.runs[0].rounds.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(sampled.runs[0].rounds[i].round, expect[i].round);
    EXPECT_EQ(sampled.runs[0].rounds[i].quanta, expect[i].quanta);
    EXPECT_EQ(sampled.runs[0].rounds[i].sends, expect[i].sends);
    EXPECT_EQ(sampled.runs[0].rounds[i].backlog, expect[i].backlog);
  }
  // Events are never sampled away.
  ASSERT_EQ(sampled.runs[0].events.size(), full.runs[0].events.size());
  for (std::size_t i = 0; i < full.runs[0].events.size(); ++i) {
    EXPECT_EQ(sampled.runs[0].events[i].round, full.runs[0].events[i].round);
    EXPECT_EQ(sampled.runs[0].events[i].kind, full.runs[0].events[i].kind);
  }
  EXPECT_LT(sampled.runs[0].rounds.size(), full.runs[0].rounds.size());
}

TEST(DataPlaneSampling, SampledTraceStillReplaysByteIdentically) {
  // The trace-every knob rides in the header spec, so replay re-executes
  // with the same sampling and the bytes round-trip.
  const std::string path = temp_path("sampled.btrace");
  write_trace(
      "algo=flood_max family=clique n=16 trials=2 base-seed=50 trace-every=3",
      path);
  const ReplayReport rep = verify_replay(path, /*threads=*/2);
  EXPECT_TRUE(rep.ok) << rep.detail;
  std::remove(path.c_str());
}

TEST(DataPlaneDiff, ReplayDiffDecodesTheFirstDifferingRecord) {
  const std::string path = temp_path("diff.btrace");
  write_trace("algo=flood_max family=clique n=16 trials=1 base-seed=50", path);
  // Tamper with the first round row's quanta: --diff must name the record
  // and decode both sides rather than only reporting a byte offset.
  const TraceRound first = read_trace_file(path).runs.at(0).rounds.at(0);
  tamper_after(path, le(kTraceRecRound) + le(first.round) + le(first.sends));
  const ReplayReport rep = verify_replay(path, /*threads=*/1, /*diff=*/true);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.diff.find("first differing record"), std::string::npos)
      << rep.diff;
  EXPECT_NE(rep.diff.find("round row #0"), std::string::npos) << rep.diff;
  EXPECT_NE(rep.diff.find("original:"), std::string::npos) << rep.diff;
  EXPECT_NE(rep.diff.find("regenerated:"), std::string::npos) << rep.diff;
  std::remove(path.c_str());
}

TEST(DataPlaneDiff, ReplayDiffDecodesWalkHopDrift) {
  // Rows and events still agree when only a hop's walker count drifts, so
  // the hop stream must be compared too.
  const std::string path = temp_path("hop_diff.btrace");
  write_trace(
      "algo=election family=expander n=32 trials=1 base-seed=7 "
      "max-length=64 trace-walks=1",
      path);
  const TraceRunData run = read_trace_file(path).runs.at(0);
  ASSERT_FALSE(run.hops.empty());
  const TraceWalkHop& hop = run.hops.front();
  tamper_after(path, le(kTraceRecWalkHop) + le(hop.round) + le(hop.origin) +
                         le(hop.src) + le(hop.dst));
  const ReplayReport rep = verify_replay(path, /*threads=*/1, /*diff=*/true);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.diff.find("walk hop #0"), std::string::npos) << rep.diff;
  EXPECT_NE(rep.diff.find("count=" + std::to_string(hop.count + 1)),
            std::string::npos)
      << rep.diff;
  std::remove(path.c_str());
}

TEST(DataPlaneDiff, DiffIsEmptyOnByteIdenticalTraces) {
  const std::string path = temp_path("clean.btrace");
  write_trace("algo=flood_max family=clique n=16 trials=1 base-seed=50", path);
  const ReplayReport rep = verify_replay(path, /*threads=*/1, /*diff=*/true);
  EXPECT_TRUE(rep.ok) << rep.detail;
  EXPECT_TRUE(rep.diff.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wcle
