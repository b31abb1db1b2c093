// Property-based sweeps (parameterized gtest): invariants that must hold for
// every graph family, size, and seed — at-most-one-leader safety, unit
// conservation, schedule bounds, and the monotonicity properties the paper's
// lemmas rest on.
#include <gtest/gtest.h>

#include <cmath>

#include "wcle/core/leader_election.hpp"
#include "wcle/graph/generators.hpp"
#include "wcle/rw/walk_engine.hpp"
#include "wcle/sim/network.hpp"

namespace wcle {
namespace {

enum class Family { kClique, kHypercube, kTorus, kExpander, kRing };

struct FamilyCase {
  Family family;
  NodeId size_hint;
  const char* name;
};

Graph build_family(const FamilyCase& c, std::uint64_t seed) {
  Rng rng(seed);
  switch (c.family) {
    case Family::kClique:
      return make_clique(c.size_hint);
    case Family::kHypercube: {
      std::uint32_t d = 1;
      while ((NodeId{1} << (d + 1)) <= c.size_hint) ++d;
      return make_hypercube(d);
    }
    case Family::kTorus: {
      const NodeId side = static_cast<NodeId>(std::sqrt(double(c.size_hint)));
      return make_torus(side, side);
    }
    case Family::kExpander:
      return make_random_regular(c.size_hint, 6, rng);
    case Family::kRing:
      return make_ring(c.size_hint);
  }
  return make_clique(4);
}

std::string family_name(
    const ::testing::TestParamInfo<std::tuple<FamilyCase, int>>& info) {
  return std::string(std::get<0>(info.param).name) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

class ElectionSafetyProperty
    : public ::testing::TestWithParam<std::tuple<FamilyCase, int>> {};

TEST_P(ElectionSafetyProperty, AtMostOneLeaderAndBoundsHold) {
  const auto& [fc, seed] = GetParam();
  const Graph g = build_family(fc, 100 + seed);
  ElectionParams p;
  p.seed = 1000 + seed;
  const ElectionResult r = run_leader_election(g, p);

  // Safety (Lemma 8): never more than one leader.
  EXPECT_LE(r.leaders.size(), 1u);
  // Any leader is a contender and carries a nonzero random id.
  if (!r.leaders.empty()) {
    EXPECT_NE(std::find(r.contenders.begin(), r.contenders.end(),
                        r.leaders[0]),
              r.contenders.end());
    EXPECT_GT(r.leader_random_id, 0u);
  }
  // Time bound (Lemma 12): measured rounds within the paper's schedule.
  EXPECT_LE(r.totals.rounds, r.scheduled_rounds);
  // Accounting: phase metrics partition the totals.
  std::uint64_t msgs = 0;
  for (const PhaseStats& ps : r.phase_stats)
    msgs += ps.metrics.congest_messages;
  EXPECT_EQ(msgs, r.totals.congest_messages);
  // CONGEST accounting: every logical message costs >= 1 CONGEST message.
  EXPECT_GE(r.totals.congest_messages, r.totals.logical_messages);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ElectionSafetyProperty,
    ::testing::Combine(
        ::testing::Values(FamilyCase{Family::kClique, 96, "clique"},
                          FamilyCase{Family::kHypercube, 64, "hypercube"},
                          FamilyCase{Family::kTorus, 100, "torus"},
                          FamilyCase{Family::kExpander, 120, "expander"},
                          FamilyCase{Family::kRing, 24, "ring"}),
        ::testing::Range(0, 4)),
    family_name);

class WalkConservationProperty
    : public ::testing::TestWithParam<std::tuple<FamilyCase, int>> {};

TEST_P(WalkConservationProperty, UnitsConservedAndTrailsRoutable) {
  const auto& [fc, seed] = GetParam();
  const Graph g = build_family(fc, 200 + seed);
  Network net(g, CongestConfig::standard(g.node_count()));
  Rng rng(300 + seed);
  WalkEngine engine(g, net, rng);

  const std::uint64_t count = 64;
  const std::uint32_t length = 6;
  const NodeId origin = g.node_count() / 2;
  engine.run_walk_stage({{origin, count, length}});

  // Conservation: all walk units end registered at proxies.
  std::uint64_t total = 0;
  for (const NodeId p : engine.proxy_nodes(origin))
    total += engine.registrations(p).at(origin);
  EXPECT_EQ(total, count);

  // Every proxy can route a unicast back to the origin.
  for (const NodeId p : engine.proxy_nodes(origin)) {
    bool reached = false;
    WalkEvents events;
    engine.begin_unicast_up(p, origin, std::vector<std::uint64_t>{1}, events);
    net.run_until_idle([&](const Delivery& d) { engine.handle(d, events); });
    for (const WalkEvent& ev : events)
      if (ev.kind == WalkEvent::Kind::kUnicastAtOrigin) reached = true;
    EXPECT_TRUE(reached) << "proxy " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WalkConservationProperty,
    ::testing::Combine(
        ::testing::Values(FamilyCase{Family::kClique, 32, "clique"},
                          FamilyCase{Family::kHypercube, 32, "hypercube"},
                          FamilyCase{Family::kTorus, 36, "torus"},
                          FamilyCase{Family::kExpander, 40, "expander"},
                          FamilyCase{Family::kRing, 16, "ring"}),
        ::testing::Range(0, 3)),
    family_name);

class SeedDeterminismProperty : public ::testing::TestWithParam<int> {};

TEST_P(SeedDeterminismProperty, IdenticalRunsAreBitIdentical) {
  const Graph g = make_hypercube(5);
  ElectionParams p;
  p.seed = 5000 + GetParam();
  const ElectionResult a = run_leader_election(g, p);
  const ElectionResult b = run_leader_election(g, p);
  EXPECT_EQ(a.leaders, b.leaders);
  EXPECT_EQ(a.contenders, b.contenders);
  EXPECT_EQ(a.totals.congest_messages, b.totals.congest_messages);
  EXPECT_EQ(a.totals.total_bits, b.totals.total_bits);
  EXPECT_EQ(a.totals.rounds, b.totals.rounds);
  EXPECT_EQ(a.phases, b.phases);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedDeterminismProperty,
                         ::testing::Range(0, 6));

class WalkLengthMonotonicityProperty : public ::testing::TestWithParam<int> {};

TEST_P(WalkLengthMonotonicityProperty, LongerWalksSpreadAtLeastAsFar) {
  // Lemma 3's engine: walk endpoints approach stationarity, so the number of
  // distinct proxy nodes is (statistically) non-decreasing in walk length on
  // a poorly-mixed start. Averaged over walks to damp noise.
  const Graph g = make_torus(8, 8);
  Network net(g, CongestConfig::standard(g.node_count()));
  Rng rng(700 + GetParam());
  WalkEngine engine(g, net, rng);
  double short_spread = 0, long_spread = 0;
  const int reps = 3;
  for (int i = 0; i < reps; ++i) {
    engine.run_walk_stage({{0, 96, 2}});
    short_spread += static_cast<double>(engine.proxy_nodes(0).size());
    engine.run_walk_stage({{0, 96, 32}});
    long_spread += static_cast<double>(engine.proxy_nodes(0).size());
  }
  EXPECT_GT(long_spread, short_spread);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalkLengthMonotonicityProperty,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace wcle
