#include "wcle/rw/walk_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>
#include <set>

#include "wcle/graph/generators.hpp"
#include "wcle/sim/network.hpp"

namespace wcle {
namespace {

struct Harness {
  Graph g;
  Network net;
  Rng rng;
  WalkEngine engine;

  explicit Harness(Graph graph, std::uint64_t seed = 5)
      : g(std::move(graph)),
        net(g, CongestConfig::standard(g.node_count())),
        rng(seed),
        engine(g, net, rng) {}

  /// Pumps the network to idle, collecting all surfaced events.
  std::vector<WalkEvent> pump(std::vector<WalkEvent> initial = {}) {
    std::vector<WalkEvent> all = std::move(initial);
    net.run_until_idle([&](const Delivery& d) {
      for (WalkEvent& ev : engine.handle(d)) all.push_back(std::move(ev));
    });
    return all;
  }

  std::uint64_t total_registered(NodeId origin) {
    std::uint64_t total = 0;
    for (const NodeId p : engine.proxy_nodes(origin)) {
      const auto& regs = engine.registrations(p);
      total += regs.at(origin);
    }
    return total;
  }
};

TEST(WalkEngine, UnitConservation) {
  Harness h(make_torus(5, 5));
  h.engine.run_walk_stage({{7, 100, 6}});
  EXPECT_TRUE(h.net.idle());
  EXPECT_EQ(h.total_registered(7), 100u);
}

TEST(WalkEngine, LengthOneEndsAtSelfOrNeighbors) {
  Harness h(make_ring(8));
  h.engine.run_walk_stage({{2, 50, 1}});
  std::set<NodeId> allowed{2};
  for (NodeId v : h.g.neighbors(2)) allowed.insert(v);
  for (const NodeId p : h.engine.proxy_nodes(2))
    EXPECT_TRUE(allowed.count(p)) << "proxy " << p;
  EXPECT_EQ(h.total_registered(2), 50u);
}

TEST(WalkEngine, LazyWalkStaysWithAboutHalf) {
  // With length 1, ~half the tokens stay home.
  Harness h(make_clique(16));
  h.engine.run_walk_stage({{0, 10000, 1}});
  const auto& regs = h.engine.registrations(0);
  const auto it = regs.find(0);
  ASSERT_NE(it, regs.end());
  EXPECT_NEAR(static_cast<double>(it->second), 5000.0, 300.0);
}

TEST(WalkEngine, MultipleOriginsConserveIndependently) {
  Harness h(make_hypercube(5));
  h.engine.run_walk_stage({{0, 40, 4}, {9, 70, 4}, {31, 25, 4}});
  EXPECT_EQ(h.total_registered(0), 40u);
  EXPECT_EQ(h.total_registered(9), 70u);
  EXPECT_EQ(h.total_registered(31), 25u);
}

TEST(WalkEngine, RewalkingClearsOldRegistrations) {
  Harness h(make_torus(4, 4));
  h.engine.run_walk_stage({{3, 30, 2}});
  const std::uint64_t first = h.total_registered(3);
  h.engine.run_walk_stage({{3, 30, 4}});
  EXPECT_EQ(h.total_registered(3), 30u);
  EXPECT_EQ(first, 30u);
  // All registrations are from the second stage: walk counts sum to 30, not 60.
  std::uint64_t sum = 0;
  for (NodeId v = 0; v < h.g.node_count(); ++v) {
    const auto& regs = h.engine.registrations(v);
    const auto it = regs.find(3);
    if (it != regs.end()) sum += it->second;
  }
  EXPECT_EQ(sum, 30u);
}

TEST(WalkEngine, OtherOriginsRegistrationsPersist) {
  Harness h(make_torus(4, 4));
  h.engine.run_walk_stage({{1, 20, 2}, {2, 20, 2}});
  h.engine.run_walk_stage({{1, 20, 4}});  // origin 2 inactive: keeps proxies
  EXPECT_EQ(h.total_registered(2), 20u);
}

TEST(WalkEngine, ConvergecastCountsProxiesExactly) {
  Harness h(make_torus(6, 6));
  h.engine.run_walk_stage({{5, 64, 5}});
  const std::uint64_t expect_nodes = h.engine.proxy_nodes(5).size();
  std::uint64_t expect_distinct = 0;
  for (const NodeId p : h.engine.proxy_nodes(5))
    if (h.engine.registrations(p).at(5) == 1) ++expect_distinct;

  const ProxyPayloadFn payload = [&](NodeId, NodeId, std::uint64_t units) {
    ReplyPayload r;
    r.proxy_nodes = 1;
    r.distinct_proxies = (units == 1) ? 1 : 0;
    return r;
  };
  auto events = h.pump(h.engine.begin_convergecast({5}, payload));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, WalkEvent::Kind::kConvergecastDone);
  EXPECT_EQ(events[0].origin, 5u);
  EXPECT_EQ(events[0].reply.proxy_nodes, expect_nodes);
  EXPECT_EQ(events[0].reply.distinct_proxies, expect_distinct);
}

TEST(WalkEngine, ConvergecastUnionsIds) {
  Harness h(make_clique(10));
  h.engine.run_walk_stage({{0, 30, 3}});
  const ProxyPayloadFn payload = [&](NodeId proxy, NodeId,
                                     std::uint64_t) {
    ReplyPayload r;
    r.add_id(1000 + proxy);  // unique per proxy
    return r;
  };
  auto events = h.pump(h.engine.begin_convergecast({0}, payload));
  ASSERT_EQ(events.size(), 1u);
  std::set<std::uint64_t> expect;
  for (const NodeId p : h.engine.proxy_nodes(0)) expect.insert(1000 + p);
  const std::set<std::uint64_t> got(events[0].reply.ids.begin(),
                                    events[0].reply.ids.end());
  EXPECT_EQ(got, expect);
}

TEST(WalkEngine, ConvergecastForAllOriginsAtOnce) {
  Harness h(make_hypercube(4));
  h.engine.run_walk_stage({{0, 25, 3}, {7, 25, 3}, {12, 25, 3}});
  const ProxyPayloadFn payload = [&](NodeId, NodeId, std::uint64_t) {
    ReplyPayload r;
    r.proxy_nodes = 1;
    return r;
  };
  auto events = h.pump(h.engine.begin_convergecast({0, 7, 12}, payload));
  EXPECT_EQ(events.size(), 3u);
  std::set<NodeId> origins;
  for (const auto& ev : events) origins.insert(ev.origin);
  EXPECT_EQ(origins, (std::set<NodeId>{0, 7, 12}));
}

TEST(WalkEngine, FloodReachesEveryProxy) {
  Harness h(make_torus(5, 5));
  h.engine.run_walk_stage({{4, 48, 6}});
  auto events = h.pump(h.engine.begin_flood_down(4, {99}));
  std::set<NodeId> reached;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.kind, WalkEvent::Kind::kFloodAtProxy);
    EXPECT_EQ(ev.origin, 4u);
    ASSERT_EQ(ev.ids.size(), 1u);
    EXPECT_EQ(ev.ids[0], 99u);
    reached.insert(ev.node);
  }
  const std::set<NodeId> expect(h.engine.proxy_nodes(4).begin(),
                                h.engine.proxy_nodes(4).end());
  EXPECT_EQ(reached, expect);
}

TEST(WalkEngine, SecondFloodGenerationTraversesAgain) {
  Harness h(make_clique(8));
  h.engine.run_walk_stage({{1, 20, 2}});
  const auto first = h.pump(h.engine.begin_flood_down(1, {7}));
  const auto second = h.pump(h.engine.begin_flood_down(1, {8}));
  EXPECT_EQ(first.size(), second.size());
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(second[0].ids[0], 8u);
}

TEST(WalkEngine, UnicastReachesOrigin) {
  Harness h(make_torus(5, 5));
  h.engine.run_walk_stage({{11, 32, 5}});
  ASSERT_FALSE(h.engine.proxy_nodes(11).empty());
  const NodeId some_proxy = h.engine.proxy_nodes(11).front();
  auto events = h.pump(h.engine.begin_unicast_up(some_proxy, 11, {123}));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, WalkEvent::Kind::kUnicastAtOrigin);
  EXPECT_EQ(events[0].node, 11u);
  EXPECT_EQ(events[0].origin, 11u);
  EXPECT_EQ(events[0].ids, (std::vector<std::uint64_t>{123}));
}

TEST(WalkEngine, UnicastFromEveryProxyWorks) {
  Harness h(make_hypercube(4));
  h.engine.run_walk_stage({{6, 40, 4}});
  for (const NodeId p : h.engine.proxy_nodes(6)) {
    auto events = h.pump(h.engine.begin_unicast_up(p, 6, {1}));
    ASSERT_EQ(events.size(), 1u) << "proxy " << p;
    EXPECT_EQ(events[0].node, 6u);
  }
}

TEST(WalkEngine, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Harness h(make_torus(4, 4), seed);
    h.engine.run_walk_stage({{0, 64, 4}});
    std::vector<std::pair<NodeId, std::uint64_t>> regs;
    for (const NodeId p : h.engine.proxy_nodes(0))
      regs.emplace_back(p, h.engine.registrations(p).at(0));
    std::sort(regs.begin(), regs.end());
    return std::pair{regs, h.net.metrics().congest_messages};
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(WalkEngine, TokenCoalescingBeatsPerWalkCost) {
  // Lemma 12's device: parallel walks of one origin travel as counts, so the
  // per-level cost is bounded by the edges touched, not the walk count.
  // 2048 walks x 8 steps would move ~8192 per-walk tokens (half are lazy);
  // coalesced cost must be far below that and below edges x levels.
  Harness h(make_clique(16), 9);
  h.engine.run_walk_stage({{0, 2048, 8}});
  const std::uint64_t bulk = h.net.metrics().congest_messages;
  EXPECT_LT(bulk, 4096u);             // < half the naive token moves
  EXPECT_LE(bulk, 16u * 15u * 10u);   // <= directed edges x (levels + slack)
  EXPECT_EQ(h.total_registered(0), 2048u);
}

TEST(WalkEngine, LongWalkOnRingCompletes) {
  Harness h(make_ring(16));
  h.engine.run_walk_stage({{0, 10, 64}});
  EXPECT_EQ(h.total_registered(0), 10u);
  // Long walks mix: proxies spread beyond the immediate neighborhood.
  EXPECT_GE(h.engine.proxy_nodes(0).size(), 3u);
}

TEST(WalkEngine, RejectsZeroCountOrLength) {
  Harness h(make_ring(8));
  EXPECT_THROW(h.engine.run_walk_stage({{0, 0, 4}}), std::invalid_argument);
  EXPECT_THROW(h.engine.run_walk_stage({{0, 4, 0}}), std::invalid_argument);
  // Level counters are 32-bit: a count beyond them is rejected up front.
  EXPECT_THROW(h.engine.run_walk_stage({{0, std::uint64_t{1} << 32, 4}}),
               std::invalid_argument);
}

TEST(WalkEngine, IdPoolStaysWithinLiveRowsTimesPayload) {
  // Every proxy reports kIds ids drawn from a universe of kUniverse ids, so
  // no set-union holds more than kUniverse ids. A live id set is the union
  // of a disjoint group of proxy payloads, so there are never more live sets
  // than proxy rows, and the pool needs at most one power-of-two slot of
  // kUniverse ids per proxy row, plus one chunk of bump slack. A merge that
  // sizes its slot by the sum of its inputs but frees it by the union's
  // length strands a slot on every merge and breaks the bound.
  constexpr std::uint32_t kIds = 48;
  constexpr std::uint32_t kUniverse = 64;
  Rng graph_rng(3);
  Harness h(make_random_regular(1024, 6, graph_rng));
  std::vector<NodeId> origins;
  std::vector<WalkOrder> orders;
  for (NodeId o = 0; o < 1024; o += 128) {
    origins.push_back(o);
    orders.push_back({o, 2048, 16});
  }
  h.engine.run_walk_stage(orders);
  std::uint64_t proxy_rows = 0;
  for (const NodeId o : origins) proxy_rows += h.engine.proxy_nodes(o).size();

  const ProxyPayloadFn payload = [&](NodeId proxy, NodeId, std::uint64_t) {
    ReplyPayload r;
    r.proxy_nodes = 1;
    for (std::uint32_t j = 0; j < kIds; ++j)
      r.add_id(1 + (proxy + j) % kUniverse);
    return r;
  };
  std::vector<std::uint64_t> pool_bytes;
  for (int round = 0; round < 3; ++round) {
    const auto events = h.pump(h.engine.begin_convergecast(origins, payload));
    ASSERT_EQ(events.size(), origins.size());
    for (const WalkEvent& ev : events)
      EXPECT_EQ(ev.reply.ids.size(), kUniverse);
    pool_bytes.push_back(h.engine.memory_bytes().id_pool);
  }
  for (const std::uint64_t bytes : pool_bytes)
    EXPECT_EQ(bytes, pool_bytes.front()) << "pool grew across convergecasts";

  const std::uint64_t slot_bytes =
      std::bit_ceil(kUniverse) * sizeof(std::uint64_t);
  const std::uint64_t chunk_bytes = (std::uint64_t{1} << 16) * 8;
  EXPECT_LE(pool_bytes.back(), proxy_rows * slot_bytes + chunk_bytes)
      << proxy_rows << " proxy rows";
}

TEST(WalkEngine, ProxyDistributionApproachesStationary) {
  // After >= tmix steps on a regular graph, endpoints are near uniform:
  // chi-square-lite check that no node hoards walks.
  Harness h(make_hypercube(5));
  const std::uint64_t walks = 3200;
  h.engine.run_walk_stage({{0, walks, 40}});
  const double expect = static_cast<double>(walks) / 32.0;
  for (NodeId v = 0; v < 32; ++v) {
    const auto& regs = h.engine.registrations(v);
    const auto it = regs.find(0);
    const double got = it == regs.end() ? 0.0 : static_cast<double>(it->second);
    EXPECT_NEAR(got, expect, 6 * std::sqrt(expect)) << "node " << v;
  }
}

}  // namespace
}  // namespace wcle
