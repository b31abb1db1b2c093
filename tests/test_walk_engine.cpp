#include "wcle/rw/walk_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>
#include <set>

#include "alloc_counter.hpp"
#include "wcle/core/leader_election.hpp"
#include "wcle/graph/families.hpp"
#include "wcle/graph/generators.hpp"
#include "wcle/sim/network.hpp"

namespace wcle {
namespace {

using wcle_test::allocations;

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

  /// Pumps the network to idle, collecting all surfaced events after the
  /// ones the operation completed locally.
  WalkEvents pump(WalkEvents all) {
    net.run_until_idle([&](const Delivery& d) { engine.handle(d, all); });
    return all;
  }
  WalkEvents convergecast(const std::vector<NodeId>& origins,
                          const ProxyPayloadFn& payload) {
    WalkEvents out;
    engine.begin_convergecast(origins, payload, out);
    return pump(std::move(out));
  }
  WalkEvents flood(NodeId origin, const std::vector<std::uint64_t>& ids) {
    WalkEvents out;
    engine.begin_flood_down(origin, ids, out);
    return pump(std::move(out));
  }
  WalkEvents unicast(NodeId node, NodeId origin,
                     const std::vector<std::uint64_t>& ids) {
    WalkEvents out;
    engine.begin_unicast_up(node, origin, ids, out);
    return pump(std::move(out));
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

  const ProxyPayloadFn payload = [&](NodeId, NodeId, std::uint64_t units,
                                     ReplyPayload& r) {
    r.proxy_nodes = 1;
    r.distinct_proxies = (units == 1) ? 1 : 0;
  };
  auto events = h.convergecast({5}, payload);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, WalkEvent::Kind::kConvergecastDone);
  EXPECT_EQ(events[0].origin, 5u);
  EXPECT_EQ(events[0].proxy_nodes, expect_nodes);
  EXPECT_EQ(events[0].distinct_proxies, expect_distinct);
}

TEST(WalkEngine, ConvergecastUnionsIds) {
  Harness h(make_clique(10));
  h.engine.run_walk_stage({{0, 30, 3}});
  const ProxyPayloadFn payload = [&](NodeId proxy, NodeId,
                                     std::uint64_t, ReplyPayload& r) {
    r.add_id(1000 + proxy);  // unique per proxy
  };
  auto events = h.convergecast({0}, payload);
  ASSERT_EQ(events.size(), 1u);
  std::set<std::uint64_t> expect;
  for (const NodeId p : h.engine.proxy_nodes(0)) expect.insert(1000 + p);
  const IdSpan ids = events.ids(events[0]);
  const std::set<std::uint64_t> got(ids.begin(), ids.end());
  EXPECT_EQ(got, expect);
}

TEST(WalkEngine, ConvergecastForAllOriginsAtOnce) {
  Harness h(make_hypercube(4));
  h.engine.run_walk_stage({{0, 25, 3}, {7, 25, 3}, {12, 25, 3}});
  const ProxyPayloadFn payload = [&](NodeId, NodeId, std::uint64_t,
                                     ReplyPayload& r) {
    r.proxy_nodes = 1;
  };
  auto events = h.convergecast({0, 7, 12}, payload);
  EXPECT_EQ(events.size(), 3u);
  std::set<NodeId> origins;
  for (const auto& ev : events) origins.insert(ev.origin);
  EXPECT_EQ(origins, (std::set<NodeId>{0, 7, 12}));
}

TEST(WalkEngine, FloodReachesEveryProxy) {
  Harness h(make_torus(5, 5));
  h.engine.run_walk_stage({{4, 48, 6}});
  auto events = h.flood(4, {99});
  std::set<NodeId> reached;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.kind, WalkEvent::Kind::kFloodAtProxy);
    EXPECT_EQ(ev.origin, 4u);
    ASSERT_EQ(events.ids(ev).size(), 1u);
    EXPECT_EQ(events.ids(ev)[0], 99u);
    reached.insert(ev.node);
  }
  const std::set<NodeId> expect(h.engine.proxy_nodes(4).begin(),
                                h.engine.proxy_nodes(4).end());
  EXPECT_EQ(reached, expect);
}

TEST(WalkEngine, SecondFloodGenerationTraversesAgain) {
  Harness h(make_clique(8));
  h.engine.run_walk_stage({{1, 20, 2}});
  const auto first = h.flood(1, {7});
  const auto second = h.flood(1, {8});
  EXPECT_EQ(first.size(), second.size());
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(second.ids(second[0])[0], 8u);
}

TEST(WalkEngine, UnicastReachesOrigin) {
  Harness h(make_torus(5, 5));
  h.engine.run_walk_stage({{11, 32, 5}});
  ASSERT_FALSE(h.engine.proxy_nodes(11).empty());
  const NodeId some_proxy = h.engine.proxy_nodes(11).front();
  auto events = h.unicast(some_proxy, 11, {123});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, WalkEvent::Kind::kUnicastAtOrigin);
  EXPECT_EQ(events[0].node, 11u);
  EXPECT_EQ(events[0].origin, 11u);
  EXPECT_EQ(events.ids(events[0]).to_vector(),
            (std::vector<std::uint64_t>{123}));
}

TEST(WalkEngine, UnicastFromEveryProxyWorks) {
  Harness h(make_hypercube(4));
  h.engine.run_walk_stage({{6, 40, 4}});
  for (const NodeId p : h.engine.proxy_nodes(6)) {
    auto events = h.unicast(p, 6, {1});
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

  const ProxyPayloadFn payload = [&](NodeId proxy, NodeId, std::uint64_t,
                                     ReplyPayload& r) {
    r.proxy_nodes = 1;
    for (std::uint32_t j = 0; j < kIds; ++j)
      r.add_id(1 + (proxy + j) % kUniverse);
  };
  std::vector<std::uint64_t> pool_bytes;
  for (int round = 0; round < 3; ++round) {
    const auto events = h.convergecast(origins, payload);
    ASSERT_EQ(events.size(), origins.size());
    for (const WalkEvent& ev : events)
      EXPECT_EQ(events.ids(ev).size(), kUniverse);
    pool_bytes.push_back(h.engine.memory_bytes().id_pool);
  }
  for (const std::uint64_t bytes : pool_bytes)
    EXPECT_EQ(bytes, pool_bytes.front()) << "pool grew across convergecasts";

  const std::uint64_t slot_bytes =
      std::bit_ceil(kUniverse) * sizeof(std::uint64_t);
  const std::uint64_t chunk_bytes =
      std::uint64_t{WordPool::kChunkWords} * sizeof(std::uint64_t);
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

TEST(WalkEngineAlloc, SteadyDeliveryCycleMakesNoAllocations) {
  // One cycle runs the three delivery paths Algorithm 2 uses after its walk
  // stage: a convergecast with id sets, a flood-down and a unicast-up. The
  // first cycle warms the event buffer, the id-set pool, the credit stack
  // and the transport; an identical second cycle must not allocate in any
  // handle() call or in the caller's drain of the events.
  Rng graph_rng(7);
  Harness h(make_random_regular(256, 6, graph_rng));
  const std::vector<NodeId> origins = {0, 37, 101, 200};
  std::vector<WalkOrder> orders;
  for (const NodeId o : origins) orders.push_back({o, 512, 12});
  h.engine.run_walk_stage(orders);
  ASSERT_FALSE(h.engine.proxy_nodes(37).empty());
  const NodeId proxy = h.engine.proxy_nodes(37).front();

  const ProxyPayloadFn payload = [&](NodeId p, NodeId origin,
                                     std::uint64_t units, ReplyPayload& r) {
    r.proxy_nodes = 1;
    r.distinct_proxies = units == 1 ? 1 : 0;
    for (const auto& [x, cnt] : h.engine.registrations(p))
      if (x != origin) r.add_id(1000 + x);
  };
  const std::vector<std::uint64_t> flood_ids = {5, 9, 11};
  const std::vector<std::uint64_t> up_ids = {42};

  WalkEvents events;
  struct Tally {
    std::uint64_t events = 0, id_sum = 0, allocs = 0;
  };
  const auto drain = [&](Tally& t) {
    for (std::size_t head = 0; head < events.size(); ++head) {
      const WalkEvent ev = events[head];
      ++t.events;
      for (const std::uint64_t id : events.ids(ev)) t.id_sum += id;
      t.id_sum += ev.distinct_proxies + ev.proxy_nodes;
    }
    events.clear();
  };
  const auto pump = [&](Tally& t) {
    const std::uint64_t local = allocations();
    drain(t);
    t.allocs += allocations() - local;
    h.net.run_until_idle([&](const Delivery& d) {
      const std::uint64_t before = allocations();
      h.engine.handle(d, events);
      drain(t);
      t.allocs += allocations() - before;
    });
  };
  const auto cycle = [&]() {
    Tally t;
    h.engine.begin_convergecast(origins, payload, events);
    pump(t);
    for (const NodeId o : origins) {
      h.engine.begin_flood_down(o, flood_ids, events);
      pump(t);
    }
    h.engine.begin_unicast_up(proxy, 37, up_ids, events);
    pump(t);
    return t;
  };

  const Tally warm = cycle();
  ASSERT_GT(warm.allocs, 0u) << "the counting operator new is not linked in";
  const Tally steady = cycle();
  EXPECT_EQ(steady.events, warm.events);
  EXPECT_EQ(steady.id_sum, warm.id_sum);
  EXPECT_EQ(steady.allocs, 0u);
}

TEST(WalkEngineAlloc, RepeatedWalkStageMakesNoAllocations) {
  // A walk stage keeps its round buckets in engine-owned scratch and draws
  // with binomial constants built at construction. Re-run from the same
  // stream position, the same stage retraces the same walks over warm
  // trails, buckets and transport, and must not allocate.
  Rng graph_rng(7);
  Harness h(make_random_regular(256, 6, graph_rng));
  std::vector<WalkOrder> orders;
  for (const NodeId o : {0u, 37u, 101u, 200u}) orders.push_back({o, 512, 12});
  h.rng = Rng(11);
  const std::uint64_t cold = allocations();
  const std::uint64_t rounds = h.engine.run_walk_stage(orders);
  ASSERT_GT(allocations(), cold)
      << "the counting operator new is not linked in";
  h.rng = Rng(11);
  const std::uint64_t warm = allocations();
  EXPECT_EQ(h.engine.run_walk_stage(orders), rounds);
  EXPECT_EQ(allocations() - warm, 0u);
}

TEST(WalkEngineAlloc, ElectionAllocationsStayBounded) {
  // Whole-election guard: the fresh Network and WalkEngine pools and the
  // reactor's scratch warm up once, but no per-delivery or per-event work
  // allocates. A clean election makes 4,444 / 4,002 / 4,603 allocations
  // (seeds 1-3; the same in Release, Debug and ASan+UBSan builds). One
  // allocation per reactor event (split_marks or the drain loop body) makes
  // 13,677 / 12,065 / 14,135, one per WalkEngine::handle 60,705 / 51,390 /
  // 61,595, one per Network::send 74,377 / 62,773 / 75,405. The bound sits
  // between the clean and the reactor counts.
  const Graph g = make_family("expander", 256, 1);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ElectionParams params;
    params.seed = seed;
    const std::uint64_t before = allocations();
    const ElectionResult r = run_leader_election(g, params);
    const std::uint64_t made = allocations() - before;
    EXPECT_EQ(r.leaders.size(), 1u) << "seed " << seed;
    EXPECT_LT(made, 8000u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace wcle
