// Walk-engine edge cases beyond the happy path: stale trails, partial-origin
// convergecasts, degree-1 topologies, repeated stages, and the exactness of
// the distinctness bookkeeping the algorithm's properties rest on.
#include <gtest/gtest.h>

#include <set>

#include "wcle/graph/generators.hpp"
#include "wcle/rw/walk_engine.hpp"
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
};

TEST(WalkEngineEdge, WalksOnStarTraverseTheHub) {
  // Leaves have degree 1: every move goes through the hub; conservation and
  // trail routing must survive the extreme irregularity.
  Harness h(make_star(12));
  h.engine.run_walk_stage({{3, 50, 5}});
  std::uint64_t total = 0;
  for (const NodeId p : h.engine.proxy_nodes(3))
    total += h.engine.registrations(p).at(3);
  EXPECT_EQ(total, 50u);
  const ProxyPayloadFn payload = [](NodeId, NodeId, std::uint64_t,
                                    ReplyPayload& r) {
    r.proxy_nodes = 1;
  };
  auto events = h.convergecast({3}, payload);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].proxy_nodes, h.engine.proxy_nodes(3).size());
}

TEST(WalkEngineEdge, ConvergecastForSubsetLeavesOthersIntact) {
  Harness h(make_torus(5, 5));
  h.engine.run_walk_stage({{1, 30, 3}, {2, 30, 3}, {3, 30, 3}});
  const ProxyPayloadFn payload = [](NodeId, NodeId, std::uint64_t,
                                    ReplyPayload& r) {
    r.proxy_nodes = 1;
  };
  // Convergecast only origin 2; origins 1 and 3 must stay fully registered
  // and routable afterwards.
  auto events = h.convergecast({2}, payload);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].origin, 2u);
  for (const NodeId origin : {1u, 3u}) {
    std::uint64_t total = 0;
    for (const NodeId p : h.engine.proxy_nodes(origin))
      total += h.engine.registrations(p).at(origin);
    EXPECT_EQ(total, 30u);
  }
}

TEST(WalkEngineEdge, RepeatedConvergecastsGiveIdenticalAggregates) {
  // The static trail structure is immutable: Round 1 and Round 3 style
  // convergecasts over the same trails must agree on the unit bookkeeping.
  Harness h(make_hypercube(5));
  h.engine.run_walk_stage({{4, 64, 4}});
  const ProxyPayloadFn payload = [](NodeId, NodeId, std::uint64_t units,
                                    ReplyPayload& r) {
    r.proxy_nodes = 1;
    r.distinct_proxies = units == 1 ? 1 : 0;
  };
  auto first = h.convergecast({4}, payload);
  auto second = h.convergecast({4}, payload);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].proxy_nodes, second[0].proxy_nodes);
  EXPECT_EQ(first[0].distinct_proxies,
            second[0].distinct_proxies);
}

TEST(WalkEngineEdge, DistinctnessCountsAreExact) {
  // Cross-check engine bookkeeping against a direct census of registrations.
  Harness h(make_clique(20));
  h.engine.run_walk_stage({{0, 100, 4}});
  std::uint64_t distinct = 0, nodes = 0;
  for (const NodeId p : h.engine.proxy_nodes(0)) {
    ++nodes;
    if (h.engine.registrations(p).at(0) == 1) ++distinct;
  }
  const ProxyPayloadFn payload = [](NodeId, NodeId, std::uint64_t units,
                                    ReplyPayload& r) {
    r.proxy_nodes = 1;
    r.distinct_proxies = units == 1 ? 1 : 0;
  };
  auto events = h.convergecast({0}, payload);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].proxy_nodes, nodes);
  EXPECT_EQ(events[0].distinct_proxies, distinct);
}

TEST(WalkEngineEdge, FloodForUnknownOriginIsANoop) {
  Harness h(make_ring(8));
  h.engine.run_walk_stage({{0, 10, 2}});
  auto events = h.flood(5, {1});  // never walked
  EXPECT_TRUE(events.empty());
  EXPECT_TRUE(h.net.idle());
}

TEST(WalkEngineEdge, UnicastOnStaleTrailDropsSafely) {
  Harness h(make_torus(4, 4));
  h.engine.run_walk_stage({{2, 20, 3}});
  ASSERT_FALSE(h.engine.proxy_nodes(2).empty());
  const NodeId old_proxy = h.engine.proxy_nodes(2).front();
  // Re-walk clears the old trail; a unicast from the former proxy must not
  // crash or loop (it may silently drop or arrive via a fresh trail).
  h.engine.run_walk_stage({{2, 20, 5}});
  auto events = h.unicast(old_proxy, 2, {9});
  for (const WalkEvent& ev : events)
    EXPECT_EQ(ev.kind, WalkEvent::Kind::kUnicastAtOrigin);
  EXPECT_TRUE(h.net.idle());
}

TEST(WalkEngineEdge, ManySmallStagesDoNotLeakRegistrations) {
  Harness h(make_clique(12));
  for (int i = 0; i < 8; ++i)
    h.engine.run_walk_stage({{0, 16, 2}});
  std::uint64_t total = 0;
  for (NodeId v = 0; v < 12; ++v) {
    const auto& regs = h.engine.registrations(v);
    const auto it = regs.find(0);
    if (it != regs.end()) total += it->second;
  }
  EXPECT_EQ(total, 16u);  // only the latest stage's units remain
}

TEST(WalkEngineEdge, TwoOriginsAtSameNode) {
  // Distinct contenders can coexist at one node... but origins are node
  // indices, so "same node" means walks launched twice — covered above.
  // Here: two origins whose walks interleave heavily on a tiny graph.
  Harness h(make_path(4));
  h.engine.run_walk_stage({{0, 40, 8}, {3, 40, 8}});
  for (const NodeId origin : {0u, 3u}) {
    std::uint64_t total = 0;
    for (const NodeId p : h.engine.proxy_nodes(origin))
      total += h.engine.registrations(p).at(origin);
    EXPECT_EQ(total, 40u) << "origin " << origin;
  }
}

TEST(WalkEngineEdge, OneOrderPerOriginPerStage) {
  // Level counters are bounded by one order's walk count, and the walks'
  // injection point is (origin, length): a second order for the same origin
  // in one stage would break both, so it is rejected before any state moves.
  Harness h(make_ring(8));
  h.engine.run_walk_stage({{2, 10, 3}});
  EXPECT_THROW(h.engine.run_walk_stage({{2, 10, 3}, {5, 10, 3}, {2, 10, 4}}),
               std::invalid_argument);
  std::uint64_t total = 0;
  for (const NodeId p : h.engine.proxy_nodes(2))
    total += h.engine.registrations(p).at(2);
  EXPECT_EQ(total, 10u);  // the earlier stage's trails are untouched
}

TEST(WalkEngineEdge, ProxyCountersAboveItsUnitsAreRejected) {
  // A proxy counts at most once per walk it ends; that keeps every
  // convergecast aggregate within the 32-bit walk count.
  Harness h(make_ring(8));
  h.engine.run_walk_stage({{0, 10, 2}});
  const ProxyPayloadFn payload = [](NodeId, NodeId, std::uint64_t units,
                                    ReplyPayload& r) {
    r.proxy_nodes = units + 1;
  };
  WalkEvents out;
  EXPECT_THROW(h.engine.begin_convergecast({0}, payload, out),
               std::invalid_argument);
}

TEST(WalkEngineEdge, IdsViewingTheEventBufferAreRejected) {
  // Forwarding an event's ids straight back into the buffer they live in
  // would let a push move that buffer while the operation still reads the
  // view, so flood-down and unicast-up reject such a view up front.
  Harness h(make_torus(4, 4));
  h.engine.run_walk_stage({{2, 20, 3}});
  const NodeId proxy = h.engine.proxy_nodes(2).front();
  WalkEvents events = h.flood(2, {7, 8});
  ASSERT_FALSE(events.empty());
  const IdSpan inside = events.ids(events[0]);
  const std::size_t before = events.size();
  EXPECT_THROW(h.engine.begin_flood_down(2, inside, events),
               std::invalid_argument);
  EXPECT_THROW(h.engine.begin_unicast_up(proxy, 2, inside, events),
               std::invalid_argument);
  EXPECT_EQ(events.size(), before);
  EXPECT_TRUE(h.net.idle());
  // A copy of the same ids, or the same view into another buffer, is fine.
  const std::vector<std::uint64_t> copy = inside.to_vector();
  EXPECT_NO_THROW(h.engine.begin_unicast_up(proxy, 2, copy, events));
  WalkEvents other;
  EXPECT_NO_THROW(h.engine.begin_flood_down(2, events.ids(events[0]), other));
  h.pump(std::move(other));
  EXPECT_TRUE(h.net.idle());
}

}  // namespace
}  // namespace wcle
