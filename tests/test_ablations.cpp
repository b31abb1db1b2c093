// Ablations of the paper's design choices, one test per claim
// (Coalescing*: token coalescing; NonLazy*: lazy walks). Each switch must
// change behaviour in exactly the direction the paper's design arguments
// predict — coalescing saves the per-walk token bill, laziness fixes the
// bipartite parity trap, wide links trade bandwidth for message count.
#include <gtest/gtest.h>

#include "wcle/core/leader_election.hpp"
#include "wcle/graph/generators.hpp"
#include "wcle/rw/walk_engine.hpp"
#include "wcle/sim/network.hpp"

namespace wcle {
namespace {

TEST(Ablation, CoalescingSavesWalkMessages) {
  // Same seed, same walks; naive per-walk tokens pay per unit crossing each
  // edge, coalesced tokens pay per (origin, level, edge). The denser the
  // traffic the bigger the gap — at 4096 walks over a 16-clique the savings
  // must exceed 3x.
  const NodeId n = 16;
  std::uint64_t coalesced, naive;
  {
    const Graph g = make_clique(n);
    Network net(g, CongestConfig::standard(n));
    Rng rng(5);
    WalkEngine engine(g, net, rng, {true, true});
    engine.run_walk_stage({{0, 4096, 6}});
    coalesced = net.metrics().congest_messages;
  }
  {
    const Graph g = make_clique(n);
    Network net(g, CongestConfig::standard(n));
    Rng rng(5);
    WalkEngine engine(g, net, rng, {true, false});
    engine.run_walk_stage({{0, 4096, 6}});
    naive = net.metrics().congest_messages;
  }
  EXPECT_GT(naive, 3 * coalesced);
}

TEST(Ablation, CoalescingPreservesWalkStatistics) {
  // The accounting mode changes delivery timing (bigger messages queue
  // longer), which perturbs merge order and thus individual endpoints — but
  // unit conservation and the coarse spread must be unaffected.
  const Graph g = make_torus(5, 5);
  auto run = [&](bool coalesce) {
    Network net(g, CongestConfig::standard(25));
    Rng rng(7);
    WalkEngine engine(g, net, rng, {true, coalesce});
    engine.run_walk_stage({{3, 256, 6}});
    std::uint64_t total = 0;
    for (const NodeId p : engine.proxy_nodes(3))
      total += engine.registrations(p).at(3);
    return std::pair{total, engine.proxy_nodes(3).size()};
  };
  const auto [total_c, spread_c] = run(true);
  const auto [total_n, spread_n] = run(false);
  EXPECT_EQ(total_c, 256u);
  EXPECT_EQ(total_n, 256u);
  // 256 walks over 25 nodes at >= tmix: nearly every node is a proxy.
  EXPECT_GE(spread_c, 20u);
  EXPECT_GE(spread_n, 20u);
}

TEST(Ablation, NonLazyWalksNeverStay) {
  const Graph g = make_ring(8);
  Network net(g, CongestConfig::standard(8));
  Rng rng(9);
  WalkEngine engine(g, net, rng, {false, true});
  // Length-1 non-lazy walks always move: origin cannot be its own proxy.
  engine.run_walk_stage({{0, 100, 1}});
  const auto& regs = engine.registrations(0);
  EXPECT_EQ(regs.find(0), regs.end());
  std::uint64_t total = 0;
  for (const NodeId p : engine.proxy_nodes(0))
    total += engine.registrations(p).at(0);
  EXPECT_EQ(total, 100u);
}

TEST(Ablation, NonLazyWalksHitParityTrapOnBipartiteGraphs) {
  // On a hypercube (bipartite), non-lazy walks of length t always end at
  // parity (start + t) mod 2: contenders in different parity classes can
  // never share a proxy, so the intersection property starves and the
  // guess-and-double loop hits its cap — exactly why the paper uses the
  // lazy chain.
  const Graph g = make_hypercube(6);
  ElectionParams p;
  p.seed = 3;
  p.lazy_walks = false;
  p.max_phases = 6;           // bound the doomed doubling for test speed
  p.max_length = 64;
  const ElectionResult r = run_leader_election(g, p);
  EXPECT_TRUE(r.hit_phase_cap || !r.success());

  // Control: the lazy chain with the same budget succeeds.
  ElectionParams q = p;
  q.lazy_walks = true;
  const ElectionResult rl = run_leader_election(g, q);
  EXPECT_TRUE(rl.success());
  EXPECT_FALSE(rl.hit_phase_cap);
}

TEST(Ablation, NonLazyParityInvariantHolds) {
  // Directly verify the parity invariant driving the trap.
  const Graph g = make_hypercube(5);
  Network net(g, CongestConfig::standard(32));
  Rng rng(11);
  WalkEngine engine(g, net, rng, {false, true});
  const std::uint32_t length = 7;  // odd
  engine.run_walk_stage({{0, 200, length}});
  for (const NodeId p : engine.proxy_nodes(0)) {
    const int parity = __builtin_popcount(p) % 2;
    EXPECT_EQ(parity, static_cast<int>(length % 2)) << "proxy " << p;
  }
}

TEST(Ablation, ElectionWithNaiveTokensCostsMore) {
  const Graph g = make_clique(64);
  ElectionParams a;
  a.seed = 13;
  ElectionParams b = a;
  b.coalesce_tokens = false;
  const ElectionResult ra = run_leader_election(g, a);
  const ElectionResult rb = run_leader_election(g, b);
  ASSERT_TRUE(ra.success());
  ASSERT_TRUE(rb.success());
  EXPECT_EQ(ra.leaders, rb.leaders);  // accounting only, same behaviour
  EXPECT_GT(rb.totals.congest_messages, ra.totals.congest_messages);
}

}  // namespace
}  // namespace wcle
