#include "wcle/sim/network.hpp"

#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "wcle/core/leader_election.hpp"
#include "wcle/graph/generators.hpp"

namespace wcle {
namespace {

Message small_msg(std::uint8_t tag = 1, std::uint32_t bits = 8) {
  Message m;
  m.tag = tag;
  m.bits = bits;
  return m;
}

TEST(Network, SingleHopDelivery) {
  const Graph g = make_path(2);
  Network net(g, {32});
  Message m = small_msg(3, 16);
  m.a = 42;
  net.send(0, 0, m);
  EXPECT_FALSE(net.idle());
  const auto& d = net.step();
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].dst, 1u);
  EXPECT_EQ(d[0].msg.a, 42u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.metrics().rounds, 1u);
  EXPECT_EQ(net.metrics().congest_messages, 1u);
  EXPECT_EQ(net.metrics().logical_messages, 1u);
}

TEST(Network, ArrivalPortIsReceiversPort) {
  Rng rng(3);
  const Graph g = make_torus(4, 4, &rng);
  Network net(g, {64});
  // Send over every directed edge once; check arrival port mirrors.
  for (NodeId u = 0; u < g.node_count(); ++u)
    for (Port p = 0; p < g.degree(u); ++p) {
      Message m = small_msg();
      m.a = (static_cast<std::uint64_t>(u) << 32) | p;
      net.send(u, p, m);
    }
  const auto& d = net.step();
  ASSERT_EQ(d.size(), 2 * g.edge_count());
  for (const Delivery& del : d) {
    const NodeId from = static_cast<NodeId>(del.msg.a >> 32);
    const Port from_port = static_cast<Port>(del.msg.a & 0xffffffffu);
    EXPECT_EQ(g.neighbor(del.dst, del.port), from);
    EXPECT_EQ(g.mirror_port(from, from_port), del.port);
  }
}

TEST(Network, FragmentationDelaysLargeMessages) {
  const Graph g = make_path(2);
  Network net(g, {10});
  net.send(0, 0, small_msg(1, 35));  // ceil(35/10) = 4 quanta
  EXPECT_EQ(net.step().size(), 0u);
  EXPECT_EQ(net.step().size(), 0u);
  EXPECT_EQ(net.step().size(), 0u);
  EXPECT_EQ(net.step().size(), 1u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.metrics().congest_messages, 4u);
  EXPECT_EQ(net.metrics().total_bits, 35u);
}

TEST(Network, FifoOrderPerLane) {
  const Graph g = make_path(2);
  Network net(g, {8});
  for (std::uint64_t i = 0; i < 5; ++i) {
    Message m = small_msg(1, 8);
    m.a = i;
    net.send(0, 0, m);
  }
  std::vector<std::uint64_t> got;
  net.run_until_idle([&](const Delivery& d) { got.push_back(d.msg.a); });
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Network, OnePerRoundPerLaneCongestion) {
  const Graph g = make_path(2);
  Network net(g, {8});
  for (int i = 0; i < 5; ++i) net.send(0, 0, small_msg(1, 8));
  std::uint64_t deliveries = 0, rounds = 0;
  while (!net.idle()) {
    deliveries += net.step().size();
    ++rounds;
  }
  EXPECT_EQ(deliveries, 5u);
  EXPECT_EQ(rounds, 5u);  // exactly one B-bit quantum per round
  EXPECT_EQ(net.metrics().max_edge_backlog, 5u);
}

TEST(Network, OppositeDirectionsDontContend) {
  const Graph g = make_path(2);
  Network net(g, {8});
  net.send(0, 0, small_msg());
  net.send(1, 0, small_msg());
  EXPECT_EQ(net.step().size(), 2u);  // both delivered in the same round
}

TEST(Network, DistinctLanesServeInParallel) {
  const Graph g = make_clique(4);
  Network net(g, {8});
  for (Port p = 0; p < 3; ++p) net.send(0, p, small_msg());
  EXPECT_EQ(net.step().size(), 3u);
}

TEST(Network, RunUntilIdleRespectsMaxRounds) {
  const Graph g = make_path(2);
  Network net(g, {8});
  for (int i = 0; i < 10; ++i) net.send(0, 0, small_msg(1, 8));
  const std::uint64_t used =
      net.run_until_idle([](const Delivery&) {}, 3);
  EXPECT_EQ(used, 3u);
  EXPECT_FALSE(net.idle());
}

TEST(Network, RunUntilIdleCanStopInsideAMultiQuantumMessage) {
  const Graph g = make_path(2);
  Network net(g, {8});
  net.send(0, 0, small_msg(7, 32));  // four quanta at B = 8
  net.send(0, 0, small_msg(9, 8));   // then one more, another tag
  std::uint64_t delivered = 0;
  const auto count = [&delivered](const Delivery&) { ++delivered; };
  EXPECT_EQ(net.run_until_idle(count, 2), 2u);
  EXPECT_FALSE(net.idle());
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.metrics().congest_messages_by_tag[7], 2u);
  EXPECT_EQ(net.metrics().congest_messages_by_tag[9], 0u);
  EXPECT_EQ(net.run_until_idle(count), 3u);
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(net.metrics().congest_messages_by_tag[7], 4u);
  EXPECT_EQ(net.metrics().congest_messages_by_tag[9], 1u);
}

TEST(Network, MaximalBandwidthElectionBillsOneQuantumPerMessage) {
  // At B = 2^32 - 1 every message fits one quantum; a quanta count that
  // wrapped in 32 bits would never drain its lane.
  const Graph g = make_hypercube(6);
  ElectionParams params;
  params.seed = 3;
  params.bandwidth_bits = 0xffffffffu;
  const ElectionResult r = run_leader_election(g, params);
  EXPECT_TRUE(r.success());
  EXPECT_GT(r.totals.logical_messages, 0u);
  EXPECT_EQ(r.totals.congest_messages, r.totals.logical_messages);
}

TEST(Network, TagMetricsBreakdown) {
  const Graph g = make_path(2);
  Network net(g, {8});
  net.send(0, 0, small_msg(5, 8));
  net.send(0, 0, small_msg(6, 16));
  net.run_until_idle([](const Delivery&) {});
  EXPECT_EQ(net.metrics().congest_messages_by_tag[5], 1u);
  EXPECT_EQ(net.metrics().congest_messages_by_tag[6], 2u);
}

TEST(Network, MetricsSinceDiffs) {
  const Graph g = make_path(2);
  Network net(g, {8});
  net.send(0, 0, small_msg());
  net.run_until_idle([](const Delivery&) {});
  const Metrics snap = net.metrics();
  net.send(0, 0, small_msg());
  net.send(0, 0, small_msg());
  net.run_until_idle([](const Delivery&) {});
  const Metrics delta = net.metrics().since(snap);
  EXPECT_EQ(delta.congest_messages, 2u);
  EXPECT_EQ(delta.logical_messages, 2u);
}

TEST(Network, StandardConfigScalesWithLogN) {
  EXPECT_GT(CongestConfig::standard(1u << 16).bandwidth_bits,
            CongestConfig::standard(1u << 4).bandwidth_bits);
  EXPECT_GT(CongestConfig::wide(1024).bandwidth_bits,
            CongestConfig::standard(1024).bandwidth_bits);
}

TEST(Network, RejectsZeroBandwidth) {
  const Graph g = make_path(2);
  EXPECT_THROW(Network(g, {0}), std::invalid_argument);
}

TEST(Network, RelayChainTakesOneRoundPerHop) {
  const Graph g = make_path(4);
  Network net(g, {32});
  net.send(0, 0, small_msg());
  std::uint64_t rounds = 0;
  bool done = false;
  while (!done && rounds < 10) {
    const auto& d = net.step();
    ++rounds;
    for (const Delivery& del : d) {
      if (del.dst == 3) {
        done = true;
      } else {
        // forward to the "other" port (port-numbering-only routing)
        const Port out = (g.degree(del.dst) == 1) ? 0 : 1 - del.port;
        net.send(del.dst, out, small_msg());
      }
    }
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(rounds, 3u);
}

TEST(Network, PayloadIdsRoundTripThroughTheArena) {
  const Graph g = make_path(2);
  Network net(g, {256});
  std::vector<std::uint64_t> ids{7, 11, 13};
  Message m = small_msg(2, 64);
  m.ids = ids;            // view of the caller's buffer
  net.send(0, 0, m);
  ids.assign({99, 99, 99});  // send() copied — mutating the source is safe
  const auto& d = net.step();
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].msg.ids.to_vector(),
            (std::vector<std::uint64_t>{7, 11, 13}));
}

TEST(Network, NoAllocationPerDeliverySteadyState) {
  // The data-plane invariant: once a workload's footprint is warm, the
  // message pool, the id pool, and the delivery buffer stop growing — every
  // further delivery is served from recycled slots. The pool counters say
  // which store would have grown; the operator new count covers send(),
  // step() and WordPool::alloc whatever they would allocate.
  const Graph g = make_clique(6);
  Network net(g, {16});
  std::vector<std::uint64_t> payload{1, 2, 3, 4};
  const auto burst = [&] {
    for (NodeId u = 0; u < g.node_count(); ++u)
      for (Port p = 0; p < g.degree(u); ++p) {
        Message m = small_msg(1, 48);
        m.a = u;
        m.ids = payload;
        net.send(u, p, m);
      }
    net.run_until_idle([](const Delivery&) {});
  };
  const std::uint64_t cold = wcle_test::allocations();
  burst();  // warmup: pools grow to the workload footprint
  ASSERT_GT(wcle_test::allocations(), cold)
      << "the counting operator new is not linked in";
  const Network::PoolStats warm = net.pool_stats();
  EXPECT_GT(warm.id_alloc_calls, 0u);
  EXPECT_GT(warm.msg_slots, 0u);
  std::uint64_t deliveries = 0;
  const std::uint64_t heap_before = wcle_test::allocations();
  for (int round_batch = 0; round_batch < 10; ++round_batch) {
    for (NodeId u = 0; u < g.node_count(); ++u)
      for (Port p = 0; p < g.degree(u); ++p) {
        Message m = small_msg(1, 48);
        m.ids = payload;
        net.send(u, p, m);
      }
    while (!net.idle()) deliveries += net.step().size();
  }
  const std::uint64_t heap_calls = wcle_test::allocations() - heap_before;
  const Network::PoolStats after = net.pool_stats();
  EXPECT_EQ(deliveries, 10u * 2u * g.edge_count());
  // Payload slots were handed out for every send...
  EXPECT_GT(after.id_alloc_calls, warm.id_alloc_calls);
  // ...yet no new heap block, message slot, or delivery capacity appeared.
  EXPECT_EQ(after.id_heap_blocks, warm.id_heap_blocks);
  EXPECT_EQ(after.msg_slots, warm.msg_slots);
  EXPECT_EQ(after.delivery_capacity, warm.delivery_capacity);
  EXPECT_EQ(heap_calls, 0u);
}

TEST(Network, OversizedPayloadsDontCollideWithBumpAllocations) {
  // An id list larger than the pool's 2^14-word chunk takes the dedicated
  // oversized path; it must stay out of bump space (a later small payload
  // must not overwrite it) and its footprint must be handed back once the
  // network drains.
  const Graph g = make_path(2);
  Network net(g, {1u << 20});
  std::vector<std::uint64_t> big(20000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 0xAAAA0000u + i;
  Message m1 = small_msg(1, 64);
  m1.ids = big;
  net.send(0, 0, m1);
  const std::vector<std::uint64_t> little{0xBBBB, 0xBBBB, 0xBBBB};
  Message m2 = small_msg(2, 64);
  m2.ids = little;
  net.send(0, 0, m2);
  std::vector<std::vector<std::uint64_t>> got;
  net.run_until_idle(
      [&](const Delivery& d) { got.push_back(d.msg.ids.to_vector()); });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], big);
  EXPECT_EQ(got[1], little);
  net.step();  // retire the last deliveries: the oversized block is returned
  const std::uint64_t drained_blocks = net.pool_stats().id_heap_blocks;
  EXPECT_EQ(drained_blocks, 1u) << "only the one bump chunk may remain";
  Message m3 = small_msg(3, 64);
  m3.ids = little;
  net.send(0, 0, m3);
  net.run_until_idle([](const Delivery&) {});
  EXPECT_EQ(net.pool_stats().id_heap_blocks, drained_blocks);
}

TEST(Network, ArenaDrainsWithTheNetwork) {
  const Graph g = make_path(2);
  Network net(g, {64});
  std::vector<std::uint64_t> ids{5, 6};
  Message m = small_msg(1, 32);
  m.ids = ids;
  net.send(0, 0, m);
  net.run_until_idle([](const Delivery&) {});
  // The last delivery's payload is retired at the *next* step; after another
  // step the id pool must be fully drained (live = 0) — the reset point that
  // keeps long runs at one warm footprint.
  net.step();
  EXPECT_EQ(net.pool_stats().id_live, 0u);
  EXPECT_EQ(net.pool_stats().msg_live, 0u);
}

TEST(WordPool, RecyclesLifoAndReleasesDedicatedBlocksOnRewind) {
  WordPool pool;
  const std::uint32_t a = pool.alloc(3);  // both in the 4-word class
  const std::uint32_t b = pool.alloc(4);
  pool.free(a, 3);
  pool.free(b, 4);
  EXPECT_EQ(pool.alloc(4), b);  // free lists are LIFO
  EXPECT_EQ(pool.alloc(3), a);
  const std::uint32_t big = pool.alloc(WordPool::kChunkWords + 1);
  pool.data(big)[WordPool::kChunkWords] = 7;  // the whole slot is writable
  EXPECT_EQ(pool.chunk_count(), 2u);  // the bump chunk + a dedicated block
  pool.rewind();
  EXPECT_EQ(pool.chunk_count(), 1u);
  EXPECT_EQ(pool.alloc(1), a);  // bump space restarts at the chunk's start
}

#if defined(__SANITIZE_ADDRESS__)
// Under AddressSanitizer the pool poisons what it takes back, so a read
// through a dead view aborts instead of returning recycled words.
TEST(WordPoolDeathTest, RewindPoisonsOutstandingSlots) {
  // The walk engine rewinds with handles outstanding (dead by construction).
  WordPool pool;
  const std::uint64_t* words = pool.data(pool.alloc(2));
  pool.rewind();
  EXPECT_DEATH({ [[maybe_unused]] volatile std::uint64_t x = words[0]; },
               "use-after-poison");
}

// A delivery's ids die at the next step(), whether other payloads stay
// queued (the slot is freed) or the network drains (its pool rewinds).
TEST(NetworkDeathTest, DeliveryIdsDieAtTheNextStep) {
  const Graph g = make_path(2);
  Network net(g, {64});
  const std::vector<std::uint64_t> ids{5, 6};
  Message quick = small_msg(1, 32);
  quick.ids = ids;
  Message slow = small_msg(2, 3 * 64);  // three rounds on the other lane
  slow.ids = ids;
  net.send(0, 0, quick);
  net.send(1, 0, slow);
  const IdSpan freed = net.step().at(0).msg.ids;
  EXPECT_EQ(freed[1], 6u);
  net.step();  // retires `freed`; `slow` keeps the pool live
  EXPECT_EQ(net.pool_stats().id_live, 1u);
  EXPECT_DEATH({ [[maybe_unused]] volatile std::uint64_t x = freed[1]; },
               "use-after-poison");

  const IdSpan rewound = net.step().at(0).msg.ids;
  EXPECT_EQ(rewound[0], 5u);
  net.step();  // retires `rewound`; the drained pool rewinds
  EXPECT_EQ(net.pool_stats().id_live, 0u);
  EXPECT_DEATH({ [[maybe_unused]] volatile std::uint64_t x = rewound[0]; },
               "use-after-poison");
}
#endif

}  // namespace
}  // namespace wcle
