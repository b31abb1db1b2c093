#include "wcle/sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "wcle/trace/recorder.hpp"

namespace wcle {

namespace {

/// B-bit quanta a `bits`-bit message takes: ceil(bits / B), in 64 bits so
/// that a bandwidth near 2^32 cannot wrap the sum.
std::uint32_t quanta_of(std::uint32_t bits, std::uint32_t bandwidth) noexcept {
  return static_cast<std::uint32_t>(
      (std::uint64_t{bits} + bandwidth - 1) / bandwidth);
}

}  // namespace

Network::Network(const Graph& g, CongestConfig cfg)
    : g_(&g), cfg_(cfg), drop_rng_(cfg.drop_seed) {
  if (cfg_.bandwidth_bits == 0)
    throw std::invalid_argument("Network: bandwidth_bits must be >= 1");
  if (cfg_.drop_probability < 0.0 || cfg_.drop_probability > 1.0)
    throw std::invalid_argument("Network: drop_probability must be in [0, 1]");
  if (cfg_.faults.any())
    faults_ = std::make_unique<FaultInjector>(g, cfg_.faults, cfg_.trace);
  if (cfg_.trace) {
    cfg_.trace->set_sample_every(cfg_.trace_every);
    cfg_.trace->set_trace_walks(cfg_.trace_walks);
    cfg_.trace->begin_segment();
  }
  first_lane_ = lane_bases(g);
  // The active list names lanes in 32 bits.
  if (first_lane_.back() >= (std::uint64_t{1} << 32))
    throw std::invalid_argument(
        "Network: graphs with 2^32 or more directed edges are not supported");
  lanes_.resize(first_lane_.back());
  lane_src_.resize(lanes_.size());
  for (NodeId v = 0; v < g.node_count(); ++v)
    for (std::uint64_t lane = first_lane_[v]; lane < first_lane_[v + 1];
         ++lane)
      lane_src_[lane] = v;
}

Network::PoolStats Network::pool_stats() const noexcept {
  PoolStats s;
  s.id_heap_blocks = ids_.chunk_count();
  s.id_alloc_calls = id_alloc_calls_;
  s.id_live = id_live_;
  s.msg_slots = msgs_.size();
  s.msg_live = msgs_.size() - free_msgs_.size();
  s.delivery_capacity = delivered_.capacity();
  return s;
}

void Network::note_contender(NodeId node) {
  if (faults_) faults_->note_contender(node);
  if (cfg_.trace)
    cfg_.trace->event(metrics_.rounds + 1, TraceEventKind::kContender, node);
}

void Network::note_phase(const char* label, std::uint64_t value) {
  if (cfg_.trace)
    cfg_.trace->event(metrics_.rounds + 1, TraceEventKind::kPhase, value, 0,
                      label);
}

// send()/step() are the zero-allocation data plane: in steady state a
// queued message reuses a pooled slot, its payload reuses id-pool space, and a
// delivery is a view — no heap traffic per message or per delivery. The
// region makes that property checkable at the source level; every
// suppressed line below is a warm-up-only growth point whose flatness
// pool_stats() proves dynamically.
// wcle-lint: begin-no-alloc
std::uint32_t Network::alloc_msg() {
  if (!free_msgs_.empty()) {
    const std::uint32_t slot = free_msgs_.back();
    free_msgs_.pop_back();
    return slot;
  }
  msgs_.emplace_back();
  return static_cast<std::uint32_t>(msgs_.size() - 1);
}

void Network::free_msg(std::uint32_t slot) {
  // wcle-lint: no-alloc-ok(free-list bounded by pool size)
  free_msgs_.push_back(slot);
}

void Network::send(NodeId from, Port port, const Message& msg) {
  assert(from < g_->node_count());
  assert(port < g_->degree(from));
  assert(msg.bits >= 1);
  // Crash-stop: a dead node's sends never happen — no queueing, no
  // bandwidth, just the fault counter.
  if (faults_ && !faults_->node_up(from)) {
    metrics_.crash_dropped_messages += 1;
    if (cfg_.trace) cfg_.trace->on_muted_send(metrics_.rounds + 1);
    return;
  }
  if (cfg_.trace) cfg_.trace->on_send(metrics_.rounds + 1);
  metrics_.logical_messages += 1;
  metrics_.total_bits += msg.bits;
  const std::uint64_t lane = lane_index(from, port);

  const std::uint32_t slot = alloc_msg();
  QueuedMessage& q = msgs_[slot];
  q.a = msg.a;
  q.b = msg.b;
  q.c = msg.c;
  q.d = msg.d;
  q.bits = msg.bits;
  q.tag = msg.tag;
  q.next = kNil;
  q.ids_len = msg.ids.size();
  q.ids = WordPool::kNull;
  if (q.ids_len > 0) {
    ++id_alloc_calls_;
    ++id_live_;
    q.ids = ids_.alloc(q.ids_len);
    std::memcpy(ids_.data(q.ids), msg.ids.data(),
                q.ids_len * sizeof(std::uint64_t));
  }

  Lane& l = lanes_[lane];
  if (l.tail == kNil) {
    l.head = slot;
    // wcle-lint: no-alloc-ok(bounded by directed edges; warms once)
    active_.push_back({static_cast<std::uint32_t>(lane),
                       quanta_of(msg.bits, cfg_.bandwidth_bits), msg.tag});
  } else {
    msgs_[l.tail].next = slot;
  }
  l.tail = slot;
  l.count += 1;
  metrics_.max_edge_backlog =
      std::max<std::uint64_t>(metrics_.max_edge_backlog, l.count);
}

const std::vector<Delivery>& Network::step() {
  delivered_.clear();
  // Views handed out by the previous step are dead now; recycle their
  // payload slots, and rewind the pool whenever it drained — the "reset
  // per round-batch" that keeps one warm footprint for the whole run.
  for (const auto& [h, len] : retired_ids_) ids_.free(h, len);
  id_live_ -= retired_ids_.size();
  retired_ids_.clear();
  if (id_live_ == 0) ids_.rewind();
  // Pool gauges (obs): occupancy peaks right here — every send of the
  // inter-step window is queued, nothing has been served yet — so this is
  // where the high-water marks are sampled. Scalar maxes only; the gauges
  // never feed back into service order.
  const PoolStats pool = pool_stats();
  metrics_.pool_msg_live_high =
      std::max<std::uint64_t>(metrics_.pool_msg_live_high, pool.msg_live);
  metrics_.pool_id_live_high =
      std::max<std::uint64_t>(metrics_.pool_id_live_high, pool.id_live);
  metrics_.pool_msg_slots =
      std::max<std::uint64_t>(metrics_.pool_msg_slots, pool.msg_slots);
  metrics_.pool_id_blocks =
      std::max<std::uint64_t>(metrics_.pool_id_blocks, pool.id_heap_blocks);
  metrics_.rounds += 1;
  // Fault events fire at the start of their round, before any service:
  // crash_round = 1 means the victims never deliver a single message.
  // wcle-lint: no-alloc-transitive-ok(fault rounds sit outside the contract)
  if (faults_) faults_->advance(metrics_.rounds);
  // Tracing snapshots the counters it attributes per-round so the service
  // loop below stays hook-free: the row is the delta across this step.
  std::uint64_t before_quanta = 0, before_rand = 0, before_crash = 0,
                before_link = 0;
  if (cfg_.trace) {
    before_quanta = metrics_.congest_messages;
    before_rand = metrics_.dropped_messages;
    before_crash = metrics_.crash_dropped_messages;
    before_link = metrics_.link_dropped_messages;
  }

  // Serve one quantum per backlogged directed edge, in activation order.
  // New sends happen strictly between rounds, so iterating the active list
  // while compacting drained lanes out of it is safe.
  std::size_t write = 0;
  const std::size_t count = active_.size();
  for (std::size_t i = 0; i < count; ++i) {
    ActiveLane a = active_[i];
    metrics_.congest_messages += 1;
    metrics_.congest_messages_by_tag[a.tag] += 1;
    if (--a.quanta_left > 0) {  // partial quantum: the head stays queued
      active_[write++] = a;
      continue;
    }
    // The head's last quantum. Drained lanes leave the list in the pass
    // that drains them, and only send() adds lanes, so every listed lane
    // has a queued message.
    Lane& l = lanes_[a.lane];
    assert(l.head != kNil);
    const QueuedMessage& head = msgs_[l.head];
    // Fully transmitted. A message eaten by a fault has still paid its
    // congestion bill; it just never reaches the other endpoint. Link and
    // crash faults are checked first and consume no drop draw.
    const NodeId from = lane_src_[a.lane];
    const Port port = static_cast<Port>(a.lane - first_lane_[from]);
    const NodeId dst = g_->neighbor(from, port);
    bool eaten = true;
    if (faults_ && !faults_->link_up(from, port)) {
      metrics_.link_dropped_messages += 1;
    } else if (faults_ &&
               (!faults_->node_up(from) || !faults_->node_up(dst))) {
      // Sender died before the transmission completed, or the receiver
      // is down — crash-stop eats the message either way.
      metrics_.crash_dropped_messages += 1;
    } else if (cfg_.drop_probability > 0.0 &&
               drop_rng_.next_bool(cfg_.drop_probability)) {
      metrics_.dropped_messages += 1;
    } else {
      eaten = false;
      Delivery d;
      d.dst = dst;
      d.port = g_->mirror_port(from, port);
      d.msg.tag = head.tag;
      d.msg.a = head.a;
      d.msg.b = head.b;
      d.msg.c = head.c;
      d.msg.d = head.d;
      d.msg.bits = head.bits;
      if (head.ids_len > 0)
        d.msg.ids = IdSpan(ids_.data(head.ids), head.ids_len);
      // wcle-lint: no-alloc-ok(capacity pinned flat by the pool_stats test)
      delivered_.push_back(d);
      // The view must outlive this step; release the payload next step.
      if (head.ids_len > 0)
        // wcle-lint: no-alloc-ok(bounded by deliveries per round; warms once)
        retired_ids_.push_back({head.ids, head.ids_len});
    }
    if (eaten && head.ids_len > 0) {
      ids_.free(head.ids, head.ids_len);
      --id_live_;
    }
    const std::uint32_t served = l.head;
    l.head = head.next;
    l.count -= 1;
    free_msg(served);
    if (l.head == kNil) {  // drained: the lane leaves the list
      l.tail = kNil;
      continue;
    }
    const QueuedMessage& next = msgs_[l.head];
    a.quanta_left = quanta_of(next.bits, cfg_.bandwidth_bits);
    a.tag = next.tag;
    active_[write++] = a;
  }
  // wcle-lint: no-alloc-ok(shrinks to compacted prefix; never grows)
  active_.resize(write);
  if (cfg_.trace)
    cfg_.trace->on_round(
        metrics_.rounds,
        static_cast<std::uint32_t>(metrics_.congest_messages - before_quanta),
        static_cast<std::uint32_t>(delivered_.size()),
        static_cast<std::uint32_t>(metrics_.dropped_messages - before_rand),
        static_cast<std::uint32_t>(metrics_.crash_dropped_messages -
                                   before_crash),
        static_cast<std::uint32_t>(metrics_.link_dropped_messages -
                                   before_link),
        static_cast<std::uint32_t>(active_.size()));
  return delivered_;
}
// wcle-lint: end-no-alloc

}  // namespace wcle
