// Synchronous CONGEST transport. Each directed edge carries at most B bits
// per round; protocols `send()` messages through (node, port) pairs — never by
// neighbour identity, honoring the port-numbering model — and drive rounds by
// calling `step()`, which returns that round's deliveries. Congestion is
// modeled for real: each directed edge serves one B-bit quantum per round from
// a FIFO, so oversized or bursty traffic queues exactly as Lemma 12 assumes.
//
// Data plane (see README "Architecture"): queued messages live in one
// message pool; each lane (directed edge) is an index-linked FIFO through
// that pool; variable-length payloads are copied into a WordPool
// (support/word_pool.hpp), which rewinds whenever it drains. Deliveries are
// views into those pools — the steady-state hot path performs no heap
// allocation. The active list carries each backlogged lane's head quanta
// count and tag, so the quanta that do not complete a message (most of
// them: large payloads span many B-bit quanta) touch that list only.
//
// Determinism: lanes join the active list in activation order and drained
// lanes are compacted out in place, so step() serves lanes in a fixed order
// and disposes of each completed message (fault checks, drop draw, delivery)
// as it is served. Seed-fixed runs are therefore bit-reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "wcle/fault/injector.hpp"
#include "wcle/fault/plan.hpp"
#include "wcle/graph/graph.hpp"
#include "wcle/sim/message.hpp"
#include "wcle/sim/metrics.hpp"
#include "wcle/support/bits.hpp"
#include "wcle/support/rng.hpp"
#include "wcle/support/word_pool.hpp"

namespace wcle {

class TraceRecorder;

/// CONGEST bandwidth configuration plus the seeded fault axis: each message,
/// after its bandwidth has been fully served, is lost with probability
/// `drop_probability` (drawn from an Rng seeded by `drop_seed`, so runs are
/// reproducible). The congestion bill is still paid for dropped messages —
/// lossy links consume bandwidth, they just fail to deliver.
struct CongestConfig {
  /// Bits per edge per direction per round (the model's B = Theta(log n)).
  std::uint32_t bandwidth_bits = 0;
  /// Per-message loss probability in [0, 1]; 0 = the reliable model.
  double drop_probability = 0.0;
  /// Seed of the drop stream; together with the deterministic lane-service
  /// order this makes faulty executions bit-reproducible.
  std::uint64_t drop_seed = 0;
  /// Structured faults: crash-stop schedules, link failures, churn windows
  /// (see fault/plan.hpp). An inactive plan costs nothing — the reliable
  /// model stays bit-identical to the pre-fault implementation.
  FaultPlan faults;
  /// Opt-in per-round event recorder (trace/recorder.hpp). Null = tracing
  /// off; the transport then pays one branch per round and nothing else.
  /// Recording never perturbs the execution.
  TraceRecorder* trace = nullptr;
  /// Sampled tracing: the recorder keeps every K-th round row (events are
  /// always kept). 1 (or 0) = record every round, the pre-sampling format.
  std::uint32_t trace_every = 1;
  /// Per-walk token tracing (schema v2): the recorder keeps walk_hop records
  /// for origins with id % K == 0 (1 = every walk). 0 = off, the default —
  /// the walk engine then never calls the recorder's hop hook.
  std::uint32_t trace_walks = 0;

  /// Standard CONGEST budget for an n-node network: enough for one id from
  /// [1, n^4] plus O(log n) control bits — a single "O(log n)-bit message".
  static CongestConfig standard(std::uint64_t n) {
    CongestConfig c;
    c.bandwidth_bits = id_bits(n) + 2 * ceil_log2(n) + 8;
    return c;
  }

  /// The relaxed O(log^3 n) regime of Lemma 12's second bound.
  static CongestConfig wide(std::uint64_t n) {
    const std::uint32_t lg = ceil_log2(n) > 0 ? ceil_log2(n) : 1;
    CongestConfig c;
    c.bandwidth_bits = (id_bits(n) + 2 * lg + 8) * lg * lg;
    return c;
  }

  /// Resolves bandwidth_bits == 0 (the "regime default" sentinel protocols
  /// accept in their optional config parameter) to standard(n), keeping the
  /// fault fields.
  CongestConfig resolved(std::uint64_t n) const {
    CongestConfig c = *this;
    if (c.bandwidth_bits == 0) c.bandwidth_bits = standard(n).bandwidth_bits;
    return c;
  }
};

/// The transport. Owns the message pool, the per-directed-edge lane rings,
/// the payload pool, and all metrics.
class Network {
 public:
  Network(const Graph& g, CongestConfig cfg);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Enqueues `msg` for transmission from `from` through its local `port`:
  /// scalars and the viewed id words are copied into the transport's
  /// pools, so the caller's payload storage only needs to outlive this call.
  /// Requires msg.bits >= 1 and port < degree(from).
  void send(NodeId from, Port port, const Message& msg);

  /// Advances one synchronous round: every backlogged directed edge serves one
  /// B-bit quantum, in lane-activation order, and each message it completes
  /// is disposed of on the spot (fault checks, drop draw, delivery).
  /// Returns this round's deliveries as views (valid until the next call —
  /// Delivery::msg.ids points into the payload pool).
  const std::vector<Delivery>& step();

  /// True when no message is queued or in flight.
  bool idle() const noexcept { return active_.empty(); }

  /// Runs step() until idle, dispatching deliveries to `handler`
  /// (callable as handler(const Delivery&)). Deliveries are passed by
  /// reference — no Message or payload copy per delivery. Returns rounds
  /// consumed. Stops (returning the rounds so far) if `max_rounds` elapse
  /// first.
  template <typename Handler>
  std::uint64_t run_until_idle(Handler&& handler,
                               std::uint64_t max_rounds = ~0ull) {
    std::uint64_t used = 0;
    while (!idle() && used < max_rounds) {
      const std::vector<Delivery>& delivered = step();
      ++used;
      for (const Delivery& d : delivered) handler(d);
    }
    return used;
  }

  std::uint64_t round() const noexcept { return metrics_.rounds; }
  const Metrics& metrics() const noexcept { return metrics_; }
  const Graph& graph() const noexcept { return *g_; }
  const CongestConfig& config() const noexcept { return cfg_; }

  /// Allocation instrumentation of the data-plane pools. Once a workload's
  /// footprint is warmed up, heap_blocks / msg_slots / delivery_capacity stay
  /// flat while deliveries keep flowing — the no-allocation-per-delivery
  /// property the tests pin down.
  struct PoolStats {
    std::uint64_t id_heap_blocks = 0;    ///< heap blocks the id pool holds
    std::uint64_t id_alloc_calls = 0;    ///< payload slots handed out
    std::uint64_t id_live = 0;           ///< payload slots outstanding
    std::uint64_t msg_slots = 0;         ///< message-pool capacity (slots)
    std::uint64_t msg_live = 0;          ///< messages queued right now
    std::uint64_t delivery_capacity = 0; ///< delivered_ vector capacity
  };
  PoolStats pool_stats() const noexcept;

  /// True when `node` is currently alive (always true on fault-free runs).
  /// Protocols consult this to model crash-stop: a dead node takes no local
  /// steps (the transport already suppresses its traffic either way).
  bool node_up(NodeId node) const {
    return !faults_ || faults_->node_up(node);
  }

  /// Nodes currently alive (n on fault-free runs).
  std::uint64_t up_count() const {
    return faults_ ? faults_->up_count() : g_->node_count();
  }

  /// Reports a node that became a contender/candidate, for the
  /// "contenders" adversary strategy and the trace timeline. No-op on
  /// fault-free untraced runs.
  void note_contender(NodeId node);

  /// Records a protocol phase transition on the trace timeline (attributed
  /// to the upcoming round). No-op when tracing is off.
  void note_phase(const char* label, std::uint64_t value);

  /// The fault exposure of the run so far (empty on fault-free runs);
  /// protocols stash this in their results for the verdict layer.
  FaultOutcome fault_outcome() const {
    return faults_ ? faults_->outcome() : FaultOutcome{};
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// One queued message in the pool. Scalars are copied from the sender's
  /// Message; the payload lives in the id pool; `next` threads the lane's
  /// FIFO through the pool.
  struct QueuedMessage {
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
    std::uint32_t ids = WordPool::kNull;  ///< payload handle | kNull
    std::uint32_t ids_len = 0;
    std::uint32_t bits = 0;
    std::uint32_t next = kNil;
    std::uint8_t tag = 0;
  };

  /// Per-directed-edge FIFO: head/tail indices into the message pool. A
  /// lane is on the active list exactly while it holds a message.
  struct Lane {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t count = 0;  ///< queued messages (backlog metric)
  };

  /// One backlogged lane on the active list, with what serving its head
  /// needs until the last quantum: a partial quantum reads and writes this
  /// entry only, never the lane or the queued message.
  struct ActiveLane {
    std::uint32_t lane;
    std::uint32_t quanta_left;  ///< quanta of the head still to serve, >= 1
    std::uint8_t tag;           ///< the head's tag (per-tag quanta bill)
  };

  std::uint64_t lane_index(NodeId from, Port port) const noexcept {
    return first_lane_[from] + port;
  }

  std::uint32_t alloc_msg();
  void free_msg(std::uint32_t slot);

  const Graph* g_;
  CongestConfig cfg_;
  std::vector<std::uint64_t> first_lane_;  ///< per-node base into lanes_
  std::vector<NodeId> lane_src_;           ///< lane -> sending node
  std::vector<Lane> lanes_;                ///< one per directed edge
  /// Lanes with traffic, in activation order.
  std::vector<ActiveLane> active_;
  std::vector<QueuedMessage> msgs_;  ///< message pool
  std::vector<std::uint32_t> free_msgs_;
  WordPool ids_;  ///< payload storage, rewound whenever nothing is live
  std::uint64_t id_live_ = 0;         ///< payload slots outstanding
  std::uint64_t id_alloc_calls_ = 0;  ///< payload slots handed out
  /// Payloads of messages delivered last step, as (handle, length): their
  /// views must survive until the next step() call, so they are released at
  /// its start.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> retired_ids_;
  std::vector<Delivery> delivered_;
  Rng drop_rng_;  ///< consulted only when cfg_.drop_probability > 0
  std::unique_ptr<FaultInjector> faults_;  ///< null when cfg_.faults inactive
  Metrics metrics_;
};

}  // namespace wcle
