// Parallel lazy random walks over the CONGEST transport, with the paper's two
// message-saving devices built in:
//
//  * Token coalescing — a node never forwards per-walk tokens; all walks of
//    one origin at the same node with the same remaining length travel as a
//    single (origin, remaining, count) token (Lemma 12: "sends only one token
//    along with a count of tokens").
//  * Trail routing — every node records, per (origin, remaining-level), which
//    ports tokens arrived on and which ports they left on. These breadcrumbs
//    let the three "synchronized rounds of information exchange" of
//    Algorithm 2 retrace the walks: convergecast (proxies -> origin, exact
//    unit-accounted aggregation; Rounds 1 and 3), flood-down (origin ->
//    proxies; Round 2 and winner notifications), and unicast-up (proxy ->
//    origin along a single trail; winner forwarding to contenders).
//
// Proxy registrations — which nodes terminate how many of an origin's walks —
// persist across walk stages until that origin walks again, which is exactly
// the lifetime the algorithm needs (inactive contenders keep their proxies;
// active contenders re-walk with doubled length and re-register).
//
// State layout: origins are interned into a dense index, and each origin owns
// its trails as one flat array of packed 56-byte level rows, one per
// (node, remaining-level) its walks touched. The walk stage finds rows
// through a per-origin open-addressed index of row numbers keyed by
// (node, level): a hash, one bucket load and one row load, once per
// delivered token (its pending bucket carries the row to the disposal) and
// once per self-step. It keeps that index because CONGEST queueing delays
// some tokens, so a row can be reached again after it was created (8% of
// the first 2^20 disposals at n = 65,536). Everything after the stage
// follows links stored on the trail instead of hashing:
//
//  * a walk token carries its sender's row and departure entry (in the
//    otherwise unused `d` scalar), so the delivery that resolves the
//    receiver's row links both ends of the edge: InEntry::peer is the
//    sender's row, OutEntry::peer the receiver's;
//  * a self-step links the two levels at its node (Level::up and down);
//  * OriginState::proxy_rows lists the terminal (r == 0) rows, and row 0
//    is the injection point (origin, length), disposed of first.
//
// Reply-up, flood-down and unicast-up messages name the receiver's row and
// its level in their `b` scalar; the transport copies it and bills only
// `bits`. The index is probed only by begin_unicast_up, which starts from a
// (proxy, origin) pair, and by a flood over an edge whose token was lost
// (drop, crash and link faults): its departure entry has no peer, and the
// receiver looks the level up, as a level another edge created still takes
// it.
//
// A row is a plain struct because every visit reads several of its fields
// (units, self-step links and port lists, convergecast state) together: one
// cache line instead of one line per column. Port lists are threaded
// through per-origin arrival/departure arenas. Every counter in a row is
// 32-bit: each is bounded by its origin's walk count, which run_walk_stage
// checks. A level's self-step departures are not stored: they are the
// self-step arrivals one level down.
// Convergecast id sets live in an engine-owned WordPool
// (support/word_pool.hpp, the transport's payload store too), allocated at
// the exact size class of each set-union. run_walk_stage sorts each round's
// tokens once and disposes of them in that order, so the coalesced RNG draws
// follow a fixed sequence. After the first phase the engine performs no
// steady-state allocation.
//
// Events: handle() and the begin_* operations append what they complete to a
// caller-owned WalkEvents buffer, in FIFO order — plain events plus one word
// array for their ids, both reused across clear(). An ids(ev) view lives until
// the next push or clear(), so a caller that reacts to an event by issuing
// another operation copies the ids out first (begin_flood_down and
// begin_unicast_up reject a view into the buffer they append to). A caller
// draining by index sees cascaded events join the tail, a plain FIFO.
//
// Footprint at the end of one n = 65,536 expander election (graph seed 1,
// run seed 2: 57 origins, 816,892 level rows), allocated bytes, with the
// original layout (chunked node->slot maps, per-slot level arrays, SoA
// columns), the flat rows without links, and now:
//
//   store                        original  unlinked     now
//   level rows (88 -> 48 -> 56 B)  82.2 MB   44.8 MB   52.3 MB
//   (node, level) -> row lookup    35.9 MB    7.5 MB    7.5 MB
//   port arenas (+4 B peer each)   22.4 MB   18.7 MB   26.1 MB
//   proxies, registrations          4.3 MB    4.3 MB    4.8 MB
//   trail state, total            144.8 MB   75.3 MB   90.7 MB
//   convergecast id-set pool      108.0 MB   11.7 MB   11.7 MB
//
// The 15 MB of links replace 7.4M hash probes per election at that size.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "wcle/graph/graph.hpp"
#include "wcle/sim/network.hpp"
#include "wcle/support/rng.hpp"
#include "wcle/support/word_pool.hpp"

namespace wcle {

/// Message tags owned by the walk engine. Protocols must not reuse these.
inline constexpr std::uint8_t kTagWalkToken = 0x10;
inline constexpr std::uint8_t kTagReplyUp = 0x11;
inline constexpr std::uint8_t kTagFloodDown = 0x12;
inline constexpr std::uint8_t kTagUnicastUp = 0x13;

/// A request to run `count` parallel lazy walks of `length` steps from
/// `origin`. Any previous trails/registrations of `origin` are discarded.
/// `count` must fit 32 bits, and an origin appears at most once per stage.
struct WalkOrder {
  NodeId origin = 0;
  std::uint64_t count = 0;
  std::uint32_t length = 0;
};

/// Aggregate a proxy reports in a convergecast (Rounds 1 and 3 of
/// Algorithm 2). Sums are partitioned exactly over the trail DAG (each proxy
/// contributes once); id sets are unions. ProxyPayloadFn fills one
/// engine-owned instance per proxy, so `ids` keeps its capacity across calls;
/// in flight the engine keeps the id set in its WordPool instead.
struct ReplyPayload {
  std::uint64_t distinct_proxies = 0; ///< sum of the per-proxy booleans d
  std::uint64_t proxy_nodes = 0;      ///< distinct proxy nodes covered
  std::vector<std::uint64_t> ids;     ///< union of id sets (sorted, unique)

  void add_id(std::uint64_t id);
};

/// High-level events surfaced by the engine while the protocol pumps the
/// network loop. The protocol reacts (possibly issuing new engine operations,
/// e.g. cascading winner notifications) and keeps pumping until idle. Plain
/// data: the event's ids live in the WalkEvents buffer that holds it.
struct WalkEvent {
  enum class Kind {
    kConvergecastDone,  ///< `origin`'s aggregation finished
    kFloodAtProxy,      ///< flood from `origin` reached proxy `node`
    kUnicastAtOrigin,   ///< unicast-up along `origin`'s trail reached it
  };
  Kind kind = Kind::kConvergecastDone;
  NodeId node = 0;    ///< proxy node (kFloodAtProxy) or origin node (others)
  NodeId origin = 0;  ///< origin owning the trail the message travelled on
  std::uint32_t ids_at = 0;   ///< first id in the buffer's word array
  std::uint32_t ids_len = 0;  ///< payload ids (reply union, flood, unicast)
  /// kConvergecastDone only: the reply's counters (see ReplyPayload).
  std::uint64_t distinct_proxies = 0;
  std::uint64_t proxy_nodes = 0;
};

/// Caller-owned FIFO of walk events: plain events plus one word array holding
/// all their ids; clear() keeps both capacities. An ids(ev) view lives until
/// the next push or clear() (see the file comment for the full contract).
class WalkEvents {
 public:
  void push(WalkEvent::Kind kind, NodeId node, NodeId origin, IdSpan ids,
            std::uint64_t distinct_proxies = 0,
            std::uint64_t proxy_nodes = 0);
  void clear() noexcept {
    events_.clear();
    words_.clear();
  }

  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }
  const WalkEvent& operator[](std::size_t i) const { return events_[i]; }
  const WalkEvent* begin() const noexcept { return events_.data(); }
  const WalkEvent* end() const noexcept {
    return events_.data() + events_.size();
  }

  IdSpan ids(const WalkEvent& ev) const noexcept {
    return IdSpan(words_.data() + ev.ids_at, ev.ids_len);
  }
  /// True if `ids` views this buffer's word array (a push may move it).
  bool holds(IdSpan ids) const noexcept;

 private:
  std::vector<WalkEvent> events_;
  std::vector<std::uint64_t> words_;
};

/// Builds a proxy's Round-1 payload: called once per (proxy node, origin)
/// holding `units` walk endpoints there, with `out` reset (zero counters,
/// empty ids). Typically fills ids with the random ids of the *other*
/// contenders registered at the proxy (the set I1).
using ProxyPayloadFn = std::function<void(
    NodeId proxy, NodeId origin, std::uint64_t units, ReplyPayload& out)>;

/// Ablation switches (each ablation is named in tests/test_ablations.cpp).
/// Defaults reproduce the paper.
struct WalkConfig {
  /// Lazy walks (stay w.p. 1/2) — the paper's chain. Non-lazy walks fail to
  /// mix on bipartite graphs (parity trap): the NonLazy* ablations.
  bool lazy = true;
  /// Token coalescing (one (origin, remaining, count) token per edge) —
  /// Lemma 12's device. When false, each walk unit is charged as its own
  /// O(log n)-bit token, modelling the naive per-walk transport: the
  /// Coalescing* ablations.
  bool coalesce = true;
};

class WalkEngine {
 public:
  WalkEngine(const Graph& g, Network& net, Rng& rng,
             WalkConfig config = {});

  /// One (origin, units) registration entry at a proxy node.
  using Registration = std::pair<NodeId, std::uint64_t>;

  /// The registrations of one node, sorted by origin id — map-like reads
  /// (find / at / iteration as (origin, units) pairs) over a flat array.
  class RegistrationView {
   public:
    using const_iterator = const Registration*;
    RegistrationView() = default;
    RegistrationView(const Registration* data, std::size_t size)
        : data_(data), size_(size) {}
    const_iterator begin() const noexcept { return data_; }
    const_iterator end() const noexcept { return data_ + size_; }
    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    /// end() when `origin` holds no registration here (binary search).
    const_iterator find(NodeId origin) const noexcept;
    /// Units registered by `origin`; throws std::out_of_range if absent.
    std::uint64_t at(NodeId origin) const;

   private:
    const Registration* data_ = nullptr;
    std::size_t size_ = 0;
  };

  /// Runs all orders' walks in parallel to completion (every token reaches
  /// remaining==0 and registers at its proxy). Returns rounds consumed.
  /// Clears previous trails and registrations of the ordered origins first.
  std::uint64_t run_walk_stage(const std::vector<WalkOrder>& orders);

  /// Origins registered at `node` with their unit counts (walk endpoints from
  /// each origin's latest stage), sorted by origin. Empty view if none.
  RegistrationView registrations(NodeId node) const;

  /// Proxy nodes of `origin` from its latest walk stage.
  const std::vector<NodeId>& proxy_nodes(NodeId origin) const;

  /// Begins a convergecast for every origin in `origins`: each of its proxies
  /// produces a payload via `at_proxy`, aggregates flow back along the trails
  /// with exact unit accounting (sums are partitioned over parents; id sets
  /// are unioned). Appends events completed without network traffic to
  /// `out`; the rest surface via handle(). Resets any previous convergecast
  /// state.
  void begin_convergecast(const std::vector<NodeId>& origins,
                          const ProxyPayloadFn& at_proxy, WalkEvents& out);

  /// Begins flooding `ids` from `origin` down its trails toward its proxies
  /// (Round 2 / winner dissemination). Each begin_flood_down is a fresh
  /// "generation": it traverses every trail level exactly once, independent
  /// of earlier floods of the same origin. Appends locally-completed events.
  /// Throws std::invalid_argument if `ids` views `out`'s own storage.
  void begin_flood_down(NodeId origin, IdSpan ids, WalkEvents& out);

  /// Routes `ids` from proxy `node` up a single path of `origin`'s trail to
  /// the origin (winner forwarding from a proxy to a contender). Throws
  /// std::invalid_argument if `ids` views `out`'s own storage.
  void begin_unicast_up(NodeId node, NodeId origin, IdSpan ids,
                        WalkEvents& out);

  /// True if `msg.tag` belongs to the walk engine.
  static bool owns_tag(std::uint8_t tag) {
    return tag >= kTagWalkToken && tag <= kTagUnicastUp;
  }

  /// Processes one delivery of an engine-owned message, appending any events
  /// it completes to `out`. Must be called for every such delivery.
  void handle(const Delivery& d, WalkEvents& out);

  /// Heap footprint of the engine, in the style of Graph::memory_bytes():
  /// capacities, not sizes.
  struct MemoryBytes {
    std::uint64_t trails = 0;   ///< rows, trail indexes, port arenas,
                                ///< proxy lists and registrations
    std::uint64_t id_pool = 0;  ///< convergecast id-set WordPool
  };
  MemoryBytes memory_bytes() const noexcept;

 private:
  static constexpr std::uint32_t kNoOrigin = 0xffffffffu;
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// In-flight convergecast aggregate: the counters plus the id set as a
  /// WordPool (handle, len). The engine's internal currency; a completed
  /// aggregate's ids are copied straight into the caller's event buffer.
  struct PooledReply {
    std::uint32_t distinct_proxies = 0;
    std::uint32_t proxy_nodes = 0;
    std::uint32_t ids = WordPool::kNull;
    std::uint32_t len = 0;
  };

  /// What one origin's walks did at (node, r), r = remaining steps. A level
  /// with r > 0 forwards every unit it receives, so `units` is both its
  /// inflow and its outflow; at r == 0 it counts the walk endpoints.
  struct Level {
    NodeId node = 0;               ///< key
    std::uint32_t r = 0;           ///< key
    std::uint32_t units = 0;       ///< units disposed here
    std::uint32_t stay_in = 0;     ///< units arriving by self-step (r + 1)
    std::uint32_t in_head = kNil;  ///< arrival list head (in_arena) | kNil
    std::uint32_t out_head = kNil; ///< departure list head (out_arena)
    /// Self-step links: the rows (node, r + 1) and (node, r - 1), set when
    /// walks self-step into or out of this level | kNil.
    std::uint32_t up = kNil;
    std::uint32_t down = kNil;
    std::uint32_t flood_seen = 0;  ///< last flood generation forwarded
    // Convergecast runtime, valid while the owning origin's cc_gen matches
    // the engine counter.
    std::uint32_t cc_got = 0;
    PooledReply cc;
  };

  /// One entry of a level's arrival list: `count` units came in over `port`
  /// from the sender's row `peer` (one level up at the port's neighbour).
  struct InEntry {
    std::uint32_t count;
    Port port;
    std::uint32_t next;  ///< arena index of the next entry | kNil
    std::uint32_t peer;
  };
  /// One entry of a level's departure list: the receiver's row `peer` (one
  /// level down at the port's neighbour), or kNil while no token sent over
  /// `port` has arrived (a lost token leaves it kNil).
  struct OutEntry {
    Port port;
    std::uint32_t next;
    std::uint32_t peer;
  };

  /// All engine state of one interned origin. Rows, index and arenas are
  /// cleared, not freed, when the origin walks again, so re-walking origins
  /// reuse warm capacity instead of churning the allocator.
  struct OriginState {
    NodeId node = 0;
    std::uint32_t length = 0;     ///< latest walk length (0 = no trails)
    std::uint32_t flood_gen = 0;  ///< per-origin flood generation counter
    std::uint32_t cc_gen = 0;     ///< convergecast generation of `levels`
    std::vector<Level> levels;
    /// (node, r) -> row of `levels` | kNil: linear probing over a power of
    /// two buckets, at most half full; keys are read from the rows.
    std::vector<std::uint32_t> index;
    std::vector<InEntry> in_arena;    ///< arrival-list entries, all levels
    std::vector<OutEntry> out_arena;  ///< departure-list entries
    std::vector<NodeId> proxies;
    std::vector<std::uint32_t> proxy_rows;  ///< row (proxies[i], 0)
  };

  /// A pending (node, origin, level, units) token bucket of the walk stage,
  /// disposed of in (node, origin, level desc) order each round.
  struct Pending {
    NodeId node = 0;
    NodeId origin = 0;
    std::uint32_t level = 0;
    std::uint32_t count = 0;
    /// Row of (node, level), resolved when the bucket was queued | kNil
    /// (an injection, whose row the disposal creates).
    std::uint32_t row = kNil;
  };

  OriginState& intern(NodeId origin);
  OriginState* find_origin(NodeId origin) noexcept;
  const OriginState* find_origin(NodeId origin) const noexcept;

  void clear_origin(NodeId origin);
  /// Row of (node, r), creating the level if absent.
  std::uint32_t level_at(OriginState& os, NodeId node, std::uint32_t r);
  /// Row of (node, r) | kNil.
  std::uint32_t find_level(const OriginState& os, NodeId node,
                           std::uint32_t r) const noexcept;
  /// Doubles `os.index` and reinserts every row.
  void grow_index(OriginState& os);

  /// Walk-stage helper: disposes `count` units at (node, origin, r), whose
  /// row is `row` | kNil.
  void dispose_units(OriginState& os, NodeId node, std::uint32_t r,
                     std::uint32_t row, std::uint32_t count,
                     std::vector<Pending>& next);

  /// Records `count` units arriving at level row `lv` over `port` from the
  /// sender's row `peer`.
  void note_arrival(OriginState& os, std::uint32_t lv, Port port,
                    std::uint32_t count, std::uint32_t peer);

  /// Convergecast plumbing: copies an id set into the pool, and releases it.
  PooledReply intern_reply(const std::uint64_t* ids, std::uint32_t len,
                           std::uint32_t distinct, std::uint32_t proxies);
  void free_reply(PooledReply& r);
  /// Folds `from` into `into` (sorted set-union of the id buffers, counter
  /// sums); both source buffers are recycled.
  void merge_reply(PooledReply& into, PooledReply& from);

  /// Convergecast helper: credits `units`/`payload` to row `row` and
  /// cascades completions (locally through self-step links, remotely via
  /// sends).
  void credit(OriginState& os, std::uint32_t row, std::uint32_t units,
              PooledReply payload, WalkEvents& out);

  /// Flood helper: processes payload at row `row`, cascading locally
  /// through self-step links and remotely via the departure list. `gen`
  /// identifies the flood generation for deduplication.
  void flood_at(OriginState& os, std::uint32_t row, std::uint32_t gen,
                IdSpan ids, WalkEvents& out);

  /// Unicast helper: advances toward the origin from row `row`.
  void unicast_at(OriginState& os, std::uint32_t row, IdSpan ids,
                  WalkEvents& out);

  std::uint32_t token_bits(std::uint32_t remaining) const;
  std::uint32_t payload_bits(std::size_t id_count) const;

  const Graph* g_;
  Network* net_;
  Rng* rng_;
  WalkConfig config_;
  std::uint32_t id_bits_;
  std::uint32_t base_bits_;

  std::vector<std::uint32_t> origin_index_;  ///< node -> interned index
  std::vector<OriginState> origins_;

  /// Per-node registrations (origin -> units), sorted by origin.
  std::vector<std::vector<Registration>> registrations_;

  std::uint32_t cc_gen_ = 0;  ///< bumped by begin_convergecast (state reset)
  WordPool cc_pool_;          ///< id-set buffers, rewound per generation

  /// credit()'s work stack: (row, units, payload) still to fold in.
  struct CreditWork {
    std::uint32_t row;
    std::uint32_t units;
    PooledReply payload;
  };
  std::vector<CreditWork> cc_stack_;
  /// begin_convergecast's scratch payload, handed to every ProxyPayloadFn.
  ReplyPayload proxy_payload_;

  const std::vector<NodeId> empty_nodes_;
};

}  // namespace wcle
