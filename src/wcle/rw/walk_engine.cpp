#include "wcle/rw/walk_engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "wcle/support/bits.hpp"
#include "wcle/trace/recorder.hpp"

namespace wcle {

namespace {

/// lower_bound position of `origin` in a sorted registration list.
std::vector<WalkEngine::Registration>::iterator reg_position(
    std::vector<WalkEngine::Registration>& regs, NodeId origin) {
  return std::lower_bound(
      regs.begin(), regs.end(), origin,
      [](const WalkEngine::Registration& r, NodeId o) { return r.first < o; });
}

/// Home bucket of (node, r) in a trail index of `buckets` (a power of two)
/// buckets: Fibonacci hashing of the packed key, top bits.
std::uint32_t home_bucket(NodeId node, std::uint32_t r,
                          std::size_t buckets) noexcept {
  const std::uint64_t key = (std::uint64_t{node} << 32) | r;
  const int shift = 64 - std::countr_zero(buckets);
  return static_cast<std::uint32_t>((key * 0x9e3779b97f4a7c15ull) >> shift);
}

/// A delivery message's receiver row, with the level it sits at: the level
/// lets a debug build check the row against the (node, level) key, and lets
/// a flood over a lost token's edge fall back to the index (row == kNil).
std::uint64_t row_ref(std::uint32_t level, std::uint32_t row) noexcept {
  return (std::uint64_t{level} << 32) | row;
}

/// Size of the union of two sorted, duplicate-free id buffers.
std::uint32_t union_size(const std::uint64_t* a, std::uint32_t na,
                         const std::uint64_t* b, std::uint32_t nb) noexcept {
  std::uint32_t i = 0, j = 0, common = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return na + nb - common;
}

}  // namespace

void ReplyPayload::add_id(std::uint64_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) ids.insert(it, id);
}

// -------------------------------------------------------- RegistrationView

WalkEngine::RegistrationView::const_iterator
WalkEngine::RegistrationView::find(NodeId origin) const noexcept {
  const Registration* lo = data_;
  const Registration* hi = data_ + size_;
  const Registration* it = std::lower_bound(
      lo, hi, origin,
      [](const Registration& r, NodeId o) { return r.first < o; });
  return (it != hi && it->first == origin) ? it : hi;
}

std::uint64_t WalkEngine::RegistrationView::at(NodeId origin) const {
  const const_iterator it = find(origin);
  if (it == end())
    throw std::out_of_range("RegistrationView::at: origin not registered");
  return it->second;
}

WalkEngine::WalkEngine(const Graph& g, Network& net, Rng& rng,
                       WalkConfig config)
    : g_(&g), net_(&net), rng_(&rng), config_(config) {
  id_bits_ = id_bits(g.node_count());
  base_bits_ = id_bits_ + 2 * ceil_log2(g.node_count()) + 8;
  origin_index_.assign(g.node_count(), kNoOrigin);
  registrations_.resize(g.node_count());
}

std::uint32_t WalkEngine::token_bits(std::uint32_t /*remaining*/) const {
  return base_bits_;
}

std::uint32_t WalkEngine::payload_bits(std::size_t id_count) const {
  return base_bits_ + static_cast<std::uint32_t>(id_count) * id_bits_;
}

// ------------------------------------------------------------ origin state

WalkEngine::OriginState& WalkEngine::intern(NodeId origin) {
  std::uint32_t idx = origin_index_[origin];
  if (idx == kNoOrigin) {
    idx = static_cast<std::uint32_t>(origins_.size());
    origin_index_[origin] = idx;
    // wcle-lint: no-alloc-ok(first-seen origin only; steady rounds reuse it)
    origins_.emplace_back();
    OriginState& os = origins_.back();
    os.node = origin;
    // wcle-lint: no-alloc-ok(first-seen origin only; the index stays warm)
    os.index.assign(16, kNil);
  }
  return origins_[idx];
}

WalkEngine::OriginState* WalkEngine::find_origin(NodeId origin) noexcept {
  const std::uint32_t idx = origin_index_[origin];
  return idx == kNoOrigin ? nullptr : &origins_[idx];
}

const WalkEngine::OriginState* WalkEngine::find_origin(
    NodeId origin) const noexcept {
  const std::uint32_t idx = origin_index_[origin];
  return idx == kNoOrigin ? nullptr : &origins_[idx];
}

// The walk stage is the inner loop of every election phase: token disposal,
// trail-index lookups, and the per-round pending queues all recycle warm
// storage (level rows, trail indexes, port arenas), so the steady state
// allocates nothing. Every suppression inside this region is a warm-up-only
// growth point; rows, index buckets and arena entries are cleared with their
// capacities intact when an origin walks again (see clear_origin).
// wcle-lint: begin-no-alloc
std::uint32_t WalkEngine::level_at(OriginState& os, NodeId node,
                                   std::uint32_t r) {
  const std::size_t mask = os.index.size() - 1;
  std::size_t b = home_bucket(node, r, os.index.size());
  for (;; b = (b + 1) & mask) {
    const std::uint32_t row = os.index[b];
    if (row == kNil) break;
    const Level& lv = os.levels[row];
    if (lv.node == node && lv.r == r) return row;
  }
  const auto row = static_cast<std::uint32_t>(os.levels.size());
  Level fresh;
  fresh.node = node;
  fresh.r = r;
  // wcle-lint: no-alloc-ok(row capacity retained across phases)
  os.levels.push_back(fresh);
  if (2 * os.levels.size() > os.index.size())
    grow_index(os);  // reinserts every row, this one included
  else
    os.index[b] = row;
  return row;
}

std::uint32_t WalkEngine::find_level(const OriginState& os, NodeId node,
                                     std::uint32_t r) const noexcept {
  const std::size_t mask = os.index.size() - 1;
  for (std::size_t b = home_bucket(node, r, os.index.size());;
       b = (b + 1) & mask) {
    const std::uint32_t row = os.index[b];
    if (row == kNil) return kNil;
    const Level& lv = os.levels[row];
    if (lv.node == node && lv.r == r) return row;
  }
}

void WalkEngine::grow_index(OriginState& os) {
  // wcle-lint: no-alloc-ok(cold growth: an origin's largest walk so far)
  os.index.assign(2 * os.index.size(), kNil);
  const std::size_t mask = os.index.size() - 1;
  for (std::uint32_t row = 0; row < os.levels.size(); ++row) {
    const Level& lv = os.levels[row];
    std::size_t b = home_bucket(lv.node, lv.r, os.index.size());
    while (os.index[b] != kNil) b = (b + 1) & mask;
    os.index[b] = row;
  }
}

void WalkEngine::clear_origin(NodeId origin) {
  OriginState* os = find_origin(origin);
  if (os == nullptr) return;
  os->levels.clear();  // rows, index and arenas keep their capacity
  std::fill(os->index.begin(), os->index.end(), kNil);
  os->in_arena.clear();
  os->out_arena.clear();
  os->proxy_rows.clear();
  for (const NodeId node : os->proxies) {
    auto& regs = registrations_[node];
    const auto it = reg_position(regs, origin);
    if (it != regs.end() && it->first == origin) regs.erase(it);
  }
  os->proxies.clear();
  os->length = 0;
}

void WalkEngine::note_arrival(OriginState& os, std::uint32_t lv, Port port,
                              std::uint32_t count, std::uint32_t peer) {
  std::uint32_t tail = kNil;
  for (std::uint32_t e = os.levels[lv].in_head; e != kNil;
       e = os.in_arena[e].next) {
    if (os.in_arena[e].port == port) {
      // One port, one sender node, one level above: always the same row.
      assert(os.in_arena[e].peer == peer);
      os.in_arena[e].count += count;
      return;
    }
    tail = e;
  }
  const std::uint32_t e = static_cast<std::uint32_t>(os.in_arena.size());
  // wcle-lint: no-alloc-ok(arena entry, bounded by degree; stays warm)
  os.in_arena.push_back({count, port, kNil, peer});
  if (tail == kNil)
    os.levels[lv].in_head = e;
  else
    os.in_arena[tail].next = e;
}

WalkEngine::RegistrationView WalkEngine::registrations(NodeId node) const {
  const std::vector<Registration>& regs = registrations_[node];
  return RegistrationView(regs.data(), regs.size());
}

const std::vector<NodeId>& WalkEngine::proxy_nodes(NodeId origin) const {
  const OriginState* os = find_origin(origin);
  return os == nullptr ? empty_nodes_ : os->proxies;
}

void WalkEngine::dispose_units(OriginState& os, NodeId node, std::uint32_t r,
                               std::uint32_t row, std::uint32_t count,
                               std::vector<Pending>& next) {
  const std::uint32_t li = row != kNil ? row : level_at(os, node, r);
  os.levels[li].units += count;
  if (r == 0) {
    auto& regs = registrations_[node];
    const auto it = reg_position(regs, os.node);
    if (it == regs.end() || it->first != os.node) {
      // wcle-lint: no-alloc-ok(one entry per proxy-origin pair; stays warm)
      regs.insert(it, {os.node, count});
      // wcle-lint: no-alloc-ok(bounded by proxies per origin; stays warm)
      os.proxies.push_back(node);
      // wcle-lint: no-alloc-ok(bounded by proxies per origin; stays warm)
      os.proxy_rows.push_back(li);
    } else {
      it->second += count;
    }
    return;
  }

  const auto stays = static_cast<std::uint32_t>(
      config_.lazy ? rng_->next_binomial(count, 0.5) : 0);
  const std::uint32_t movers = count - stays;
  if (stays > 0) {
    // level_at may grow the rows; li-indexed access stays valid.
    const std::uint32_t below = level_at(os, node, r - 1);
    os.levels[below].stay_in += stays;
    os.levels[below].up = li;
    os.levels[li].down = below;
    // wcle-lint: no-alloc-ok(phase-local queue; warm after round one)
    next.push_back({node, os.node, r - 1, stays, below});
  }
  if (movers == 0) return;

  const std::uint32_t deg = g_->degree(node);
  std::uint64_t left = movers;
  for (Port p = 0; p < deg && left > 0; ++p) {
    const std::uint64_t sent =
        (p + 1 == deg) ? left
                       : rng_->next_binomial(left, 1.0 / double(deg - p));
    if (sent == 0) continue;
    left -= sent;
    std::uint32_t tail = kNil;
    std::uint32_t e = os.levels[li].out_head;
    while (e != kNil && os.out_arena[e].port != p) {
      tail = e;
      e = os.out_arena[e].next;
    }
    if (e == kNil) {  // port not yet on the departure list: append at tail
      e = static_cast<std::uint32_t>(os.out_arena.size());
      // wcle-lint: no-alloc-ok(arena entry, bounded by degree; stays warm)
      os.out_arena.push_back({p, kNil, kNil});
      if (tail == kNil)
        os.levels[li].out_head = e;
      else
        os.out_arena[tail].next = e;
    }
    Message msg;
    msg.tag = kTagWalkToken;
    msg.a = os.node;
    msg.b = r - 1;
    msg.c = sent;
    // The sender's row and departure entry, for the receiver to link both
    // ends of the trail edge (host-side bookkeeping; `bits` is the bill).
    msg.d = (std::uint64_t{li} << 32) | e;
    // Without coalescing every walk unit pays for its own token (the naive
    // transport Lemma 12 improves on); with it the count rides along free.
    msg.bits = config_.coalesce
                   ? token_bits(r - 1)
                   : static_cast<std::uint32_t>(
                         std::min<std::uint64_t>(sent, 1u << 20) *
                         token_bits(r - 1));
    net_->send(node, p, msg);
  }
}

std::uint64_t WalkEngine::run_walk_stage(const std::vector<WalkOrder>& orders) {
  // Deterministic processing order: (node, origin) ascending, descending
  // remaining-length within — the order the hash-map engine produced by
  // sorting its keys. Equal (node, origin, level) buckets merge before
  // disposal so the coalesced RNG draws are identical too.
  const auto by_token = [](const Pending& x, const Pending& y) {
    if (x.node != y.node) return x.node < y.node;
    if (x.origin != y.origin) return x.origin < y.origin;
    return x.level > y.level;
  };

  // Every count in a level row is bounded by its origin's walk count, so
  // one order per origin and 32-bit counts keep the rows' counters exact.
  std::vector<Pending> cur, next;
  for (const WalkOrder& o : orders) {
    if (o.count == 0 || o.length == 0)
      throw std::invalid_argument("run_walk_stage: count/length must be >= 1");
    if (o.count > 0xffffffffull)
      throw std::invalid_argument(
          "run_walk_stage: count must fit 32 bits (level counters are 32-bit)");
    // wcle-lint: no-alloc-ok(stage setup, once per phase)
    cur.push_back({o.origin, o.origin, o.length,
                   static_cast<std::uint32_t>(o.count)});
  }
  std::sort(cur.begin(), cur.end(), by_token);
  if (std::adjacent_find(cur.begin(), cur.end(),
                         [](const Pending& x, const Pending& y) {
                           return x.origin == y.origin;
                         }) != cur.end())
    throw std::invalid_argument("run_walk_stage: duplicate origin");
  for (const WalkOrder& o : orders) clear_origin(o.origin);
  for (const WalkOrder& o : orders) intern(o.origin).length = o.length;

  const std::uint64_t round0 = net_->round();
  // Per-walk token tracing (--trace-walks): one hop record per delivered
  // token message, emitted into the recorder's pre-sized buffer. Purely
  // observational — the check is hoisted so the walks-off path pays one
  // branch per delivery and the recorder is never consulted.
  TraceRecorder* const rec = net_->config().trace;
  const bool trace_walks = rec != nullptr && rec->trace_walks() != 0;
  while (!cur.empty() || !net_->idle()) {
    // Coalesce this round's tokens: sorted by (node, origin, level desc),
    // equal keys are adjacent and dispose as one bucket of summed units.
    std::sort(cur.begin(), cur.end(), by_token);
    for (std::size_t i = 0; i < cur.size();) {
      std::uint32_t total = cur[i].count;
      std::size_t j = i + 1;
      while (j < cur.size() && cur[j].node == cur[i].node &&
             cur[j].origin == cur[i].origin && cur[j].level == cur[i].level) {
        total += cur[j].count;
        ++j;
      }
      OriginState* os = find_origin(cur[i].origin);
      assert(os != nullptr);
      dispose_units(*os, cur[i].node, cur[i].level, cur[i].row, total, next);
      i = j;
    }
    cur.clear();

    // wcle-lint: no-alloc-transitive-ok(reaches only fault-event scratch)
    const std::vector<Delivery>& delivered = net_->step();
    for (const Delivery& d : delivered) {
      assert(d.msg.tag == kTagWalkToken);
      const NodeId origin = static_cast<NodeId>(d.msg.a);
      const std::uint32_t r = static_cast<std::uint32_t>(d.msg.b);
      const auto count = static_cast<std::uint32_t>(d.msg.c);
      if (trace_walks)
        // d.port is the receiver's mirror port, so its neighbor view names
        // the sender: the hop's directed edge is src -> dst.
        rec->on_walk_hop(
            net_->round(), static_cast<std::uint32_t>(origin),
            static_cast<std::uint32_t>(g_->neighbor(d.dst, d.port)),
            static_cast<std::uint32_t>(d.dst),
            count, d.msg.tag);
      OriginState* os = find_origin(origin);
      assert(os != nullptr);
      const std::uint32_t row = level_at(*os, d.dst, r);
      note_arrival(*os, row, d.port, count,
                   static_cast<std::uint32_t>(d.msg.d >> 32));
      os->out_arena[static_cast<std::uint32_t>(d.msg.d)].peer = row;
      // wcle-lint: no-alloc-ok(phase-local queue; warm after round one)
      next.push_back({d.dst, origin, r, count, row});
    }
    cur.swap(next);
  }
  return net_->round() - round0;
}

// ------------------------------------------------------------ convergecast
//
// The delivery path: every reply-up, flood-down and unicast-up message runs
// through handle() into credit(), flood_at() or unicast_at(), and every event
// lands in the caller's WalkEvents. Id sets move through the engine's and
// the transport's WordPools, and the event buffer, the credit stack and the
// proxy payload keep their capacity, so once warm a delivery allocates
// nothing.

void WalkEvents::push(WalkEvent::Kind kind, NodeId node, NodeId origin,
                      IdSpan ids, std::uint64_t distinct_proxies,
                      std::uint64_t proxy_nodes) {
  WalkEvent ev;
  ev.kind = kind;
  ev.node = node;
  ev.origin = origin;
  ev.ids_at = static_cast<std::uint32_t>(words_.size());
  ev.ids_len = ids.size();
  ev.distinct_proxies = distinct_proxies;
  ev.proxy_nodes = proxy_nodes;
  // wcle-lint: no-alloc-ok(caller-owned buffer; clear() keeps its capacity)
  events_.push_back(ev);
  // wcle-lint: no-alloc-ok(caller-owned buffer; clear() keeps its capacity)
  words_.insert(words_.end(), ids.begin(), ids.end());
}

bool WalkEvents::holds(IdSpan ids) const noexcept {
  if (ids.empty() || words_.empty()) return false;
  const auto at = reinterpret_cast<std::uintptr_t>(ids.data());
  const auto lo = reinterpret_cast<std::uintptr_t>(words_.data());
  return at >= lo && at < lo + words_.size() * sizeof(std::uint64_t);
}

WalkEngine::PooledReply WalkEngine::intern_reply(const std::uint64_t* ids,
                                                 std::uint32_t len,
                                                 std::uint32_t distinct,
                                                 std::uint32_t proxies) {
  PooledReply r;
  r.distinct_proxies = distinct;
  r.proxy_nodes = proxies;
  if (len > 0) {
    r.ids = cc_pool_.alloc(len);
    r.len = len;
    std::memcpy(cc_pool_.data(r.ids), ids,
                std::size_t{len} * sizeof(std::uint64_t));
  }
  return r;
}

void WalkEngine::free_reply(PooledReply& r) {
  if (r.ids != WordPool::kNull) cc_pool_.free(r.ids, r.len);
  r.ids = WordPool::kNull;
  r.len = 0;
}

void WalkEngine::merge_reply(PooledReply& into, PooledReply& from) {
  into.distinct_proxies += from.distinct_proxies;
  into.proxy_nodes += from.proxy_nodes;
  if (from.len == 0) return;  // nothing pooled to fold in
  if (into.len == 0) {        // adopt from's buffer wholesale
    into.ids = from.ids;
    into.len = from.len;
    from.ids = WordPool::kNull;
    from.len = 0;
    return;
  }
  // Sized by the union, not the sum: the slot's class must be the one
  // free() will later derive from its length.
  const std::uint64_t* a = cc_pool_.data(into.ids);
  const std::uint64_t* b = cc_pool_.data(from.ids);
  const std::uint32_t len = union_size(a, into.len, b, from.len);
  // a and b stay valid across alloc(): chunks never move.
  const std::uint32_t dst = cc_pool_.alloc(len);
  std::set_union(a, a + into.len, b, b + from.len, cc_pool_.data(dst));
  cc_pool_.free(into.ids, into.len);
  cc_pool_.free(from.ids, from.len);
  into.ids = dst;
  into.len = len;
  from.ids = WordPool::kNull;
  from.len = 0;
}

void WalkEngine::begin_convergecast(const std::vector<NodeId>& origins,
                                    const ProxyPayloadFn& at_proxy,
                                    WalkEvents& out) {
  cc_gen_ += 1;        // invalidates every level's embedded convergecast state
  cc_pool_.rewind();   // every outstanding id-set handle died with it
  ReplyPayload& payload = proxy_payload_;
  for (const NodeId origin : origins) {
    OriginState* os = find_origin(origin);
    if (os == nullptr) continue;  // never walked: no proxies
    for (std::size_t i = 0; i < os->proxies.size(); ++i) {
      const NodeId proxy = os->proxies[i];
      const std::uint32_t row = os->proxy_rows[i];
      // The terminal row counts exactly the units registered at the proxy.
      const std::uint32_t units = os->levels[row].units;
      assert(registrations(proxy).at(origin) == units);
      payload.distinct_proxies = 0;
      payload.proxy_nodes = 0;
      payload.ids.clear();
      at_proxy(proxy, origin, units, payload);
      // Each proxy counts at most once per walk it ends, so every aggregate
      // stays within the origin's 32-bit walk count.
      if (payload.distinct_proxies > units || payload.proxy_nodes > units)
        throw std::invalid_argument(
            "begin_convergecast: a proxy's counters exceed its walk count");
      const PooledReply pooled = intern_reply(
          payload.ids.data(), static_cast<std::uint32_t>(payload.ids.size()),
          static_cast<std::uint32_t>(payload.distinct_proxies),
          static_cast<std::uint32_t>(payload.proxy_nodes));
      // Seed distribution from the trail's terminal level.
      credit(*os, row, units, pooled, out);
    }
  }
}

void WalkEngine::credit(OriginState& os, std::uint32_t row,
                        std::uint32_t units, PooledReply payload,
                        WalkEvents& out) {
  if (os.cc_gen != cc_gen_) {
    // First credit of this convergecast generation: reset the origin's rows
    // in place. Their old handles are NOT freed — that storage died in the
    // rewind, so freeing it would corrupt the fresh pool.
    os.cc_gen = cc_gen_;
    for (Level& lv : os.levels) {
      lv.cc_got = 0;
      lv.cc = PooledReply{};
    }
  }
  // wcle-lint: no-alloc-ok(engine-owned work stack; warm after one cascade)
  cc_stack_.push_back({row, units, payload});

  while (!cc_stack_.empty()) {
    CreditWork w = cc_stack_.back();
    cc_stack_.pop_back();
    Level& lv = os.levels[w.row];

    PooledReply agg;
    if (lv.r == 0) {
      // Terminal level: all proxy units report at once; no counting needed.
      agg = w.payload;
    } else {
      lv.cc_got += w.units;
      merge_reply(lv.cc, w.payload);
      assert(lv.cc_got <= lv.units);
      if (lv.cc_got < lv.units) continue;
      agg = lv.cc;  // completed: take the aggregate out of the level
      lv.cc = PooledReply{};
    }

    // Completed: partition units over the parents; the full aggregate
    // travels with the first parent, the rest carry unit counts only.
    bool first = true;
    if (lv.stay_in > 0) {
      // wcle-lint: no-alloc-ok(engine-owned work stack; warm after one cascade)
      cc_stack_.push_back({lv.up, lv.stay_in, agg});
      agg = PooledReply{};  // ownership moved to the stack entry
      first = false;
    }
    for (std::uint32_t e = lv.in_head; e != kNil; e = os.in_arena[e].next) {
      const InEntry& in = os.in_arena[e];
      Message msg;
      msg.tag = kTagReplyUp;
      msg.a = os.node;
      msg.b = row_ref(lv.r + 1, in.peer);
      msg.c = in.count;
      const bool carried = first;
      if (carried) {
        msg.d = (std::uint64_t{agg.distinct_proxies} << 32) | agg.proxy_nodes;
        if (agg.len > 0) msg.ids = IdSpan(cc_pool_.data(agg.ids), agg.len);
        first = false;
      }
      msg.bits = payload_bits(msg.ids.size());
      net_->send(lv.node, in.port, msg);
      if (carried) free_reply(agg);  // send() copied the ids into its pool
    }
    if (lv.node == os.node && lv.r == os.length) {  // the walks' injection point
      // Only the first parent-less completion carries the aggregate; its ids
      // go straight from the pool into the caller's buffer.
      IdSpan ids;
      std::uint64_t distinct = 0, proxies = 0;
      if (first) {
        if (agg.len > 0) ids = IdSpan(cc_pool_.data(agg.ids), agg.len);
        distinct = agg.distinct_proxies;
        proxies = agg.proxy_nodes;
      }
      out.push(WalkEvent::Kind::kConvergecastDone, lv.node, os.node, ids,
               distinct, proxies);
    }
    free_reply(agg);  // no-op unless no parent consumed the aggregate
  }
}

// ------------------------------------------------------- flood and unicast

void WalkEngine::begin_flood_down(NodeId origin, IdSpan ids, WalkEvents& out) {
  if (out.holds(ids))
    throw std::invalid_argument(
        "begin_flood_down: ids must not view the event buffer appended to");
  OriginState* os = find_origin(origin);
  if (os == nullptr || os->length == 0) return;
  const std::uint32_t gen = ++os->flood_gen;
  // Row 0 is the injection point: the stage disposes of it first.
  assert(os->levels[0].node == origin && os->levels[0].r == os->length);
  flood_at(*os, 0, gen, ids, out);
}

void WalkEngine::flood_at(OriginState& os, std::uint32_t row,
                          std::uint32_t gen, IdSpan ids, WalkEvents& out) {
  // Walks down the lazy self-step links, if any walk took them.
  for (std::uint32_t li = row; li != kNil;) {
    Level& lv = os.levels[li];
    if (lv.flood_seen == gen) return;
    lv.flood_seen = gen;
    if (lv.r == 0) {
      if (lv.units > 0)
        out.push(WalkEvent::Kind::kFloodAtProxy, lv.node, os.node, ids);
      return;
    }
    for (std::uint32_t e = lv.out_head; e != kNil; e = os.out_arena[e].next) {
      Message msg;
      msg.tag = kTagFloodDown;
      msg.a = os.node;
      msg.b = row_ref(lv.r - 1, os.out_arena[e].peer);
      msg.c = gen;
      msg.ids = ids;  // forwarded as a view; send() copies into its pool
      msg.bits = payload_bits(ids.size());
      net_->send(lv.node, os.out_arena[e].port, msg);
    }
    li = lv.down;
  }
}

void WalkEngine::begin_unicast_up(NodeId node, NodeId origin, IdSpan ids,
                                  WalkEvents& out) {
  if (out.holds(ids))
    throw std::invalid_argument(
        "begin_unicast_up: ids must not view the event buffer appended to");
  OriginState* os = find_origin(origin);
  if (os == nullptr) return;  // never walked: no trail
  const std::uint32_t li = find_level(*os, node, 0);
  if (li == kNil) return;  // not a proxy of the latest walks: no trail
  unicast_at(*os, li, ids, out);
}

void WalkEngine::unicast_at(OriginState& os, std::uint32_t row, IdSpan ids,
                            WalkEvents& out) {
  for (std::uint32_t li = row;;) {
    const Level& lv = os.levels[li];
    if (lv.node == os.node && lv.r == os.length) {  // the injection point
      out.push(WalkEvent::Kind::kUnicastAtOrigin, lv.node, os.node, ids);
      return;
    }
    if (lv.stay_in > 0) {  // lazy self-step: ascend locally
      li = lv.up;
      continue;
    }
    if (lv.in_head != kNil) {
      const InEntry& in = os.in_arena[lv.in_head];
      Message msg;
      msg.tag = kTagUnicastUp;
      msg.a = os.node;
      msg.b = row_ref(lv.r + 1, in.peer);
      msg.ids = ids;  // forwarded as a view; send() copies into its pool
      msg.bits = payload_bits(ids.size());
      net_->send(lv.node, in.port, msg);
    }
    return;  // sent, or an orphan level (should not happen on full trails)
  }
}

void WalkEngine::handle(const Delivery& d, WalkEvents& out) {
  OriginState* os = find_origin(static_cast<NodeId>(d.msg.a));
  // Only the engine sends these tags, and only for walked origins.
  assert(os != nullptr);
  const auto level = static_cast<std::uint32_t>(d.msg.b >> 32);
  std::uint32_t row = static_cast<std::uint32_t>(d.msg.b);
  // A flood over a lost token's edge names no row; the (node, level) index
  // still finds the level if a token over another edge created it.
  if (row == kNil && d.msg.tag == kTagFloodDown)
    row = find_level(*os, d.dst, level);
  if (row == kNil) return;
  // The named row is the one the (node, level) key finds: trails are fixed
  // from the end of the walk stage, and every walk-stage delivery is a
  // token, so no message outlives the trail it names.
  assert(row < os->levels.size());
  assert(os->levels[row].node == d.dst && os->levels[row].r == level);
  switch (d.msg.tag) {
    case kTagReplyUp: {
      const PooledReply payload = intern_reply(
          d.msg.ids.data(), static_cast<std::uint32_t>(d.msg.ids.size()),
          static_cast<std::uint32_t>(d.msg.d >> 32),
          static_cast<std::uint32_t>(d.msg.d));
      credit(*os, row, static_cast<std::uint32_t>(d.msg.c), payload, out);
      break;
    }
    case kTagFloodDown:
      flood_at(*os, row, static_cast<std::uint32_t>(d.msg.c), d.msg.ids, out);
      break;
    case kTagUnicastUp:
      unicast_at(*os, row, d.msg.ids, out);
      break;
    default:
      assert(false && "WalkEngine::handle: unexpected tag");
  }
}
// wcle-lint: end-no-alloc

WalkEngine::MemoryBytes WalkEngine::memory_bytes() const noexcept {
  MemoryBytes m;
  m.trails = origins_.capacity() * sizeof(OriginState) +
             origin_index_.capacity() * sizeof(std::uint32_t) +
             registrations_.capacity() * sizeof(registrations_[0]) +
             cc_stack_.capacity() * sizeof(CreditWork) +
             proxy_payload_.ids.capacity() * sizeof(std::uint64_t);
  for (const OriginState& os : origins_) {
    m.trails += os.levels.capacity() * sizeof(Level) +
                os.index.capacity() * sizeof(std::uint32_t) +
                os.in_arena.capacity() * sizeof(InEntry) +
                os.out_arena.capacity() * sizeof(OutEntry) +
                os.proxies.capacity() * sizeof(NodeId) +
                os.proxy_rows.capacity() * sizeof(std::uint32_t);
  }
  for (const std::vector<Registration>& regs : registrations_)
    m.trails += regs.capacity() * sizeof(Registration);
  m.id_pool = cc_pool_.memory_bytes();
  return m;
}

}  // namespace wcle
