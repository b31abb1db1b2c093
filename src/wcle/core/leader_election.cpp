#include "wcle/core/leader_election.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "wcle/api/algorithm.hpp"
#include "wcle/rw/walk_engine.hpp"
#include "wcle/sim/network.hpp"
#include "wcle/support/rng.hpp"

namespace wcle {

namespace {

/// Winner marks travel inside id sets with the top bit set ("appends it to
/// all future messages", Algorithm 2 step 7). Random ids are < n^4 <= 9e18,
/// so the top bit is always free.
constexpr std::uint64_t kWinnerBit = 1ull << 63;

struct Contender {
  NodeId node = 0;
  std::uint32_t length = 1;    ///< current guess t_u
  bool active = true;          ///< still guess-and-doubling
  bool stopped = false;        ///< properties satisfied (or cap-forced)
  bool leader = false;
  bool has_winner = false;     ///< received a winner message
  std::uint64_t distinct = 0;  ///< distinct proxies reported in Round 1
  std::vector<std::uint64_t> i2;  ///< adjacent contenders' random ids
  std::vector<std::uint64_t> i4;  ///< union of I3 sets
};

enum class Stage { kRound1, kRound2, kRound3, kWinner };

// The reactor's helpers run once per delivered event. Every output vector is
// warm scratch or per-contender / per-proxy state that is cleared, not freed,
// so once the first phase has sized them they no longer allocate.
// WalkEngineAlloc.ElectionAllocationsStayBounded holds this: one allocation
// per reactor event breaks its bound.
void split_marks(IdSpan ids, std::vector<std::uint64_t>& plain,
                 std::vector<std::uint64_t>& marks) {
  plain.clear();
  marks.clear();
  for (const std::uint64_t id : ids)
    (id & kWinnerBit ? marks : plain).push_back(id);
}

/// dst = dst ∪ src for sorted id lists, built in `scratch` and copied back,
/// so each buffer only grows to its own largest size.
void sorted_union_into(std::vector<std::uint64_t>& dst,
                       const std::vector<std::uint64_t>& src,
                       std::vector<std::uint64_t>& scratch) {
  scratch.resize(dst.size() + src.size());
  auto last = std::set_union(dst.begin(), dst.end(), src.begin(), src.end(),
                             scratch.begin());
  last = std::unique(scratch.begin(), last);
  dst.assign(scratch.begin(), last);
}

}  // namespace

ElectionResult run_leader_election(const Graph& g,
                                   const ElectionParams& params) {
  const NodeId n = g.node_count();
  if (n < 2)
    throw std::invalid_argument("run_leader_election: need n >= 2");
  if (!g.is_connected())
    throw std::invalid_argument("run_leader_election: graph must be connected");

  ElectionResult res;
  Rng root(params.seed);
  Rng id_rng = root.fork(0x1d5);
  Rng coin_rng = root.fork(0xc01);
  Rng walk_rng = root.fork(0x3a1);

  // Algorithm 1: random ids from [1, n^4]; contenders with prob c1 log n / n.
  std::vector<std::uint64_t> rid(n);
  const std::uint64_t space = params.id_space(n);
  for (NodeId v = 0; v < n; ++v) rid[v] = id_rng.next_in(1, space);

  const double pc = params.contender_probability(n);
  std::vector<NodeId> contender_nodes;
  for (NodeId v = 0; v < n; ++v)
    if (coin_rng.next_bool(pc)) contender_nodes.push_back(v);
  res.contenders = contender_nodes;
  if (contender_nodes.empty()) return res;  // fails; probability n^{-c1}

  Network net(g, congest_config_for(params, n));
  // Report the contender set before the first round so the "contenders"
  // adversary can target exactly these nodes when its crash batch fires.
  for (const NodeId v : contender_nodes) net.note_contender(v);
  WalkEngine engine(g, net, walk_rng,
                    {params.lazy_walks, params.coalesce_tokens});

  // Dense contender table in contender_nodes order: slot_of[v] is v's index
  // in `contenders`. Iteration runs over that sorted order, so no container
  // order can reach the event order or any RNG draw.
  constexpr std::uint32_t kNoSlot = 0xffffffffu;
  std::vector<std::uint32_t> slot_of(n, kNoSlot);
  std::vector<Contender> contenders(contender_nodes.size());
  for (std::size_t i = 0; i < contender_nodes.size(); ++i) {
    slot_of[contender_nodes[i]] = static_cast<std::uint32_t>(i);
    contenders[i].node = contender_nodes[i];
    contenders[i].length = params.initial_length;
  }
  const auto contender = [&](NodeId v) -> Contender& {
    assert(slot_of[v] != kNoSlot);
    return contenders[slot_of[v]];
  };

  const std::uint64_t walks = params.walk_count(n);
  const std::uint64_t need_intersect = params.intersection_threshold(n);
  const std::uint64_t need_distinct =
      std::min<std::uint64_t>(params.distinct_threshold(n), walks);
  const std::uint32_t max_len = params.effective_max_length(n);

  std::vector<char> winner_at(n, 0);            // node-level winner knowledge
  std::vector<std::uint64_t> winner_mark_at(n, 0);
  // Per-proxy I3 sets, kept sorted by sorted_union_into so payload order is
  // deterministic. `i3_touched` lists the proxies holding one, so the
  // per-phase reset clears those vectors (keeping their capacity) only.
  std::vector<std::vector<std::uint64_t>> proxy_i3(n);
  std::vector<NodeId> i3_touched;
  std::vector<std::uint64_t> union_scratch;

  Stage stage = Stage::kRound1;

  // Uniform event reactor: one FIFO of walk events that every engine call
  // appends to and drain() consumes by index, then clears. It captures stage
  // results and runs the winner cascade (steps 5-7 of Algorithm 2) in
  // whatever stage a winner mark shows up; the operations a reaction issues
  // append their events to the tail, which the same drain reaches in order.
  WalkEvents events;
  std::vector<std::uint64_t> plain, marks;
  // Step 6: the first time any node learns of a winner it notifies every
  // contender it is a proxy for (unicast up their trails, in origin order).
  const auto node_learns_winner = [&](NodeId node,
                                      const std::vector<std::uint64_t>& m) {
    if (winner_at[node]) return;
    winner_at[node] = 1;
    winner_mark_at[node] = m.front();
    for (const auto& [x, cnt] : engine.registrations(node))
      engine.begin_unicast_up(node, x, m, events);
  };
  // Step 7: the first time a contender learns of a winner it forwards the
  // mark to all its proxies (and appends it to future messages).
  const auto contender_learns_winner =
      [&](Contender& c, const std::vector<std::uint64_t>& m) {
        node_learns_winner(c.node, m);
        if (c.has_winner) return;
        c.has_winner = true;
        engine.begin_flood_down(c.node, m, events);
      };

  const auto drain = [&]() {
    for (std::size_t head = 0; head < events.size(); ++head) {
      // Copied out: the reactions below push into `events`, which moves its
      // storage; split_marks copies the ids for the same reason.
      const WalkEvent ev = events[head];
      // Crash-stop: a dead node takes no local steps. The transport already
      // suppresses its traffic; this guard stops the *local* completions
      // (e.g. a contender whose walks all stayed home).
      if (!net.node_up(ev.node)) continue;
      split_marks(events.ids(ev), plain, marks);
      switch (ev.kind) {
        case WalkEvent::Kind::kConvergecastDone: {
          Contender& c = contender(ev.origin);
          if (stage == Stage::kRound1) {
            c.i2 = plain;  // copy-assignment reuses c.i2's capacity
            c.distinct = ev.distinct_proxies;
          } else if (stage == Stage::kRound3) {
            c.i4 = plain;
          }
          if (!marks.empty()) contender_learns_winner(c, marks);
          break;
        }
        case WalkEvent::Kind::kFloodAtProxy:
          if (stage == Stage::kRound2 && !plain.empty()) {
            std::vector<std::uint64_t>& i3 = proxy_i3[ev.node];
            if (i3.empty()) i3_touched.push_back(ev.node);
            sorted_union_into(i3, plain, union_scratch);
          }
          if (!marks.empty()) node_learns_winner(ev.node, marks);
          break;
        case WalkEvent::Kind::kUnicastAtOrigin:
          if (!marks.empty())
            contender_learns_winner(contender(ev.origin), marks);
          break;
      }
    }
    events.clear();
  };

  const auto pump_network = [&]() {
    net.run_until_idle([&](const Delivery& d) {
      assert(WalkEngine::owns_tag(d.msg.tag));
      engine.handle(d, events);
      drain();
    });
  };

  // Paper-schedule mode: idle-step the network to the sub-phase boundary
  // (messages are unaffected; only the clock advances, exactly as nodes
  // sleeping out the congestion pad would).
  auto pad_to = [&](std::uint64_t absolute_round) {
    if (!params.paper_schedule) return;
    while (net.round() < absolute_round) net.step();
  };

  // Round-1/Round-3 proxy payload builders; `p` arrives reset.
  const ProxyPayloadFn round1_payload = [&](NodeId proxy, NodeId origin,
                                            std::uint64_t units,
                                            ReplyPayload& p) {
    p.proxy_nodes = 1;
    p.distinct_proxies = (units == 1) ? 1 : 0;
    for (const auto& [x, cnt] : engine.registrations(proxy))
      if (x != origin) p.add_id(rid[x]);
    if (winner_at[proxy]) p.add_id(winner_mark_at[proxy]);
  };
  const ProxyPayloadFn round3_payload = [&](NodeId proxy, NodeId /*origin*/,
                                            std::uint64_t /*units*/,
                                            ReplyPayload& p) {
    p.ids = proxy_i3[proxy];
    if (winner_at[proxy]) p.add_id(winner_mark_at[proxy]);
  };

  std::uint64_t stopped_count = 0;
  bool any_active = true;
  std::vector<NodeId> walkers, new_leaders;
  std::vector<WalkOrder> orders;
  std::vector<std::uint64_t> flood_ids;
  while (any_active && res.phases < params.max_phases) {
    res.phases += 1;
    walkers.clear();
    std::uint32_t phase_len = 0;
    for (Contender& c : contenders) {
      // Crash-stop: a dead contender leaves the race (it neither walks nor
      // decides; its proxies keep their registrations but nobody asks).
      if (c.active && !net.node_up(c.node)) c.active = false;
      if (c.active) {
        walkers.push_back(c.node);
        phase_len = std::max(phase_len, c.length);
      }
    }
    if (walkers.empty()) break;  // every remaining contender crashed
    const Metrics before = net.metrics();
    const std::uint64_t phase_start = net.round();
    const std::uint64_t T = params.scheduled_T(n, phase_len);
    // Timeline: one guess-and-double phase begins, walks of length phase_len.
    net.note_phase("walk_phase", phase_len);

    // Walk stage: all active contenders run their parallel walks.
    orders.clear();
    for (const NodeId v : walkers)
      orders.push_back({v, walks, contender(v).length});
    engine.run_walk_stage(orders);
    pad_to(phase_start + T);

    // Round 1: proxies report d and I1 back along the trails.
    stage = Stage::kRound1;
    for (const NodeId v : walkers) {
      Contender& c = contender(v);
      c.i2.clear();
      c.i4.clear();
      c.distinct = 0;
    }
    for (const NodeId v : i3_touched) proxy_i3[v].clear();
    i3_touched.clear();
    engine.begin_convergecast(walkers, round1_payload, events);
    drain();
    pump_network();
    pad_to(phase_start + 2 * T);

    // Round 2: contenders flood I2 (plus their own id and any winner mark).
    stage = Stage::kRound2;
    for (const NodeId v : walkers) {
      const Contender& c = contender(v);
      flood_ids.assign(c.i2.begin(), c.i2.end());
      flood_ids.push_back(rid[v]);
      std::sort(flood_ids.begin(), flood_ids.end());
      if (c.has_winner) flood_ids.push_back(winner_mark_at[v]);
      engine.begin_flood_down(v, flood_ids, events);
      drain();
    }
    pump_network();
    pad_to(phase_start + 3 * T);

    // Round 3: proxies report I3 = union of received I2 sets.
    stage = Stage::kRound3;
    engine.begin_convergecast(walkers, round3_payload, events);
    drain();
    pump_network();
    pad_to(phase_start + 4 * T);

    // Stopping decision + winner rule (steps 4-5).
    stage = Stage::kWinner;
    new_leaders.clear();
    for (const NodeId v : walkers) {
      Contender& c = contender(v);
      if (!net.node_up(v)) {  // crashed mid-phase: no stopping decision
        c.active = false;
        continue;
      }
      const std::uint64_t adjacent = c.i2.size();
      const bool properties_met =
          adjacent >= need_intersect && c.distinct >= need_distinct;
      const bool cap_forced = !properties_met && 2ull * c.length > max_len;
      if (!properties_met && !cap_forced) {
        c.length *= 2;
        continue;
      }
      c.active = false;
      c.stopped = true;
      ++stopped_count;
      if (cap_forced) res.hit_phase_cap = true;
      std::uint64_t max_known = 0;
      for (const std::uint64_t id : c.i4)
        if (id != rid[v]) max_known = std::max(max_known, id);
      if (!c.has_winner && rid[v] > max_known) {
        c.leader = true;
        new_leaders.push_back(v);
      }
    }

    // Winner stage: leaders notify proxies; cascade runs to quiescence
    // (the paper's 2T wait).
    for (const NodeId v : new_leaders) {
      const std::uint64_t mark = rid[v] | kWinnerBit;
      winner_at[v] = 1;
      winner_mark_at[v] = mark;
      contender(v).has_winner = true;
      net.note_phase("winner_declared", v);
      engine.begin_flood_down(v, IdSpan(&mark, 1), events);
      drain();
    }
    pump_network();
    pad_to(phase_start + 6 * T);  // the paper's 2T winner-propagation wait

    PhaseStats ps;
    ps.length = phase_len;
    ps.active = walkers.size();
    ps.stopped_after = stopped_count;
    ps.metrics = net.metrics().since(before);
    res.phase_stats.push_back(ps);
    res.final_length = std::max(res.final_length, phase_len);
    res.scheduled_rounds += 6 * params.scheduled_T(n, phase_len);

    any_active = false;
    for (const Contender& c : contenders)
      if (c.active) any_active = true;
  }
  if (any_active) res.hit_phase_cap = true;

  for (const Contender& c : contenders) {
    if (c.leader) {
      res.leaders.push_back(c.node);
      if (res.leader_random_id == 0) res.leader_random_id = rid[c.node];
    }
  }
  net.note_phase("election_done", res.leaders.size());
  res.totals = net.metrics();
  res.faults = net.fault_outcome();
  res.faults.hit_round_cap = res.hit_phase_cap;
  return res;
}

namespace {

class ElectionAlgorithm final : public Algorithm {
 public:
  std::string name() const override { return "election"; }
  std::string describe() const override {
    return "the paper's implicit election: guess-and-double random walks, no "
           "knowledge of tmix (Algorithms 1+2, Theorem 13)";
  }
  Kind kind() const override { return Kind::kElection; }
  RunResult run(const Graph& g, const RunOptions& options) const override {
    const ElectionResult r = run_leader_election(g, options.params);
    RunResult out;
    out.algorithm = name();
    out.leaders = r.leaders;
    out.rounds = r.totals.rounds;
    out.totals = r.totals;
    out.success = r.success();
    out.faults = r.faults;
    out.extras["contenders"] = static_cast<double>(r.contenders.size());
    out.extras["phases"] = static_cast<double>(r.phases);
    out.extras["final_length"] = static_cast<double>(r.final_length);
    out.extras["scheduled_rounds"] = static_cast<double>(r.scheduled_rounds);
    // Per-trial Lemma 12 check: measured rounds must fit inside the paper's
    // schedule. Kept paired here because aggregated summaries (rounds.max vs
    // scheduled_rounds.min) cannot compare across trials.
    out.extras["schedule_slack"] = static_cast<double>(r.scheduled_rounds) -
                                   static_cast<double>(r.totals.rounds);
    out.extras["hit_phase_cap"] = r.hit_phase_cap ? 1.0 : 0.0;
    return out;
  }
};

}  // namespace

std::unique_ptr<Algorithm> make_election_algorithm() {
  return std::make_unique<ElectionAlgorithm>();
}

}  // namespace wcle
