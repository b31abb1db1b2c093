#include "wcle/baselines/known_tmix.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "wcle/api/algorithm.hpp"
#include "wcle/graph/spectral.hpp"
#include "wcle/rw/walk_engine.hpp"
#include "wcle/sim/network.hpp"
#include "wcle/support/rng.hpp"

namespace wcle {

KnownTmixResult run_known_tmix_election(const Graph& g,
                                        std::uint32_t walk_length,
                                        const ElectionParams& params) {
  const NodeId n = g.node_count();
  if (walk_length == 0)
    throw std::invalid_argument("run_known_tmix_election: walk_length >= 1");

  KnownTmixResult res;
  Rng root(params.seed);
  Rng id_rng = root.fork(0x1d5);
  Rng coin_rng = root.fork(0xc01);
  Rng walk_rng = root.fork(0x3a1);

  std::vector<std::uint64_t> rid(n);
  const std::uint64_t space = params.id_space(n);
  for (NodeId v = 0; v < n; ++v) rid[v] = id_rng.next_in(1, space);

  const double pc = params.contender_probability(n);
  for (NodeId v = 0; v < n; ++v)
    if (coin_rng.next_bool(pc)) res.contenders.push_back(v);
  if (res.contenders.empty()) return res;

  Network net(g, congest_config_for(params, n));
  for (const NodeId v : res.contenders) net.note_contender(v);
  WalkEngine engine(g, net, walk_rng,
                    {params.lazy_walks, params.coalesce_tokens});

  std::vector<WalkOrder> orders;
  const std::uint64_t walks = params.walk_count(n);
  for (const NodeId v : res.contenders)
    orders.push_back({v, walks, walk_length});
  engine.run_walk_stage(orders);

  // One convergecast: each proxy reports the other contenders it serves.
  const ProxyPayloadFn payload = [&](NodeId proxy, NodeId origin,
                                     std::uint64_t /*units*/,
                                     ReplyPayload& p) {
    p.proxy_nodes = 1;
    for (const auto& [x, cnt] : engine.registrations(proxy))
      if (x != origin) p.add_id(rid[x]);
  };
  std::vector<std::pair<NodeId, std::uint64_t>> adjacency_max;
  WalkEvents events;
  auto react = [&]() {
    for (const WalkEvent& ev : events) {
      if (ev.kind != WalkEvent::Kind::kConvergecastDone) continue;
      // Crash-stop: a dead contender makes no leadership decision, even if
      // its convergecast completed locally (walks that stayed home).
      if (!net.node_up(ev.origin)) continue;
      const IdSpan ids = events.ids(ev);
      adjacency_max.emplace_back(ev.origin, ids.empty() ? 0 : ids.back());
    }
    events.clear();
  };
  engine.begin_convergecast(res.contenders, payload, events);
  react();
  net.run_until_idle([&](const Delivery& d) {
    engine.handle(d, events);
    react();
  });

  for (const auto& [v, max_adj] : adjacency_max)
    if (rid[v] > max_adj) res.leaders.push_back(v);
  std::sort(res.leaders.begin(), res.leaders.end());

  res.rounds = net.metrics().rounds;
  res.totals = net.metrics();
  res.faults = net.fault_outcome();
  return res;
}

std::uint32_t scaled_walk_length(double multiplier, std::uint64_t tmix) {
  const double scaled = multiplier * static_cast<double>(tmix);
  return static_cast<std::uint32_t>(
      std::min<double>(std::max(1.0, scaled), double{1u << 24}));
}

namespace {

class KnownTmixAlgorithm final : public Algorithm {
 public:
  std::string name() const override { return "known_tmix"; }
  std::string describe() const override {
    return "election with a-priori tmix [25]: fixed walk length "
           "c3 * tmix (tmix from options.tmix_hint or an offline oracle)";
  }
  Kind kind() const override { return Kind::kElection; }
  std::string caveat() const override {
    return "assumes a tmix oracle (the knowledge the paper removes)";
  }
  RunResult run(const Graph& g, const RunOptions& options) const override {
    // The oracle estimate is computed offline (centralized) and costs no
    // messages — that is exactly the foreknowledge the paper dispenses with.
    std::uint64_t tmix = options.tmix_hint;
    if (tmix == 0) {
      Rng rng(options.seed() ^ 0x731Aull);
      tmix = mixing_time_estimate(g, 2, rng, 1u << 16);
    }
    const std::uint32_t walk_length =
        scaled_walk_length(options.tmix_multiplier, tmix);
    const KnownTmixResult r =
        run_known_tmix_election(g, walk_length, options.params);
    RunResult out;
    out.algorithm = name();
    out.leaders = r.leaders;
    out.rounds = r.rounds;
    out.totals = r.totals;
    out.success = r.success();
    out.faults = r.faults;
    out.extras["walk_length"] = static_cast<double>(walk_length);
    out.extras["tmix_oracle"] = static_cast<double>(tmix);
    out.extras["contenders"] = static_cast<double>(r.contenders.size());
    return out;
  }
};

}  // namespace

std::unique_ptr<Algorithm> make_known_tmix_algorithm() {
  return std::make_unique<KnownTmixAlgorithm>();
}

}  // namespace wcle
