// Tunable constants of the leader-election algorithm (Section 3). The paper
// leaves c1 ("sufficiently large"), c2 (>= 2) and the congestion padding as
// constants; they are exposed here so experiments can ablate them. All
// logarithms are base 2.
#pragma once

#include <cstdint>

#include "wcle/fault/plan.hpp"
#include "wcle/graph/graph.hpp"

namespace wcle {

class TraceRecorder;

struct ElectionParams {
  /// Contender sampling rate multiplier: Pr[contender] = c1 * log2(n) / n.
  double c1 = 4.0;
  /// Walk-count multiplier: each contender runs ceil(c2 * sqrt(n log2 n))
  /// parallel walks. The paper requires c2 >= 2.
  double c2 = 2.0;
  /// First guess for the walk length t_u.
  std::uint32_t initial_length = 1;
  /// Cap on guess-and-double iterations (engineering guard; the algorithm
  /// stops by t_u = O(tmix) w.h.p. long before this).
  std::uint32_t max_phases = 30;
  /// Cap on t_u (0 = choose 8*n^2 clamped to 2^24, enough for any connected
  /// graph since tmix = O(n^2 log n) in the worst case at our scales).
  std::uint32_t max_length = 0;
  /// Use the O(log^3 n)-bit message regime of Lemma 12's second bound.
  bool wide_messages = false;
  /// Custom per-edge bandwidth in bits; 0 = derive from the regime
  /// (standard, or wide when wide_messages is set). Lets sweeps chart the
  /// Lemma 12 bandwidth axis beyond the two named regimes.
  std::uint32_t bandwidth_bits = 0;
  /// Fault axis: probability that a fully-transmitted CONGEST message is
  /// lost instead of delivered (seeded from `seed`, so faulty runs stay
  /// reproducible). 0 = the paper's reliable model.
  double drop_probability = 0.0;
  /// Structured fault axis: crash-stop schedule, link failures, churn, and
  /// the adversary strategy (fault/plan.hpp). Like drop_probability this
  /// rides into CongestConfig via congest_config_for, so every protocol
  /// funnels through one fault model; faults.seed = 0 derives the fault
  /// stream from `seed`.
  FaultPlan faults;
  /// Ablation (tests/test_ablations.cpp, NonLazy*): lazy walks (paper) vs
  /// non-lazy. Non-lazy walks carry a parity trap on bipartite graphs and
  /// break stopping there.
  bool lazy_walks = true;
  /// Ablation (tests/test_ablations.cpp, Coalescing* and
  /// ElectionWithNaiveTokensCostsMore): token coalescing (paper) vs naive
  /// per-walk tokens; changes message accounting only.
  bool coalesce_tokens = true;
  /// Execute the paper's literal lockstep schedule: every sub-phase is padded
  /// to its full congestion-safe duration (walk: T, exchanges: 3T, winner
  /// wait: 2T, T = (25/16) c1 t_u log^2 n). Message counts are unchanged;
  /// measured rounds become exactly the scheduled bound. Default false: run
  /// each sub-phase to quiescence and *assert* it fits inside T.
  bool paper_schedule = false;
  /// Opt-in per-round event recorder (trace/recorder.hpp); rides into
  /// CongestConfig via congest_config_for so every Network a protocol (or a
  /// composition of protocols) drives appends to one timeline. Null = off.
  /// Purely observational — never changes results.
  TraceRecorder* trace = nullptr;
  /// Sampled tracing: record every K-th round row (events are always kept),
  /// making traced large-scale sweeps cheap. 1 = record every round. Rides
  /// into CongestConfig::trace_every via congest_config_for; purely
  /// observational like `trace` itself.
  std::uint32_t trace_every = 1;
  /// Per-walk token tracing (schema v2): record a walk_hop for every
  /// delivered walk-token message whose origin id is on the K-grid
  /// (origin % K == 0; K = 1 records every walk). 0 = off (the default).
  /// Rides into CongestConfig::trace_walks via congest_config_for; requires
  /// `trace` to be wired and is purely observational like it.
  std::uint32_t trace_walks = 0;
  /// Root seed; all ids, coin flips, and walks derive from it.
  std::uint64_t seed = 1;

  double log2_n(NodeId n) const;
  double contender_probability(NodeId n) const;
  std::uint64_t walk_count(NodeId n) const;
  /// Intersection property threshold: ceil((3/4) c1 log2 n) adjacent others.
  std::uint64_t intersection_threshold(NodeId n) const;
  /// Distinctness property threshold: ceil((c2/2) sqrt(n log2 n)).
  std::uint64_t distinct_threshold(NodeId n) const;
  /// Effective t_u cap (resolves the max_length=0 default).
  std::uint32_t effective_max_length(NodeId n) const;
  /// The paper's congestion-padded sub-phase duration
  /// T = (25/16) c1 t log2^2 n.
  std::uint64_t scheduled_T(NodeId n, std::uint32_t t) const;
  /// Random node ids are drawn uniformly from [1, id_space(n)] ~ n^4.
  std::uint64_t id_space(NodeId n) const;
};

struct CongestConfig;

/// The CONGEST transport configuration one run of any protocol should use:
/// bandwidth from `bandwidth_bits` (custom) or the regime default
/// (wide/standard per `wide_messages`), fault fields from `drop_probability`
/// with the drop stream seeded from `seed`. Every adapter and core protocol
/// funnels through this so the bandwidth and fault axes apply uniformly.
CongestConfig congest_config_for(const ElectionParams& params, NodeId n);

}  // namespace wcle
