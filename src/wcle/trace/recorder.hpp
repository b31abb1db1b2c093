// Per-round event recorder — the opt-in observability spine of the trace
// subsystem. A TraceRecorder is handed to the transport through
// `CongestConfig::trace` (protocols inherit it via `ElectionParams::trace`
// and congest_config_for); when the pointer is null the hot path pays a
// single predictable branch and records nothing.
//
// The recorder accumulates two streams for ONE protocol run:
//   - rows:   one TraceRound per transport round (sends, quanta served,
//             deliveries, drops by cause, end-of-round backlog), and
//   - events: discrete happenings (crashes, link failures, churn, contender
//             announcements, protocol phase transitions).
//
// Sampled tracing: set_sample_every(K) keeps only every K-th round row
// (absolute round % K == 0) while events are always kept, so traced scale-2
// sweeps pay 1/K of the row memory and bytes. K = 1 (the default) records
// every round and is byte-for-byte the pre-sampling format. total_quanta()
// always sums over ALL rounds, sampled away or not.
//
// Composed protocols (explicit election = election + broadcast) drive several
// Networks in sequence; each Network opens a *segment* and the recorder
// rebases its network-local round numbers onto one absolute timeline, so a
// trace reads as a single run even across sub-protocols. Recording draws no
// randomness and never feeds back into the execution — a traced run is
// bit-identical to the untraced one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wcle {

enum class TraceEventKind : std::uint8_t {
  kSegment = 0,    ///< a new Network attached (a = segment ordinal)
  kCrash = 1,      ///< node a crash-stopped
  kLinkDown = 2,   ///< undirected link (a, b) failed
  kChurnOut = 3,   ///< node a churned out
  kChurnIn = 4,    ///< node a rejoined
  kContender = 5,  ///< node a announced itself a contender/candidate
  kPhase = 6,      ///< protocol phase transition (label + value a)
};

/// Stable name ("crash", "link_down", ...) used by replay --diff and the
/// Perfetto export.
const char* trace_event_kind_name(TraceEventKind kind);

/// One transport round on the absolute timeline.
struct TraceRound {
  std::uint64_t round = 0;          ///< absolute round (1-based)
  std::uint32_t sends = 0;          ///< logical send() calls enqueued
  std::uint32_t quanta = 0;         ///< B-bit transmissions served
  std::uint32_t delivered = 0;      ///< messages delivered
  std::uint32_t dropped_rand = 0;   ///< random-drop losses
  std::uint32_t dropped_crash = 0;  ///< crash-stop losses (incl. muted sends)
  std::uint32_t dropped_link = 0;   ///< failed-link losses
  std::uint32_t backlog = 0;        ///< directed edges still busy at round end
  bool operator==(const TraceRound&) const = default;
};

/// One discrete event. `a`/`b` are kind-specific operands (see
/// TraceEventKind); `label` names phase transitions.
struct TraceEvent {
  std::uint64_t round = 0;  ///< absolute round the event took effect in
  TraceEventKind kind = TraceEventKind::kSegment;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::string label;
  bool operator==(const TraceEvent&) const = default;
};

/// One walk-token delivery (schema v2, `--trace-walks`): a coalesced token
/// message for walk origin `origin` crossed directed edge `src -> dst` in
/// `round`, carrying `count` walkers under transport tag `tag`. One record
/// per delivered token message, so at `--trace-walks=1` the record count of
/// a run reconciles exactly with `congest_messages_by_tag[tag]`.
struct TraceWalkHop {
  std::uint64_t round = 0;   ///< absolute round of the delivery
  std::uint32_t origin = 0;  ///< walk origin node id
  std::uint32_t src = 0;     ///< sending endpoint of the directed edge
  std::uint32_t dst = 0;     ///< receiving endpoint
  std::uint32_t count = 0;   ///< coalesced walker multiplicity
  std::uint8_t tag = 0;      ///< transport tag (kTagWalkToken)
  bool operator==(const TraceWalkHop&) const = default;
};

class TraceRecorder {
 public:
  /// Keep every `every`-th round row (1 or 0 = all rows, the default).
  /// Applied by the Network constructor from CongestConfig::trace_every;
  /// changing it mid-run only affects rows closed afterwards.
  void set_sample_every(std::uint32_t every) {
    every_ = every == 0 ? 1 : every;
  }
  std::uint32_t sample_every() const noexcept { return every_; }

  /// Enables per-walk token tracing: keep hop records for walk origins with
  /// `origin % K == 0` (K = 1 records every walk; 0 = off, the default).
  /// Sampling by origin — not by round — keeps every sampled walk's path
  /// complete, which the per-walk summary pass depends on. Applied by the
  /// Network constructor from CongestConfig::trace_walks; pre-sizes the hop
  /// buffer so the steady state of a traced run stays allocation-free.
  void set_trace_walks(std::uint32_t every);
  std::uint32_t trace_walks() const noexcept { return walks_every_; }

  /// Called by each Network constructor: subsequent network-local rounds are
  /// rebased past everything recorded so far, and a kSegment event marks the
  /// boundary.
  void begin_segment();

  /// Transport hooks; `round` is network-local (the current segment's count).
  void on_send(std::uint64_t round) { row(round).sends += 1; }
  void on_muted_send(std::uint64_t round) { row(round).dropped_crash += 1; }
  /// End-of-round flush: the per-cause deltas of one step() call. Closes the
  /// row — a step() is the only writer of its round, so the row is final.
  void on_round(std::uint64_t round, std::uint32_t quanta,
                std::uint32_t delivered, std::uint32_t dropped_rand,
                std::uint32_t dropped_crash, std::uint32_t dropped_link,
                std::uint32_t backlog);

  /// Records a discrete event at network-local `round`. Events are never
  /// sampled away.
  void event(std::uint64_t round, TraceEventKind kind, std::uint64_t a,
             std::uint64_t b = 0, std::string label = "");

  /// Records one walk-token delivery at network-local `round` (the walk
  /// engine's hook; a no-op unless set_trace_walks enabled the stream and
  /// `origin` is on the sampling grid). Called on the walk engine's delivery
  /// path, whose zero-allocation contract the WalkEngineAlloc tests hold
  /// with tracing off: growth here is capacity-guarded cold-path only.
  void on_walk_hop(std::uint64_t round, std::uint32_t origin,
                   std::uint32_t src, std::uint32_t dst, std::uint32_t count,
                   std::uint8_t tag);

  /// The kept hop records, in delivery order (round-major). Independent of
  /// the row sampling grid: `--trace-every` thins rows, not hops.
  const std::vector<TraceWalkHop>& walk_hops() const { return hops_; }

  /// Protocol-level annotation between networks (no local round available):
  /// lands one past the last recorded absolute round.
  void annotate(std::string label, std::uint64_t value);

  /// The kept rows (all rounds at K = 1, every K-th otherwise). Flushes a
  /// trailing open row (a send announced for a round whose step never ran),
  /// so call after the run — matching the pre-sampling row set exactly.
  const std::vector<TraceRound>& rounds() const;
  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t segments() const { return segments_; }

  /// Total quanta over ALL rounds (the run's congest-message bill),
  /// including rows a K > 1 sampling dropped.
  std::uint64_t total_quanta() const;

  void clear();

 private:
  TraceRound& row(std::uint64_t local_round);
  void close_row();
  /// Highest absolute round observed so far (open row included).
  std::uint64_t frontier() const noexcept {
    return open_ ? rounds_.back().round : last_round_;
  }

  std::vector<TraceRound> rounds_;
  std::vector<TraceEvent> events_;
  std::vector<TraceWalkHop> hops_;
  bool open_ = false;           ///< rounds_.back() is an unflushed open row
  std::uint64_t last_round_ = 0;  ///< highest absolute round closed
  std::uint64_t total_quanta_ = 0;
  std::uint32_t every_ = 1;
  std::uint32_t walks_every_ = 0;  ///< 0 = walk tracing off
  std::uint64_t offset_ = 0;  ///< absolute round of the segment's local 0
  std::uint64_t segments_ = 0;
};

}  // namespace wcle
