#include "wcle/trace/recorder.hpp"

namespace wcle {

const char* trace_event_kind_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSegment: return "segment";
    case TraceEventKind::kCrash: return "crash";
    case TraceEventKind::kLinkDown: return "link_down";
    case TraceEventKind::kChurnOut: return "churn_out";
    case TraceEventKind::kChurnIn: return "churn_in";
    case TraceEventKind::kContender: return "contender";
    case TraceEventKind::kPhase: return "phase";
  }
  return "unknown";
}

namespace {
/// Initial hop-buffer capacity: one warm chunk big enough that short runs
/// never grow it, small enough to be free when walk tracing is off (the
/// vector stays unallocated until set_trace_walks enables the stream).
constexpr std::size_t kWalkHopReserve = 1 << 14;
}  // namespace

void TraceRecorder::set_trace_walks(std::uint32_t every) {
  walks_every_ = every;
  if (every != 0 && hops_.capacity() == 0) hops_.reserve(kWalkHopReserve);
}

void TraceRecorder::on_walk_hop(std::uint64_t round, std::uint32_t origin,
                                std::uint32_t src, std::uint32_t dst,
                                std::uint32_t count, std::uint8_t tag) {
  if (walks_every_ == 0) return;
  if (walks_every_ > 1 && origin % walks_every_ != 0) return;
  const TraceWalkHop hop{offset_ + round, origin, src, dst, count, tag};
  // Capacity-guarded cold growth: the buffer is pre-sized by
  // set_trace_walks, so a traced walk stage's steady state never reaches
  // the allocator; doubling happens O(log hops) times.
  if (hops_.size() == hops_.capacity()) {
    hops_.reserve(hops_.capacity() == 0 ? kWalkHopReserve
                                        : hops_.capacity() * 2);
    hops_.push_back(hop);
    return;
  }
  hops_.push_back(hop);
}

void TraceRecorder::begin_segment() {
  offset_ = frontier();
  events_.push_back(
      {offset_ + 1, TraceEventKind::kSegment, segments_, 0, ""});
  segments_ += 1;
}

void TraceRecorder::close_row() {
  TraceRound& r = rounds_.back();
  total_quanta_ += r.quanta;
  last_round_ = r.round;
  // Sampling: drop rows off the K-grid. K = 1 keeps everything, which makes
  // rounds_ byte-for-byte the pre-sampling row set.
  if (every_ > 1 && r.round % every_ != 0) rounds_.pop_back();
  open_ = false;
}

TraceRound& TraceRecorder::row(std::uint64_t local_round) {
  const std::uint64_t absolute = offset_ + local_round;
  // Rounds advance one step() at a time, but sends can announce the upcoming
  // round before its step runs — open rows up to the requested index,
  // closing (and sampling) everything the cursor passes.
  if (open_ && rounds_.back().round >= absolute) return rounds_.back();
  for (;;) {
    if (open_) {
      if (rounds_.back().round >= absolute) return rounds_.back();
      close_row();
    }
    TraceRound r;
    r.round = last_round_ == 0 ? absolute : last_round_ + 1;
    rounds_.push_back(r);
    open_ = true;
  }
}

void TraceRecorder::on_round(std::uint64_t round, std::uint32_t quanta,
                             std::uint32_t delivered,
                             std::uint32_t dropped_rand,
                             std::uint32_t dropped_crash,
                             std::uint32_t dropped_link,
                             std::uint32_t backlog) {
  TraceRound& r = row(round);
  r.quanta += quanta;
  r.delivered += delivered;
  r.dropped_rand += dropped_rand;
  r.dropped_crash += dropped_crash;
  r.dropped_link += dropped_link;
  r.backlog = backlog;
  // A round's step() is the only writer of its row (later hooks only touch
  // later rounds) — close it so sampling applies immediately.
  close_row();
}

void TraceRecorder::event(std::uint64_t round, TraceEventKind kind,
                          std::uint64_t a, std::uint64_t b,
                          std::string label) {
  events_.push_back({offset_ + round, kind, a, b, std::move(label)});
}

void TraceRecorder::annotate(std::string label, std::uint64_t value) {
  const std::uint64_t at = frontier() == 0 ? 1 : frontier() + 1;
  events_.push_back({at, TraceEventKind::kPhase, value, 0, std::move(label)});
}

const std::vector<TraceRound>& TraceRecorder::rounds() const {
  // A trailing open row (a send announced for a round whose step never ran)
  // already sits at the back of rounds_ — nothing to materialize.
  return rounds_;
}

std::uint64_t TraceRecorder::total_quanta() const {
  // total_quanta_ counts closed rounds (sampled away or not); an open
  // trailing row has not been billed yet.
  return total_quanta_ + (open_ ? rounds_.back().quanta : 0);
}

void TraceRecorder::clear() {
  rounds_.clear();
  events_.clear();
  hops_.clear();
  open_ = false;
  last_round_ = 0;
  total_quanta_ = 0;
  offset_ = 0;
  segments_ = 0;
}

}  // namespace wcle
