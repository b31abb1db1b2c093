// Timeline writer: serializes a TraceRecorder's per-round rows, discrete
// events and walk hops to a trace file in one compact little-endian framing:
// the magic "WCLETR01", a u32 length and the JSON header line
// (trace_header_line) verbatim, then one-byte-tagged fixed-width records —
// for each run a `run` meta record, `round`/`event`/`walk_hop` records merged
// in round order, and a `run_end` summary; a final `trace_end` trailer. The
// record layout is documented in README.md ("Tracing & replay").
//
// The rendering is a byte-deterministic function of the recorded data: the
// replay verifier (replay.hpp) regenerates a trace from its header and
// byte-compares, so the writer must never emit anything time- or
// environment-dependent.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "wcle/trace/recorder.hpp"

namespace wcle {

// Version history:
//   1 — header/run/round/event/run_end/trace_end.
//   2 — adds the optional `walk_hop` record stream (`--trace-walks`); every
//       v1 record shape is unchanged, so v1 traces parse and replay
//       byte-identically (replay regenerates with the parsed header's own
//       version, and walk_hop records only exist when the trace-walks knob
//       rides in the header spec).
inline constexpr std::uint32_t kTraceVersion = 2;
/// Oldest header version the reader still accepts.
inline constexpr std::uint32_t kTraceVersionMin = 1;
/// First 8 bytes of a trace (no terminating NUL on the wire).
inline constexpr char kTraceMagic[] = "WCLETR01";
/// Record tags: one byte before each fixed-width record.
inline constexpr std::uint8_t kTraceRecRun = 1;
inline constexpr std::uint8_t kTraceRecRound = 2;
inline constexpr std::uint8_t kTraceRecEvent = 3;
inline constexpr std::uint8_t kTraceRecRunEnd = 4;
inline constexpr std::uint8_t kTraceRecEnd = 5;
inline constexpr std::uint8_t kTraceRecWalkHop = 6;  // schema v2

/// The replayable identity of a trace file: `spec` is a grid-grammar line
/// (scenario.hpp) whose sweep expansion regenerates every recorded run;
/// `tool` records which CLI surface produced the trace (run/trials/sweep).
struct TraceHeader {
  std::uint32_t version = kTraceVersion;
  std::string tool;
  std::string spec;
};

/// Identity of one recorded run inside a trace file. Runs are ordered
/// cell-major, trial-minor; `run` is the global ordinal.
struct TraceRunMeta {
  std::uint64_t run = 0;
  std::uint64_t cell = 0;
  std::uint64_t trial = 0;
  std::uint64_t seed = 0;
  std::uint64_t n = 0;  ///< actual node count after family snapping
  std::string algorithm;
  std::string family;
  bool operator==(const TraceRunMeta&) const = default;
};

class TraceWriter {
 public:
  virtual ~TraceWriter() = default;
  virtual void header(const TraceHeader& h) = 0;
  virtual void begin_run(const TraceRunMeta& meta) = 0;
  virtual void round(const TraceRound& r) = 0;
  virtual void event(const TraceEvent& e) = 0;
  /// Schema v2 walk-token record; defaulted so v1-era writers stay valid.
  virtual void walk_hop(const TraceWalkHop& h) { (void)h; }
  virtual void end_run(std::uint64_t rounds, std::uint64_t events,
                       std::uint64_t quanta) = 0;
  virtual void finish(std::uint64_t runs) = 0;
};

class BinaryTraceWriter final : public TraceWriter {
 public:
  explicit BinaryTraceWriter(std::ostream& out) : out_(&out) {}
  void header(const TraceHeader& h) override;
  void begin_run(const TraceRunMeta& meta) override;
  void round(const TraceRound& r) override;
  void event(const TraceEvent& e) override;
  void walk_hop(const TraceWalkHop& h) override;
  void end_run(std::uint64_t rounds, std::uint64_t events,
               std::uint64_t quanta) override;
  void finish(std::uint64_t runs) override;

 private:
  std::ostream* out_;
};

/// The one trace framing; the factory below keeps writers pluggable.
enum class TraceFormat { kBinary };

std::unique_ptr<TraceWriter> make_trace_writer(TraceFormat format,
                                               std::ostream& out);

/// The JSON header line for `h` (without trailing newline), embedded
/// verbatim after the magic.
std::string trace_header_line(const TraceHeader& h);

/// Streams one recorded run through `w`: the meta line, then rounds, events,
/// and walk hops merged in round order (events, then hops, precede the row
/// that closes their round), then the run summary.
void write_run(TraceWriter& w, const TraceRunMeta& meta,
               const TraceRecorder& rec);

}  // namespace wcle
