// The replay verifier: turns the repo's determinism guarantee into a
// checkable artifact. A trace header carries a grid-grammar spec whose sweep
// expansion regenerates every recorded run; verify_replay re-executes the
// spec with a fresh writer and byte-compares the regenerated stream against
// the file. Any nondeterminism anywhere in the stack — graph build, protocol
// randomness, fault injection, transport service order, serialization —
// shows up as a first-difference offset, and the diff mode decodes the first
// *record* (run meta, round row, event, or walk hop) that disagrees, so
// drift reads as "run 3, round 214: quanta 12 vs 11" instead of a raw byte
// offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "wcle/trace/writer.hpp"

namespace wcle {

struct ReplayReport {
  bool ok = false;
  TraceHeader header;
  std::uint64_t runs = 0;  ///< runs regenerated (cells x trials)
  std::size_t original_bytes = 0;
  std::size_t regenerated_bytes = 0;
  /// Byte offset of the first mismatch (only meaningful when !ok).
  std::size_t first_difference = 0;
  /// One-line human-readable outcome.
  std::string detail;
  /// Decoded first differing record (multi-line; only filled when !ok and
  /// diff decoding was requested and both streams still parse).
  std::string diff;
};

/// Re-executes the run(s) described by the trace at `path` and checks the
/// regenerated timeline is byte-identical. `threads` feeds the sweep worker
/// pool (0 = hardware concurrency) — the regenerated bytes are identical for
/// any value. With `diff` set, a mismatch additionally parses both streams
/// and decodes the first differing record into ReplayReport::diff. Throws
/// std::runtime_error on unreadable/malformed traces and
/// std::invalid_argument when the embedded spec no longer parses.
ReplayReport verify_replay(const std::string& path, unsigned threads = 0,
                           bool diff = false);

}  // namespace wcle
