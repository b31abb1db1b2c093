// Reader for the trace framing (writer.hpp): enough for the replay verifier
// to pull the header out of a trace and for the summarize and obs passes to
// reload full timelines. The embedded header line is parsed by a minimal
// reader that understands exactly the shape trace_header_line emits, so no
// JSON library enters the build. Malformed input — a missing magic, an
// unknown record tag or event kind, a truncated record, a bad header
// escape — throws std::runtime_error("trace: ...").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wcle/trace/writer.hpp"

namespace wcle {

/// One reloaded run: meta plus its timeline.
struct TraceRunData {
  TraceRunMeta meta;
  std::vector<TraceRound> rounds;
  std::vector<TraceEvent> events;
  std::vector<TraceWalkHop> hops;  ///< schema v2 (`--trace-walks`), else empty
  /// The run_end record's quanta total: bills ALL rounds, including rows a
  /// --trace-every sampling dropped (0 for a truncated trace).
  std::uint64_t declared_quanta = 0;
};

/// A fully reloaded trace file.
struct TraceFileData {
  TraceHeader header;
  std::vector<TraceRunData> runs;
  std::uint64_t declared_runs = 0;  ///< the trailer's run count
};

/// Reads the whole file into a string (binary-safe). Throws
/// std::runtime_error when the file cannot be opened.
std::string read_file_bytes(const std::string& path);

/// Extracts just the header from raw trace bytes. Throws std::runtime_error
/// on malformed input or a version the reader does not understand.
TraceHeader parse_trace_header(const std::string& contents);

/// Fully parses raw trace bytes.
TraceFileData parse_trace(const std::string& contents);

/// read_file_bytes + parse_trace.
TraceFileData read_trace_file(const std::string& path);

}  // namespace wcle
