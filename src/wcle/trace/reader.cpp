#include "wcle/trace/reader.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace wcle {

namespace {

// ------------------------------------------ targeted header-line parsing

/// Position just past `"key":` in `line`, or npos. Keys are unique within
/// the header line and string values escape their quotes, so plain
/// substring search is exact.
std::size_t value_pos(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  return at == std::string::npos ? std::string::npos : at + needle.size();
}

bool field_u64(const std::string& line, const std::string& key,
               std::uint64_t& out) {
  std::size_t at = value_pos(line, key);
  if (at == std::string::npos) return false;
  std::uint64_t v = 0;
  bool any = false;
  while (at < line.size() && line[at] >= '0' && line[at] <= '9') {
    const auto digit = static_cast<std::uint64_t>(line[at] - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;  // would wrap
    v = v * 10 + digit;
    ++at;
    any = true;
  }
  if (!any) return false;
  out = v;
  return true;
}

std::uint64_t require_u64(const std::string& line, const std::string& key) {
  std::uint64_t v = 0;
  if (!field_u64(line, key, v))
    throw std::runtime_error("trace: line missing numeric field '" + key +
                             "': " + line);
  return v;
}

bool field_str(const std::string& line, const std::string& key,
               std::string& out) {
  std::size_t at = value_pos(line, key);
  if (at == std::string::npos || at >= line.size() || line[at] != '"')
    return false;
  ++at;
  std::string v;
  while (at < line.size() && line[at] != '"') {
    char c = line[at];
    if (c == '\\' && at + 1 < line.size()) {
      const char esc = line[at + 1];
      at += 2;
      switch (esc) {
        case '"': v += '"'; break;
        case '\\': v += '\\'; break;
        case 'n': v += '\n'; break;
        case 'r': v += '\r'; break;
        case 't': v += '\t'; break;
        case 'u': {
          // The writer only emits \u00XX (control characters).
          const auto hex = [](unsigned char d) { return std::isxdigit(d); };
          if (at + 4 > line.size() ||
              !std::all_of(line.begin() + at, line.begin() + at + 4, hex))
            throw std::runtime_error("trace: \\u escape without 4 hex "
                                     "digits in field '" + key + "': " + line);
          v += static_cast<char>(std::stoul(line.substr(at, 4), nullptr, 16));
          at += 4;
          break;
        }
        default: v += esc; break;
      }
      continue;
    }
    v += c;
    ++at;
  }
  if (at >= line.size())
    throw std::runtime_error("trace: unterminated string field '" + key +
                             "': " + line);
  out = std::move(v);
  return true;
}

std::string require_str(const std::string& line, const std::string& key) {
  std::string v;
  if (!field_str(line, key, v))
    throw std::runtime_error("trace: line missing string field '" + key +
                             "': " + line);
  return v;
}

TraceHeader header_from_line(const std::string& line) {
  TraceHeader h;
  const std::uint64_t version = require_u64(line, "version");
  // v1 is a strict subset of v2 (no walk_hop records), so every supported
  // version parses with one reader.
  if (version < kTraceVersionMin || version > kTraceVersion)
    throw std::runtime_error("trace: unsupported version " +
                             std::to_string(version));
  h.version = static_cast<std::uint32_t>(version);
  h.tool = require_str(line, "tool");
  h.spec = require_str(line, "spec");
  return h;
}

// -------------------------------------------------------- record parsing

class Cursor {
 public:
  Cursor(const std::string& data, std::size_t at)
      : data_(&data), at_(at) {}

  bool done() const { return at_ >= data_->size(); }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>((*data_)[at_++]);
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(uint_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(uint_le(4)); }
  std::uint64_t u64() { return uint_le(8); }

  std::string str() {
    const std::uint16_t len = u16();
    need(len);
    std::string s = data_->substr(at_, len);
    at_ += len;
    return s;
  }

 private:
  void need(std::size_t bytes) const {
    if (at_ + bytes > data_->size())
      throw std::runtime_error("trace: truncated record");
  }
  std::uint64_t uint_le(int bytes) {
    need(static_cast<std::size_t>(bytes));
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>((*data_)[at_ + i]))
           << (8 * i);
    at_ += static_cast<std::size_t>(bytes);
    return v;
  }

  const std::string* data_;
  std::size_t at_;
};

/// Checks the magic and parses the embedded header line; `records` receives
/// the offset of the first record.
TraceHeader header_at_front(const std::string& contents, std::size_t& records) {
  if (contents.size() < 8 || std::memcmp(contents.data(), kTraceMagic, 8) != 0)
    throw std::runtime_error("trace: missing the WCLETR01 magic");
  Cursor cur(contents, 8);
  const std::uint32_t header_len = cur.u32();
  if (12 + static_cast<std::size_t>(header_len) > contents.size())
    throw std::runtime_error("trace: truncated header");
  records = 12 + header_len;
  return header_from_line(contents.substr(12, header_len));
}

TraceRunData& current_run(TraceFileData& data, const char* record) {
  if (data.runs.empty())
    throw std::runtime_error(std::string("trace: ") + record +
                             " record before any run");
  return data.runs.back();
}

}  // namespace

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TraceHeader parse_trace_header(const std::string& contents) {
  std::size_t records = 0;
  return header_at_front(contents, records);
}

TraceFileData parse_trace(const std::string& contents) {
  TraceFileData data;
  std::size_t records = 0;
  data.header = header_at_front(contents, records);
  Cursor rec(contents, records);
  while (!rec.done()) {
    const std::uint8_t tag = rec.u8();
    if (tag == kTraceRecRun) {
      TraceRunData run;
      run.meta.run = rec.u64();
      run.meta.cell = rec.u64();
      run.meta.trial = rec.u64();
      run.meta.seed = rec.u64();
      run.meta.n = rec.u64();
      run.meta.algorithm = rec.str();
      run.meta.family = rec.str();
      data.runs.push_back(std::move(run));
    } else if (tag == kTraceRecRound) {
      TraceRunData& run = current_run(data, "round");
      TraceRound r;
      r.round = rec.u64();
      r.sends = rec.u32();
      r.quanta = rec.u32();
      r.delivered = rec.u32();
      r.dropped_rand = rec.u32();
      r.dropped_crash = rec.u32();
      r.dropped_link = rec.u32();
      r.backlog = rec.u32();
      run.rounds.push_back(r);
    } else if (tag == kTraceRecEvent) {
      TraceRunData& run = current_run(data, "event");
      TraceEvent e;
      e.round = rec.u64();
      const std::uint8_t kind = rec.u8();
      if (kind > static_cast<std::uint8_t>(TraceEventKind::kPhase))
        throw std::runtime_error("trace: unknown event kind " +
                                 std::to_string(kind));
      e.kind = static_cast<TraceEventKind>(kind);
      e.a = rec.u64();
      e.b = rec.u64();
      e.label = rec.str();
      run.events.push_back(std::move(e));
    } else if (tag == kTraceRecRunEnd) {
      // Rows and events are re-derivable; only the declared quanta total is
      // kept — it bills rounds a --trace-every sampling dropped, which the
      // summarize pass needs to report sampled traces honestly.
      rec.u64();
      rec.u64();
      const std::uint64_t quanta = rec.u64();
      if (!data.runs.empty()) data.runs.back().declared_quanta = quanta;
    } else if (tag == kTraceRecEnd) {
      data.declared_runs = rec.u64();
    } else if (tag == kTraceRecWalkHop) {
      TraceRunData& run = current_run(data, "walk_hop");
      TraceWalkHop h;
      h.round = rec.u64();
      h.origin = rec.u32();
      h.src = rec.u32();
      h.dst = rec.u32();
      h.count = rec.u32();
      h.tag = rec.u8();
      run.hops.push_back(h);
    } else {
      throw std::runtime_error("trace: unknown record tag " +
                               std::to_string(tag));
    }
  }
  return data;
}

TraceFileData read_trace_file(const std::string& path) {
  return parse_trace(read_file_bytes(path));
}

}  // namespace wcle
