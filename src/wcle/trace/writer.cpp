#include "wcle/trace/writer.hpp"

#include <ostream>
#include <sstream>

#include "wcle/support/json.hpp"

namespace wcle {

std::string trace_header_line(const TraceHeader& h) {
  std::ostringstream out;
  out << "{\"type\":\"header\",\"version\":" << h.version << ",\"tool\":\""
      << json_escape(h.tool) << "\",\"spec\":\"" << json_escape(h.spec)
      << "\"}";
  return out.str();
}

namespace {

void put_u8(std::ostream& out, std::uint8_t v) {
  out.put(static_cast<char>(v));
}

void put_u16(std::ostream& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u32(std::ostream& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::ostream& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_str(std::ostream& out, const std::string& s) {
  const std::uint16_t len =
      static_cast<std::uint16_t>(s.size() > 0xffff ? 0xffff : s.size());
  put_u16(out, len);
  out.write(s.data(), len);
}

}  // namespace

void BinaryTraceWriter::header(const TraceHeader& h) {
  out_->write(kTraceMagic, 8);
  const std::string line = trace_header_line(h);
  put_u32(*out_, static_cast<std::uint32_t>(line.size()));
  out_->write(line.data(), static_cast<std::streamsize>(line.size()));
}

void BinaryTraceWriter::begin_run(const TraceRunMeta& m) {
  put_u8(*out_, kTraceRecRun);
  put_u64(*out_, m.run);
  put_u64(*out_, m.cell);
  put_u64(*out_, m.trial);
  put_u64(*out_, m.seed);
  put_u64(*out_, m.n);
  put_str(*out_, m.algorithm);
  put_str(*out_, m.family);
}

void BinaryTraceWriter::round(const TraceRound& r) {
  put_u8(*out_, kTraceRecRound);
  put_u64(*out_, r.round);
  put_u32(*out_, r.sends);
  put_u32(*out_, r.quanta);
  put_u32(*out_, r.delivered);
  put_u32(*out_, r.dropped_rand);
  put_u32(*out_, r.dropped_crash);
  put_u32(*out_, r.dropped_link);
  put_u32(*out_, r.backlog);
}

void BinaryTraceWriter::event(const TraceEvent& e) {
  put_u8(*out_, kTraceRecEvent);
  put_u64(*out_, e.round);
  put_u8(*out_, static_cast<std::uint8_t>(e.kind));
  put_u64(*out_, e.a);
  put_u64(*out_, e.b);
  put_str(*out_, e.label);
}

void BinaryTraceWriter::walk_hop(const TraceWalkHop& h) {
  put_u8(*out_, kTraceRecWalkHop);
  put_u64(*out_, h.round);
  put_u32(*out_, h.origin);
  put_u32(*out_, h.src);
  put_u32(*out_, h.dst);
  put_u32(*out_, h.count);
  put_u8(*out_, h.tag);
}

void BinaryTraceWriter::end_run(std::uint64_t rounds, std::uint64_t events,
                                std::uint64_t quanta) {
  put_u8(*out_, kTraceRecRunEnd);
  put_u64(*out_, rounds);
  put_u64(*out_, events);
  put_u64(*out_, quanta);
}

void BinaryTraceWriter::finish(std::uint64_t runs) {
  put_u8(*out_, kTraceRecEnd);
  put_u64(*out_, runs);
  out_->flush();
}

std::unique_ptr<TraceWriter> make_trace_writer(TraceFormat /*format*/,
                                               std::ostream& out) {
  return std::make_unique<BinaryTraceWriter>(out);
}

void write_run(TraceWriter& w, const TraceRunMeta& meta,
               const TraceRecorder& rec) {
  w.begin_run(meta);
  const std::vector<TraceRound>& rounds = rec.rounds();
  const std::vector<TraceEvent>& events = rec.events();
  const std::vector<TraceWalkHop>& hops = rec.walk_hops();
  // Merge in round order: events land before the row that closes their
  // round (fault batches fire at the start of a round, before service),
  // walk hops after the events of their round. Event and hop rounds are
  // non-decreasing except across segment rebases, so both cursors only ever
  // advance — trailing records are flushed after the last row.
  std::size_t e = 0;
  std::size_t h = 0;
  for (const TraceRound& r : rounds) {
    while (e < events.size() && events[e].round <= r.round) {
      w.event(events[e]);
      ++e;
    }
    while (h < hops.size() && hops[h].round <= r.round) {
      w.walk_hop(hops[h]);
      ++h;
    }
    w.round(r);
  }
  while (e < events.size()) {
    w.event(events[e]);
    ++e;
  }
  while (h < hops.size()) {
    w.walk_hop(hops[h]);
    ++h;
  }
  w.end_run(rounds.size(), events.size(), rec.total_quanta());
}

}  // namespace wcle
