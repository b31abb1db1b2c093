#include "wcle/api/replay.hpp"

#include <algorithm>
#include <sstream>

#include "wcle/api/scenario.hpp"
#include "wcle/api/sweep.hpp"
#include "wcle/trace/reader.hpp"

namespace wcle {

namespace {

std::string describe_round(const TraceRound& r) {
  std::ostringstream out;
  out << "round=" << r.round << " sends=" << r.sends << " quanta=" << r.quanta
      << " delivered=" << r.delivered << " drop_rand=" << r.dropped_rand
      << " drop_crash=" << r.dropped_crash << " drop_link=" << r.dropped_link
      << " backlog=" << r.backlog;
  return out.str();
}

std::string describe_event(const TraceEvent& e) {
  std::ostringstream out;
  out << "round=" << e.round << " kind=" << trace_event_kind_name(e.kind)
      << " a=" << e.a << " b=" << e.b << " label=\"" << e.label << "\"";
  return out.str();
}

std::string describe_hop(const TraceWalkHop& h) {
  std::ostringstream out;
  out << "round=" << h.round << " origin=" << h.origin << " src=" << h.src
      << " dst=" << h.dst << " count=" << h.count
      << " tag=" << static_cast<unsigned>(h.tag);
  return out.str();
}

std::string describe_meta(const TraceRunMeta& m) {
  std::ostringstream out;
  out << "run=" << m.run << " cell=" << m.cell << " trial=" << m.trial
      << " seed=" << m.seed << " n=" << m.n << " algorithm=" << m.algorithm
      << " family=" << m.family;
  return out.str();
}

/// A two-sided "original vs regenerated" block for one record.
std::string side_by_side(const std::string& what, std::uint64_t run,
                         const std::string& original,
                         const std::string& regenerated) {
  std::ostringstream out;
  out << "first differing record: run " << run << ", " << what << "\n"
      << "  original:    " << original << "\n"
      << "  regenerated: " << regenerated;
  return out.str();
}

/// The first disagreement between one run's records of one kind, named
/// `what` ("round row", "event", "walk hop"); empty when they agree.
template <typename Record, typename Describe>
std::string first_record_difference(const std::string& what,
                                    std::uint64_t run,
                                    const std::vector<Record>& a,
                                    const std::vector<Record>& b,
                                    Describe describe) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t j = 0; j < common; ++j)
    if (a[j] != b[j])
      return side_by_side(what + " #" + std::to_string(j), run,
                          describe(a[j]), describe(b[j]));
  if (a.size() == b.size()) return "";
  const bool more_a = a.size() > b.size();
  const std::string extra = describe(more_a ? a[common] : b[common]);
  return side_by_side(what + " #" + std::to_string(common), run,
                      more_a ? extra : "<absent>",
                      more_a ? "<absent>" : extra);
}

/// Walks both parsed streams run by run — meta, then round rows, events and
/// walk hops — and describes the first disagreement. Returns an empty string
/// when the decoded records agree (a pure framing difference — e.g. a
/// truncated trailer).
std::string decode_first_difference(const TraceFileData& a,
                                    const TraceFileData& b) {
  const std::size_t runs = std::min(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < runs; ++i) {
    const TraceRunData& ra = a.runs[i];
    const TraceRunData& rb = b.runs[i];
    const std::uint64_t run = ra.meta.run;
    if (ra.meta != rb.meta)
      return side_by_side("run meta", run, describe_meta(ra.meta),
                          describe_meta(rb.meta));
    std::string diff = first_record_difference("round row", run, ra.rounds,
                                               rb.rounds, describe_round);
    if (diff.empty())
      diff = first_record_difference("event", run, ra.events, rb.events,
                                     describe_event);
    if (diff.empty())
      diff = first_record_difference("walk hop", run, ra.hops, rb.hops,
                                     describe_hop);
    if (!diff.empty()) return diff;
  }
  if (a.runs.size() != b.runs.size()) {
    std::ostringstream out;
    out << "first differing record: run count — original holds "
        << a.runs.size() << " run(s), regenerated " << b.runs.size();
    return out.str();
  }
  return "";
}

}  // namespace

ReplayReport verify_replay(const std::string& path, unsigned threads,
                           bool diff) {
  ReplayReport report;
  const std::string original = read_file_bytes(path);
  report.header = parse_trace_header(original);
  report.original_bytes = original.size();

  const ExperimentSpec spec = parse_spec(report.header.spec);

  std::ostringstream buf;
  BinaryTraceWriter writer(buf);
  writer.header(report.header);
  const std::vector<CellResult> results =
      run_sweep(spec, /*sinks=*/{}, threads, &writer);
  report.runs = static_cast<std::uint64_t>(results.size()) *
                static_cast<std::uint64_t>(spec.trials);

  const std::string regenerated = buf.str();
  report.regenerated_bytes = regenerated.size();
  if (regenerated == original) {
    report.ok = true;
    report.detail = "byte-identical: " + std::to_string(report.runs) +
                    " run(s), " + std::to_string(original.size()) + " bytes";
    return report;
  }
  const std::size_t limit = std::min(original.size(), regenerated.size());
  std::size_t at = 0;
  while (at < limit && original[at] == regenerated[at]) ++at;
  report.first_difference = at;
  report.detail = "MISMATCH at byte " + std::to_string(at) + " (original " +
                  std::to_string(original.size()) + " bytes, regenerated " +
                  std::to_string(regenerated.size()) + ")";
  if (diff) {
    try {
      report.diff = decode_first_difference(parse_trace(original),
                                            parse_trace(regenerated));
      if (report.diff.empty())
        report.diff =
            "records decode identically — framing-level difference only "
            "(e.g. a truncated or duplicated trailer)";
    } catch (const std::exception& e) {
      report.diff = std::string("diff decoding failed: ") + e.what();
    }
  }
  return report;
}

}  // namespace wcle
