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

std::string describe_meta(const TraceRunMeta& m) {
  std::ostringstream out;
  out << "run=" << m.run << " cell=" << m.cell << " trial=" << m.trial
      << " seed=" << m.seed << " n=" << m.n << " algorithm=" << m.algorithm
      << " family=" << m.family;
  return out.str();
}

bool same_round(const TraceRound& a, const TraceRound& b) {
  return a.round == b.round && a.sends == b.sends && a.quanta == b.quanta &&
         a.delivered == b.delivered && a.dropped_rand == b.dropped_rand &&
         a.dropped_crash == b.dropped_crash &&
         a.dropped_link == b.dropped_link && a.backlog == b.backlog;
}

bool same_event(const TraceEvent& a, const TraceEvent& b) {
  return a.round == b.round && a.kind == b.kind && a.a == b.a && a.b == b.b &&
         a.label == b.label;
}

bool same_meta(const TraceRunMeta& a, const TraceRunMeta& b) {
  return a.run == b.run && a.cell == b.cell && a.trial == b.trial &&
         a.seed == b.seed && a.n == b.n && a.algorithm == b.algorithm &&
         a.family == b.family;
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

/// Walks both parsed streams in record order and describes the first
/// disagreement. Returns an empty string when the decoded records agree
/// (a pure framing difference — e.g. a truncated trailer).
std::string decode_first_difference(const TraceFileData& a,
                                    const TraceFileData& b) {
  const std::size_t runs = std::min(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < runs; ++i) {
    const TraceRunData& ra = a.runs[i];
    const TraceRunData& rb = b.runs[i];
    if (!same_meta(ra.meta, rb.meta))
      return side_by_side("run meta", ra.meta.run, describe_meta(ra.meta),
                          describe_meta(rb.meta));
    const std::size_t rows = std::min(ra.rounds.size(), rb.rounds.size());
    for (std::size_t j = 0; j < rows; ++j)
      if (!same_round(ra.rounds[j], rb.rounds[j]))
        return side_by_side("round row #" + std::to_string(j), ra.meta.run,
                            describe_round(ra.rounds[j]),
                            describe_round(rb.rounds[j]));
    if (ra.rounds.size() != rb.rounds.size()) {
      const bool more_a = ra.rounds.size() > rb.rounds.size();
      const TraceRound& extra =
          more_a ? ra.rounds[rows] : rb.rounds[rows];
      return side_by_side("round row #" + std::to_string(rows), ra.meta.run,
                          more_a ? describe_round(extra) : "<absent>",
                          more_a ? "<absent>" : describe_round(extra));
    }
    const std::size_t evs = std::min(ra.events.size(), rb.events.size());
    for (std::size_t j = 0; j < evs; ++j)
      if (!same_event(ra.events[j], rb.events[j]))
        return side_by_side("event #" + std::to_string(j), ra.meta.run,
                            describe_event(ra.events[j]),
                            describe_event(rb.events[j]));
    if (ra.events.size() != rb.events.size()) {
      const bool more_a = ra.events.size() > rb.events.size();
      const TraceEvent& extra = more_a ? ra.events[evs] : rb.events[evs];
      return side_by_side("event #" + std::to_string(evs), ra.meta.run,
                          more_a ? describe_event(extra) : "<absent>",
                          more_a ? "<absent>" : describe_event(extra));
    }
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
  report.header = parse_trace_header(original, &report.format);
  report.original_bytes = original.size();

  const ExperimentSpec spec = parse_spec(report.header.spec);

  std::ostringstream buf;
  const std::unique_ptr<TraceWriter> writer =
      make_trace_writer(report.format, buf);
  writer->header(report.header);
  const std::vector<CellResult> results =
      run_sweep(spec, /*sinks=*/{}, threads, writer.get());
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
