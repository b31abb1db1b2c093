#include "wcle/serve/server.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>

#include "wcle/api/scenario.hpp"
#include "wcle/obs/registry.hpp"
#include "wcle/support/json.hpp"
#include "wcle/support/strict_parse.hpp"

namespace wcle {

namespace {

std::string error_body(int status, const std::string& detail) {
  return "{\"error\":\"" + json_escape(http_status_reason(status)) +
         "\",\"detail\":\"" + json_escape(detail) + "\"}\n";
}

std::string status_json(const JobQueue::Status& s) {
  std::ostringstream out;
  out << "{\"job\":" << s.id << ",\"state\":\"" << json_escape(s.state)
      << "\",\"spec\":\"" << json_escape(s.spec) << "\",\"cells\":" << s.cells
      << ",\"completed\":" << s.completed
      << ",\"cache_hits\":" << s.cache_hits;
  if (!s.error.empty()) out << ",\"error\":\"" << json_escape(s.error) << "\"";
  out << "}";
  return out.str();
}

/// POST /sweep body -> spec, mirroring `wcle_cli sweep`: whitespace-split
/// tokens; a spec=<e1..e14> token selects a builtin sized by scale=<0|1|2>
/// (default: WCLE_BENCH_SCALE) with the remaining tokens refining it; plain
/// grid-grammar tokens otherwise.
ExperimentSpec spec_from_body(const std::string& body) {
  std::istringstream in(body);
  std::vector<std::string> tokens;
  std::string builtin;
  std::optional<int> scale;
  std::string token;
  while (in >> token) {
    if (token.rfind("spec=", 0) == 0) {
      builtin = token.substr(5);
    } else if (token.rfind("scale=", 0) == 0) {
      const auto v = strict_u64(token.substr(6));
      if (!v || *v > 2)
        throw std::invalid_argument("scale=" + token.substr(6) +
                                    " (0 = quick, 1 = default, 2 = extended)");
      scale = static_cast<int>(*v);
    } else {
      tokens.push_back(token);
    }
  }
  if (!builtin.empty())
    return parse_spec_onto(
        builtin_experiment(builtin, scale ? *scale : default_bench_scale()),
        tokens);
  if (tokens.empty())
    throw std::invalid_argument(
        "empty spec (body must hold grid-grammar tokens or spec=<e1..e14>)");
  return parse_spec(tokens);
}

}  // namespace

Server::Server(const ServeConfig& config)
    : config_(config),
      cache_(config.cache_max_bytes),
      loop_(config.host, config.port, this) {
  jobs_ = std::make_unique<JobQueue>(&cache_, config.workers,
                                     [this] { loop_.wake(); });
}

void Server::listen() { loop_.listen(); }

int Server::run() { return loop_.run(); }

void Server::respond(Conn& c, const HttpRequest& req, int status,
                     const std::string& content_type,
                     const std::string& body) {
  if (status >= 400) ++bad_requests_;
  const bool close = req.wants_close() || status >= 400 || loop_.draining();
  c.out += http_response(status, content_type, body, close);
  if (close) c.close_after_flush = true;
}

void Server::on_input(Conn& c) {
  // Drain every complete pipelined request; stop once this connection is
  // committed to a stream or a close.
  while (!c.streaming && !c.close_after_flush) {
    HttpParseResult parsed = http_parse(c.in);
    if (parsed.status == HttpParseStatus::kNeedMore) break;
    if (parsed.status == HttpParseStatus::kError) {
      ++requests_;
      ++bad_requests_;
      c.out += http_response(parsed.error_status, "application/json",
                             error_body(parsed.error_status, parsed.error),
                             /*close=*/true);
      c.close_after_flush = true;
      break;
    }
    handle_request(c, parsed.request);
  }
}

void Server::handle_request(Conn& c, const HttpRequest& req) {
  ++requests_;
  const std::string& path = req.path;

  if (path == "/healthz") {
    if (req.method != "GET")
      return respond(c, req, 405, "application/json",
                     error_body(405, "use GET /healthz"));
    return respond(c, req, 200, "application/json",
                   std::string("{\"ok\":true,\"draining\":") +
                       (loop_.draining() ? "true" : "false") + "}\n");
  }
  if (path == "/metricz") {
    if (req.method != "GET")
      return respond(c, req, 405, "application/json",
                     error_body(405, "use GET /metricz"));
    return respond(c, req, 200, "application/json", metricz_json() + "\n");
  }
  if (path == "/cache") {
    if (req.method != "GET")
      return respond(c, req, 405, "application/json",
                     error_body(405, "use GET /cache"));
    return respond(c, req, 200, "application/json", cache_.to_json() + "\n");
  }
  if (path == "/sweep") {
    if (req.method != "POST")
      return respond(c, req, 405, "application/json",
                     error_body(405, "use POST /sweep with spec tokens"));
    if (loop_.draining())
      return respond(c, req, 503, "application/json",
                     error_body(503, "draining, not accepting new jobs"));
    try {
      const ExperimentSpec spec = spec_from_body(req.body);
      const std::uint64_t id = jobs_->submit(spec);
      ++jobs_submitted_;
      const JobQueue::Status s = jobs_->status(id);
      return respond(c, req, 202, "application/json", status_json(s) + "\n");
    } catch (const std::exception& e) {
      return respond(c, req, 400, "application/json",
                     error_body(400, e.what()));
    }
  }
  if (path == "/jobs") {
    if (req.method != "GET")
      return respond(c, req, 405, "application/json",
                     error_body(405, "use GET /jobs"));
    std::string body = "{\"jobs\":[";
    bool first = true;
    for (const JobQueue::Status& s : jobs_->statuses()) {
      if (!first) body += ",";
      first = false;
      body += status_json(s);
    }
    body += "]}\n";
    return respond(c, req, 200, "application/json", body);
  }
  if (path.rfind("/jobs/", 0) == 0) {
    std::string rest = path.substr(6);
    bool results = false;
    const std::string suffix = "/results";
    if (rest.size() > suffix.size() &&
        rest.compare(rest.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      results = true;
      rest = rest.substr(0, rest.size() - suffix.size());
    }
    const auto id = strict_u64(rest);
    if (!id)
      return respond(c, req, 404, "application/json",
                     error_body(404, "job ids are decimal integers"));
    const JobQueue::Status s = jobs_->status(*id);
    if (!s.exists)
      return respond(c, req, 404, "application/json",
                     error_body(404, "no such job " + rest));
    if (!results) {
      if (req.method != "GET")
        return respond(c, req, 405, "application/json",
                       error_body(405, "use GET /jobs/<id>"));
      return respond(c, req, 200, "application/json", status_json(s) + "\n");
    }
    if (req.method != "GET")
      return respond(c, req, 405, "application/json",
                     error_body(405, "use GET /jobs/<id>/results"));
    return start_stream(c, *id);
  }

  respond(c, req, 404, "application/json",
          error_body(404, "unknown path " + path));
}

void Server::start_stream(Conn& c, std::uint64_t job) {
  ++streams_opened_;
  c.out += http_stream_head(200, "application/jsonl");
  c.streaming = true;
  c.stream_job = job;
  c.stream_cursor = 0;
  advance_stream(c);  // whatever is already complete goes out immediately
}

void Server::advance_stream(Conn& c) {
  if (!c.streaming) return;
  std::string lines;
  const bool finished = jobs_->stream(c.stream_job, &c.stream_cursor, &lines);
  c.out += http_chunk(lines);
  if (finished) {
    c.out += kHttpStreamEnd;
    c.streaming = false;
    c.close_after_flush = true;  // the stream head promised Connection: close
  }
}

void Server::on_wake() {
  for (Conn* c : loop_.connections()) advance_stream(*c);
}

void Server::on_drain() {
  jobs_->begin_drain();
  // Parked keep-alive connections would hold the process open forever;
  // streams are left to finish their job.
  for (Conn* c : loop_.connections())
    if (!c->streaming) c->close_after_flush = true;
}

void Server::on_close(Conn& c) { c.streaming = false; }

std::string Server::metricz_json() {
  // The StatRegistry update path is deliberately not thread-safe, so the
  // daemon never shares one across threads: each /metricz request builds a
  // fresh registry from component-owned counters and serializes it. That
  // keeps obs's register-then-update discipline AND gives a race-free
  // export for free.
  StatRegistry reg;
  const CellCache::Stats cs = cache_.stats();
  std::uint64_t cells_total = 0, cells_completed = 0, jobs_done = 0;
  const std::vector<JobQueue::Status> statuses = jobs_->statuses();
  for (const JobQueue::Status& s : statuses) {
    cells_total += s.cells;
    cells_completed += s.completed;
    if (s.state == "done" || s.state == "failed") ++jobs_done;
  }

  reg.add(reg.counter("serve.http.requests"), requests_);
  reg.add(reg.counter("serve.http.bad_requests"), bad_requests_);
  reg.add(reg.counter("serve.http.streams_opened"), streams_opened_);
  reg.add(reg.counter("serve.jobs.submitted"), jobs_submitted_);
  reg.add(reg.counter("serve.jobs.finished"), jobs_done);
  reg.add(reg.counter("serve.cells.total"), cells_total);
  reg.add(reg.counter("serve.cells.completed"), cells_completed);
  reg.add(reg.counter("serve.cache.hits"), cs.hits);
  reg.add(reg.counter("serve.cache.misses"), cs.misses);
  reg.add(reg.counter("serve.cache.insertions"), cs.insertions);
  reg.add(reg.counter("serve.cache.evictions"), cs.evictions);
  reg.set_max(reg.gauge("serve.cache.entries"), cs.entries);
  reg.set_max(reg.gauge("serve.cache.bytes"), cs.bytes);
  reg.set_max(reg.gauge("serve.cache.bytes_high"), cs.bytes_high);
  reg.set_max(reg.gauge("serve.cache.max_bytes"), cs.max_bytes);
  reg.set_max(reg.gauge("serve.jobs.known"), statuses.size());
  reg.set_max(reg.gauge("serve.connections"), loop_.connections().size());
  reg.set_max(reg.gauge("serve.draining"), loop_.draining() ? 1 : 0);
  return to_json(reg);
}

}  // namespace wcle
