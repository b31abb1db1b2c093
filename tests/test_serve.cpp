// End-to-end tests for wcle::serve — a real Server on an ephemeral loopback
// port, driven by a minimal blocking HTTP client over actual sockets: the
// submit/poll/stream round trip, byte-identity of streamed results against
// an in-process run_sweep at several worker counts, cell-cache hits on
// resubmission (observed through /metricz), malformed-request handling, and
// graceful drain. Plus direct unit coverage of the HTTP parser and the
// CellCache eviction policy.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "wcle/api/scenario.hpp"
#include "wcle/api/sink.hpp"
#include "wcle/api/sweep.hpp"
#include "wcle/serve/cell_cache.hpp"
#include "wcle/serve/http.hpp"
#include "wcle/serve/server.hpp"

namespace wcle {
namespace {

// ---------------------------------------------------------------- client --

/// Blocking loopback connection (throws-free; ASSERT on fd < 0 at call
/// sites). Closes on destruction.
class ClientConn {
 public:
  explicit ClientConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~ClientConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;

  bool ok() const { return fd_ >= 0; }

  void send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads until the peer closes.
  std::string recv_to_eof() {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return out;
      out.append(buf, static_cast<std::size_t>(n));
    }
  }

  /// Reads until the response head is complete; returns everything received
  /// so far (head plus any body bytes that rode along).
  void recv_head(std::string* out) {
    char buf[4096];
    while (out->find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out->append(buf, static_cast<std::size_t>(n));
    }
  }

  /// Reads exactly one Content-Length-framed response (keep-alive safe).
  std::string recv_response() {
    std::string out;
    char buf[4096];
    while (out.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return out;
      out.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t head_end = out.find("\r\n\r\n") + 4;
    std::size_t content_length = 0;
    std::istringstream head(out.substr(0, head_end));
    std::string line;
    while (std::getline(head, line)) {
      if (line.rfind("Content-Length:", 0) == 0)
        content_length = std::stoul(line.substr(15));
    }
    while (out.size() < head_end + content_length) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return out;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out.substr(0, head_end + content_length);
  }

 private:
  int fd_ = -1;
};

struct Response {
  int status = 0;
  std::string head;
  std::string body;  ///< chunked bodies already decoded
};

Response parse_response(const std::string& raw) {
  Response r;
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return r;
  r.head = raw.substr(0, head_end);
  if (r.head.size() > 12) r.status = std::stoi(r.head.substr(9, 3));
  std::string body = raw.substr(head_end + 4);
  if (r.head.find("Transfer-Encoding: chunked") == std::string::npos) {
    r.body = std::move(body);
    return r;
  }
  // Chunked decoding: <hex>\r\n<data>\r\n ... 0\r\n\r\n
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t eol = body.find("\r\n", pos);
    if (eol == std::string::npos) break;
    const std::size_t len = std::stoul(body.substr(pos, eol - pos), nullptr, 16);
    if (len == 0) break;
    r.body += body.substr(eol + 2, len);
    pos = eol + 2 + len + 2;
  }
  return r;
}

/// One-shot request: connect, send, read to EOF (the server closes —
/// Connection: close on plain responses, stream end on chunked ones).
Response one_shot(std::uint16_t port, const std::string& request) {
  ClientConn conn(port);
  EXPECT_TRUE(conn.ok());
  conn.send_all(request);
  return parse_response(conn.recv_to_eof());
}

std::string get_request(const std::string& target, bool close = true) {
  return "GET " + target + " HTTP/1.1\r\nHost: t\r\n" +
         (close ? "Connection: close\r\n" : "") + "\r\n";
}

std::string post_sweep(const std::string& spec_tokens, bool close = true) {
  return "POST /sweep HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(spec_tokens.size()) + "\r\n" +
         (close ? "Connection: close\r\n" : "") + "\r\n" + spec_tokens;
}

// --------------------------------------------------------------- fixture --

/// A live server on an ephemeral port, running until drained at teardown.
class ServeTest : public ::testing::Test {
 protected:
  void start(unsigned workers, std::uint64_t cache_bytes = 8u << 20) {
    ServeConfig config;
    config.host = "127.0.0.1";
    config.port = 0;  // ephemeral
    config.workers = workers;
    config.cache_max_bytes = cache_bytes;
    server_ = std::make_unique<Server>(config);
    server_->listen();
    port_ = server_->port();
    thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    if (server_) server_->begin_drain();
    if (thread_.joinable()) thread_.join();
  }

  std::unique_ptr<Server> server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

std::string expected_jsonl(const std::string& spec_text) {
  const ExperimentSpec spec = parse_spec(spec_text);
  std::ostringstream out;
  JsonlSink sink(out);
  run_sweep(spec, {&sink});
  return out.str();
}

constexpr const char* kSmallSpec =
    "algo=flood_max family=clique n=16,32 trials=2 drop=0,0.5";

// ----------------------------------------------------------------- tests --

TEST_F(ServeTest, SubmitPollStreamRoundTrip) {
  start(/*workers=*/2);
  const Response submit = one_shot(port_, post_sweep(kSmallSpec));
  EXPECT_EQ(submit.status, 202);
  EXPECT_NE(submit.body.find("\"job\":0"), std::string::npos);
  EXPECT_NE(submit.body.find("\"cells\":4"), std::string::npos);

  // The results stream blocks until the job completes — the poll-free poll.
  const Response results =
      one_shot(port_, get_request("/jobs/0/results"));
  EXPECT_EQ(results.status, 200);
  EXPECT_EQ(results.body, expected_jsonl(kSmallSpec));

  const Response status = one_shot(port_, get_request("/jobs/0"));
  EXPECT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(status.body.find("\"completed\":4"), std::string::npos);

  const Response listing = one_shot(port_, get_request("/jobs"));
  EXPECT_EQ(listing.status, 200);
  EXPECT_NE(listing.body.find("\"job\":0"), std::string::npos);
}

TEST_F(ServeTest, StreamedBytesAreIdenticalAcrossWorkerCounts) {
  // The serve determinism contract: any worker count serves the same bytes
  // as the CLI sweep. Exercise 1 (fully serial) and 4 (cells race).
  const std::string expected = expected_jsonl(kSmallSpec);
  for (const unsigned workers : {1u, 4u}) {
    ServeConfig config;
    config.host = "127.0.0.1";
    config.port = 0;
    config.workers = workers;
    Server server(config);
    server.listen();
    std::thread runner([&server] { server.run(); });
    const Response submit = one_shot(server.port(), post_sweep(kSmallSpec));
    EXPECT_EQ(submit.status, 202) << "workers=" << workers;
    const Response results =
        one_shot(server.port(), get_request("/jobs/0/results"));
    EXPECT_EQ(results.body, expected) << "workers=" << workers;
    server.begin_drain();
    runner.join();
  }
}

TEST_F(ServeTest, CacheHitsOnResubmissionObservableInMetricz) {
  start(/*workers=*/2);
  one_shot(port_, post_sweep(kSmallSpec));
  const Response first = one_shot(port_, get_request("/jobs/0/results"));

  // Same grid again: every cell must come from the cache, byte-identically.
  const Response resubmit = one_shot(port_, post_sweep(kSmallSpec));
  EXPECT_NE(resubmit.body.find("\"job\":1"), std::string::npos);
  const Response second = one_shot(port_, get_request("/jobs/1/results"));
  EXPECT_EQ(second.body, first.body);

  const Response status = one_shot(port_, get_request("/jobs/1"));
  EXPECT_NE(status.body.find("\"cache_hits\":4"), std::string::npos);

  const Response metricz = one_shot(port_, get_request("/metricz"));
  EXPECT_EQ(metricz.status, 200);
  EXPECT_NE(metricz.body.find("\"serve.cache.hits\":4"), std::string::npos);
  EXPECT_NE(metricz.body.find("\"serve.cache.misses\":4"), std::string::npos);
  EXPECT_NE(metricz.body.find("\"serve.cells.completed\":8"),
            std::string::npos);

  const Response cache = one_shot(port_, get_request("/cache"));
  EXPECT_EQ(cache.status, 200);
  EXPECT_NE(cache.body.find("\"entries\":4"), std::string::npos);
  EXPECT_NE(cache.body.find("name=single algo=flood_max family=clique"),
            std::string::npos);
}

TEST_F(ServeTest, OverlappingGridsShareCachedCells) {
  start(/*workers=*/2);
  one_shot(port_, post_sweep("algo=flood_max family=clique n=16,32 trials=2"));
  one_shot(port_, get_request("/jobs/0/results"));  // block until done
  // A different grid that contains one shared cell (n=32).
  one_shot(port_, post_sweep("algo=flood_max family=clique n=32,64 trials=2"));
  one_shot(port_, get_request("/jobs/1/results"));
  const Response status = one_shot(port_, get_request("/jobs/1"));
  EXPECT_NE(status.body.find("\"cache_hits\":1"), std::string::npos);
  // And the served bytes still match a fresh CLI-equivalent sweep.
  const Response results = one_shot(port_, get_request("/jobs/1/results"));
  EXPECT_EQ(results.body,
            expected_jsonl("algo=flood_max family=clique n=32,64 trials=2"));
}

TEST_F(ServeTest, MalformedRequestsAnswer4xx) {
  start(/*workers=*/1);
  EXPECT_EQ(one_shot(port_, "BOGUS\r\n\r\n").status, 400);
  EXPECT_EQ(one_shot(port_, "GET /healthz HTTP/2.0\r\n\r\n").status, 505);
  EXPECT_EQ(one_shot(port_, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n").status,
            404);
  EXPECT_EQ(one_shot(port_, get_request("/jobs/999")).status, 404);
  EXPECT_EQ(one_shot(port_, get_request("/jobs/abc")).status, 404);
  EXPECT_EQ(one_shot(port_, get_request("/sweep")).status, 405);  // GET
  EXPECT_EQ(one_shot(port_,
                     "POST /sweep HTTP/1.1\r\nHost: t\r\n"
                     "Content-Length: zap\r\n\r\n")
                .status,
            400);
  EXPECT_EQ(one_shot(port_,
                     "POST /sweep HTTP/1.1\r\nHost: t\r\n"
                     "Transfer-Encoding: chunked\r\n\r\n")
                .status,
            501);
  // Well-formed HTTP, malformed spec: a clean 400 with the parser's message.
  const Response bad_spec = one_shot(port_, post_sweep("algo=nosuch n=8"));
  EXPECT_EQ(bad_spec.status, 400);
  EXPECT_NE(bad_spec.body.find("unknown algorithm"), std::string::npos);
  // A spec that parses but names an invalid fault plan (churn without its
  // window) is refused at submit too, not failed later by a worker.
  EXPECT_EQ(one_shot(port_, post_sweep("algo=election n=8 churn=0.1")).status,
            400);
  // The daemon survives all of the above.
  EXPECT_EQ(one_shot(port_, get_request("/healthz")).status, 200);
}

TEST_F(ServeTest, KeepAliveServesSequentialRequestsOnOneConnection) {
  start(/*workers=*/1);
  ClientConn conn(port_);
  ASSERT_TRUE(conn.ok());
  conn.send_all(get_request("/healthz", /*close=*/false));
  const Response first = parse_response(conn.recv_response());
  EXPECT_EQ(first.status, 200);
  conn.send_all(get_request("/metricz", /*close=*/false));
  const Response second = parse_response(conn.recv_response());
  EXPECT_EQ(second.status, 200);
  EXPECT_NE(second.body.find("serve.http.requests"), std::string::npos);
}

TEST_F(ServeTest, DrainFinishesOpenStreamsAndStopsAccepting) {
  start(/*workers=*/2);
  // Open the stream BEFORE draining, on a job that may still be running.
  ClientConn stream(port_);
  ASSERT_TRUE(stream.ok());
  const Response submit = one_shot(port_, post_sweep(kSmallSpec));
  EXPECT_EQ(submit.status, 202);
  stream.send_all(get_request("/jobs/0/results"));
  // Wait for the response head: once it arrives the server has committed
  // this connection to the stream, so the drain must let it finish. (Without
  // this, the drain could be polled before the request bytes and close the
  // still-idle connection — allowed, but not what this test is about.)
  std::string raw;
  stream.recv_head(&raw);
  ASSERT_NE(raw.find("HTTP/1.1 200"), std::string::npos);

  server_->begin_drain();

  // The open stream still completes with the full byte-exact payload.
  raw += stream.recv_to_eof();
  const Response results = parse_response(raw);
  EXPECT_EQ(results.status, 200);
  EXPECT_EQ(results.body, expected_jsonl(kSmallSpec));

  // run() returns once the last connection is gone; new connects fail.
  thread_.join();
  ClientConn refused(port_);
  if (refused.ok()) {
    // A connect may be absorbed by OS backlog semantics; any request on it
    // must at least see an immediate close.
    refused.send_all(get_request("/healthz"));
    EXPECT_EQ(refused.recv_to_eof(), "");
  }
}

// ------------------------------------------------ http parser unit tests --

TEST(HttpParse, SplitsPipelinedRequestsAndDecodesTargets) {
  std::string in =
      "GET /jobs/7?verbose=1&x=a%20b HTTP/1.1\r\nHost: t\r\n\r\n"
      "POST /sweep HTTP/1.1\r\nContent-Length: 4\r\n\r\nn=16";
  HttpParseResult first = http_parse(in);
  ASSERT_EQ(first.status, HttpParseStatus::kRequest);
  EXPECT_EQ(first.request.method, "GET");
  EXPECT_EQ(first.request.path, "/jobs/7");
  EXPECT_EQ(first.request.query.at("verbose"), "1");
  EXPECT_EQ(first.request.query.at("x"), "a b");
  HttpParseResult second = http_parse(in);
  ASSERT_EQ(second.status, HttpParseStatus::kRequest);
  EXPECT_EQ(second.request.method, "POST");
  EXPECT_EQ(second.request.body, "n=16");
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(http_parse(in).status, HttpParseStatus::kNeedMore);
}

TEST(HttpParse, IncompleteRequestsWaitForMoreBytes) {
  std::string in = "GET /healthz HTTP/1.1\r\nHost:";
  EXPECT_EQ(http_parse(in).status, HttpParseStatus::kNeedMore);
  in += " t\r\n\r\n";
  EXPECT_EQ(http_parse(in).status, HttpParseStatus::kRequest);
  // Body still arriving: head parsed but held until Content-Length bytes.
  std::string partial = "POST /sweep HTTP/1.1\r\nContent-Length: 9\r\n\r\nn=1";
  EXPECT_EQ(http_parse(partial).status, HttpParseStatus::kNeedMore);
  partial += "6 c1=2";
  EXPECT_EQ(http_parse(partial).request.body, "n=16 c1=2");
}

TEST(HttpParse, EnforcesLimitsAndFraming) {
  std::string huge_header = "GET / HTTP/1.1\r\nX: " +
                            std::string(kHttpMaxHeaderBytes, 'a');
  EXPECT_EQ(http_parse(huge_header).error_status, 431);
  std::string huge_body = "POST /sweep HTTP/1.1\r\nContent-Length: " +
                          std::to_string(kHttpMaxBodyBytes + 1) + "\r\n\r\n";
  EXPECT_EQ(http_parse(huge_body).error_status, 413);
  std::string no_colon = "GET / HTTP/1.1\r\nbroken header\r\n\r\n";
  EXPECT_EQ(http_parse(no_colon).error_status, 400);
}

TEST(HttpWriters, ChunkFramingRoundTrips) {
  EXPECT_EQ(http_chunk("hello"), "5\r\nhello\r\n");
  EXPECT_EQ(http_chunk(""), "");  // never emit a premature terminator
  EXPECT_EQ(std::string(kHttpStreamEnd), "0\r\n\r\n");
  const std::string response = http_response(404, "application/json", "{}",
                                             /*close=*/true);
  EXPECT_NE(response.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
}

// ------------------------------------------------- cell cache unit tests --

CellCache::Value value_of(int trials) {
  CellCache::Value v;
  v.n = 16;
  v.m = 120;
  v.stats.trials = trials;
  return v;
}

TEST(CellCacheUnit, HitRefreshesRecencyAndCountsStats) {
  CellCache cache(/*max_bytes=*/1u << 20);
  CellCache::Value out;
  EXPECT_FALSE(cache.lookup("a", &out));
  cache.insert("a", value_of(3));
  EXPECT_TRUE(cache.lookup("a", &out));
  EXPECT_EQ(out.stats.trials, 3);
  const CellCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(CellCacheUnit, EvictsLeastRecentlyUsedUnderPressure) {
  // Size the cap to hold roughly two entries; key "a" is kept warm by a
  // lookup, so inserting "c" must evict "b".
  CellCache probe(1u << 20);
  probe.insert("a", value_of(1));
  const std::uint64_t per_entry = probe.stats().bytes;
  CellCache cache(2 * per_entry + per_entry / 2);
  cache.insert("a", value_of(1));
  cache.insert("b", value_of(2));
  CellCache::Value out;
  EXPECT_TRUE(cache.lookup("a", &out));  // warm "a"
  cache.insert("c", value_of(3));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.lookup("a", &out));
  EXPECT_FALSE(cache.lookup("b", &out));  // the cold one went
  EXPECT_TRUE(cache.lookup("c", &out));
}

TEST(CellCacheUnit, ZeroCapacityDisablesCaching) {
  CellCache cache(0);
  cache.insert("a", value_of(1));
  CellCache::Value out;
  EXPECT_FALSE(cache.lookup("a", &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

}  // namespace
}  // namespace wcle
