#include "wcle/analysis/cli.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "wcle/api/scenario.hpp"
#include "wcle/api/sweep.hpp"
#include "wcle/trace/reader.hpp"

namespace wcle {
namespace {

CliArgs parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"wcle_cli"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return CliArgs::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, CommandAndPositionals) {
  const CliArgs a = parse({"elect", "extra1", "extra2"});
  EXPECT_EQ(a.command(), "elect");
  EXPECT_EQ(a.positionals(),
            (std::vector<std::string>{"extra1", "extra2"}));
}

TEST(Cli, EqualsForm) {
  const CliArgs a = parse({"elect", "--n=1024", "--family=torus"});
  EXPECT_EQ(a.get_u64("n", 0), 1024u);
  EXPECT_EQ(a.get("family", ""), "torus");
}

TEST(Cli, SeparatedValueForm) {
  const CliArgs a = parse({"elect", "--n", "256"});
  EXPECT_EQ(a.get_u64("n", 0), 256u);
}

TEST(Cli, BareFlag) {
  const CliArgs a = parse({"elect", "--wide", "--n=4"});
  EXPECT_TRUE(a.get_bool("wide", false));
  EXPECT_FALSE(a.get_bool("absent", false));
  EXPECT_TRUE(a.get_bool("absent", true));
}

TEST(Cli, BooleanSpellings) {
  EXPECT_TRUE(parse({"x", "--f=true"}).get_bool("f", false));
  EXPECT_TRUE(parse({"x", "--f=1"}).get_bool("f", false));
  EXPECT_FALSE(parse({"x", "--f=false"}).get_bool("f", true));
  EXPECT_FALSE(parse({"x", "--f=0"}).get_bool("f", true));
  EXPECT_THROW(parse({"x", "--f=maybe"}).get_bool("f", true),
               std::invalid_argument);
}

TEST(Cli, Doubles) {
  const CliArgs a = parse({"lowerbound", "--alpha=0.004"});
  EXPECT_DOUBLE_EQ(a.get_double("alpha", 1.0), 0.004);
  EXPECT_DOUBLE_EQ(a.get_double("absent", 2.5), 2.5);
}

TEST(Cli, MalformedNumbersThrow) {
  EXPECT_THROW(parse({"x", "--n=12abc"}).get_u64("n", 0),
               std::invalid_argument);
  EXPECT_THROW(parse({"x", "--a=1.2.3"}).get_double("a", 0),
               std::invalid_argument);
}

TEST(Cli, FlagBeforeCommandDoesNotSwallowIt) {
  const CliArgs a = parse({"--verbose", "elect", "--n=8"});
  EXPECT_EQ(a.command(), "elect");
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_EQ(a.get_u64("n", 0), 8u);
}

TEST(Cli, DefaultsWhenEmpty) {
  const CliArgs a = parse({});
  EXPECT_TRUE(a.command().empty());
  EXPECT_EQ(a.get("family", "expander"), "expander");
}

TEST(Cli, KeysEnumeration) {
  const CliArgs a = parse({"elect", "--b=1", "--a=2"});
  EXPECT_EQ(a.keys(), (std::vector<std::string>{"a", "b"}));
}

TEST(Cli, NegativeValuesRejectedByGetU64) {
  EXPECT_THROW(parse({"x", "--n=-1"}).get_u64("n", 0), std::invalid_argument);
  EXPECT_THROW(parse({"x", "--n=-12345"}).get_u64("n", 0),
               std::invalid_argument);
  // std::stoull skips leading whitespace, so " -1" would wrap without the
  // leading-digit requirement.
  EXPECT_THROW(parse({"x", "--n= -1"}).get_u64("n", 0),
               std::invalid_argument);
  EXPECT_THROW(parse({"x", "--n= 7"}).get_u64("n", 0),
               std::invalid_argument);
  EXPECT_THROW(parse({"x", "--n="}).get_u64("n", 0), std::invalid_argument);
  // Negatives stay legal where they make sense.
  EXPECT_DOUBLE_EQ(parse({"x", "--a=-0.5"}).get_double("a", 0), -0.5);
}

TEST(Cli, UnconsumedTracksUntouchedKeys) {
  const CliArgs a = parse({"elect", "--n=8", "--trails=5", "--seed=1"});
  EXPECT_EQ(a.get_u64("n", 0), 8u);
  EXPECT_EQ(a.get_u64("seed", 0), 1u);
  // The typo'd --trails was never looked up: it must be reported.
  EXPECT_EQ(a.unconsumed(), (std::vector<std::string>{"trails"}));
}

TEST(Cli, AllAccessorsMarkConsumption) {
  const CliArgs a =
      parse({"x", "--s=v", "--u=1", "--d=0.5", "--b=true", "--h=1"});
  a.get("s", "");
  a.get_u64("u", 0);
  a.get_double("d", 0);
  a.get_bool("b", false);
  a.has("h");
  EXPECT_TRUE(a.unconsumed().empty());
}

TEST(Cli, ConsumingAbsentKeysLeavesPresentOnesUnconsumed) {
  const CliArgs a = parse({"x", "--present=1"});
  a.get("absent", "");
  EXPECT_EQ(a.unconsumed(), (std::vector<std::string>{"present"}));
}

TEST(Cli, HostPortFullForm) {
  const HostPort hp = parse({"serve", "--listen=0.0.0.0:9000"})
                          .get_host_port("listen", "127.0.0.1", 8080);
  EXPECT_EQ(hp.host, "0.0.0.0");
  EXPECT_EQ(hp.port, 9000);
}

TEST(Cli, HostPortAbsentKeepsFallbacks) {
  const HostPort hp =
      parse({"serve"}).get_host_port("listen", "127.0.0.1", 8080);
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 8080);
}

TEST(Cli, HostPortPartialForms) {
  // ":9000" and a bare all-digit value keep the fallback host.
  EXPECT_EQ(parse({"s", "--listen=:9000"}).get_host_port("listen", "h", 1)
                .host,
            "h");
  EXPECT_EQ(parse({"s", "--listen=:9000"}).get_host_port("listen", "h", 1)
                .port,
            9000);
  EXPECT_EQ(parse({"s", "--listen=9000"}).get_host_port("listen", "h", 1)
                .port,
            9000);
  // "HOST" and "HOST:" keep the fallback port.
  EXPECT_EQ(parse({"s", "--listen=localhost"}).get_host_port("listen", "h", 7)
                .host,
            "localhost");
  EXPECT_EQ(parse({"s", "--listen=localhost"}).get_host_port("listen", "h", 7)
                .port,
            7);
  EXPECT_EQ(parse({"s", "--listen=10.0.0.2:"}).get_host_port("listen", "h", 7)
                .host,
            "10.0.0.2");
  EXPECT_EQ(parse({"s", "--listen=10.0.0.2:"}).get_host_port("listen", "h", 7)
                .port,
            7);
}

TEST(Cli, HostPortRejectsMalformedValues) {
  const auto hp = [](const char* value) {
    return parse({"s", value}).get_host_port("listen", "h", 1);
  };
  EXPECT_THROW(hp("--listen="), std::invalid_argument);    // empty
  EXPECT_THROW(hp("--listen=:"), std::invalid_argument);   // ":" alone
  EXPECT_THROW(hp("--listen=h:abc"), std::invalid_argument);
  EXPECT_THROW(hp("--listen=h:12abc"), std::invalid_argument);
  EXPECT_THROW(hp("--listen=h:-1"), std::invalid_argument);
  EXPECT_THROW(hp("--listen=h:65536"), std::invalid_argument);  // > 16-bit
  EXPECT_THROW(hp("--listen=h:99999999999999999999"), std::invalid_argument);
  EXPECT_THROW(hp("--listen=::1"), std::invalid_argument);  // IPv6 literal
}

TEST(Cli, HostPortEdgePortsParse) {
  EXPECT_EQ(parse({"s", "--listen=h:0"}).get_host_port("listen", "x", 1).port,
            0);
  EXPECT_EQ(
      parse({"s", "--listen=h:65535"}).get_host_port("listen", "x", 1).port,
      65535);
}

TEST(Cli, HostPortMarksConsumption) {
  const CliArgs a = parse({"serve", "--listen=h:1"});
  a.get_host_port("listen", "x", 2);
  EXPECT_TRUE(a.unconsumed().empty());
}

// ---------------------------------------------------------------------------
// The wcle_cli binary: run/trials read their flags through the spec grammar.
// ---------------------------------------------------------------------------

struct CliRun {
  int status = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string cli_binary() { return std::string(WCLE_BINARY_DIR) + "/wcle_cli"; }

CliRun run_cli(const std::string& args) {
  const std::string out = testing::TempDir() + "wcle_cli_test.out";
  const std::string err = testing::TempDir() + "wcle_cli_test.err";
  const std::string cmd =
      cli_binary() + " " + args + " >" + out + " 2>" + err;
  CliRun r;
  r.status = WEXITSTATUS(std::system(cmd.c_str()));
  r.out = slurp(out);
  r.err = slurp(err);
  return r;
}

bool cli_built() { return access(cli_binary().c_str(), X_OK) == 0; }

TEST(CliBinary, RunTraceHeaderIsTheCanonicalCellKey) {
  if (!cli_built()) GTEST_SKIP() << cli_binary() << " was not built";
  const std::string trace = testing::TempDir() + "wcle_cli_test.jsonl";
  const CliRun r = run_cli("run --n=32 --c1=3 --crash=0.1 --trace=" + trace);
  ASSERT_NE(r.status, 2) << r.err;
  const ExperimentSpec spec = parse_spec(
      "algo=election family=expander n=32 c1=3 crash=0.1 trials=1 "
      "base-seed=1 graph-seed=1");
  const std::vector<SweepCell> cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(read_trace_file(trace).header.spec,
            canonical_cell_key(spec, cells[0]));
  std::remove(trace.c_str());
}

TEST(CliBinary, RunRejectsAGridWithExitTwo) {
  if (!cli_built()) GTEST_SKIP() << cli_binary() << " was not built";
  const CliRun r = run_cli("run --n=32 --c1=1,2");
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("sweep"), std::string::npos) << r.err;
}

TEST(CliBinary, RunReadsFaultAxesItOnceIgnored) {
  if (!cli_built()) GTEST_SKIP() << cli_binary() << " was not built";
  const CliRun r = run_cli("run --n=32 --drop=0.02");
  EXPECT_NE(r.status, 2) << r.err;
  EXPECT_EQ(r.err.find("was ignored"), std::string::npos) << r.err;
}

TEST(CliBinary, SweepTraceFlagsOfZeroFailWithTheGrammarsError) {
  if (!cli_built()) GTEST_SKIP() << cli_binary() << " was not built";
  for (const std::string key : {"trace-walks", "trace-every"}) {
    const CliRun r =
        run_cli("sweep algo=election family=expander n=16 trials=1 --" +
                key + "=0");
    EXPECT_EQ(r.status, 2) << key;
    EXPECT_NE(r.err.find("spec: " + key + "=0"), std::string::npos) << r.err;
  }
}

TEST(CliBinary, SweepTraceWalksFlagRidesInTheHeaderSpec) {
  if (!cli_built()) GTEST_SKIP() << cli_binary() << " was not built";
  const std::string trace = testing::TempDir() + "wcle_cli_sweep.jsonl";
  const std::string grid =
      "sweep algo=election family=expander n=16 trials=1 --format=jsonl "
      "--trace=" + trace;
  // A bare flag means every walk...
  CliRun r = run_cli(grid + " --trace-walks");
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_EQ(read_trace_file(trace).header.spec,
            "name=custom algo=election family=expander n=16 "
            "bandwidth=standard drop=0 trace-walks=1 trials=1 base-seed=1000 "
            "graph-seed=1");
  // ...and an explicit grid token wins over the flag.
  r = run_cli(grid + " trace-walks=4 --trace-walks=2");
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_NE(read_trace_file(trace).header.spec.find(" trace-walks=4 "),
            std::string::npos);
  std::remove(trace.c_str());
}

}  // namespace
}  // namespace wcle
