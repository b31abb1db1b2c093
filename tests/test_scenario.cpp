// Tests for the declarative experiment spec: the key=v1,v2 grid grammar, the
// RunOptions knob set, grid arithmetic, the builtin E1-E13 registry, and the
// spec -> string -> spec round trip that backs every table's "reproduce:"
// line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <stdexcept>

#include "wcle/api/registry.hpp"
#include "wcle/api/scenario.hpp"
#include "wcle/api/sweep.hpp"

namespace wcle {
namespace {

TEST(SpecGrammar, ParsesAxesAndKnobs) {
  const ExperimentSpec spec = parse_spec(
      "algo=flood_max,election family=clique n=32,64 bandwidth=standard,wide "
      "drop=0,0.5 trials=3 base-seed=77 graph-seed=9 c1=2,4 reliable=1 "
      "extras=phases,final_length name=demo");
  EXPECT_EQ(spec.algorithms, (std::vector<std::string>{"flood_max",
                                                       "election"}));
  EXPECT_EQ(spec.families, std::vector<std::string>{"clique"});
  EXPECT_EQ(spec.sizes, (std::vector<std::uint64_t>{32, 64}));
  EXPECT_EQ(spec.bandwidths, (std::vector<std::string>{"standard", "wide"}));
  EXPECT_EQ(spec.drops, (std::vector<double>{0.0, 0.5}));
  EXPECT_EQ(spec.trials, 3);
  EXPECT_EQ(spec.base_seed, 77u);
  EXPECT_EQ(spec.graph_seed, 9u);
  EXPECT_TRUE(spec.skip_unreliable);
  EXPECT_EQ(spec.knobs.at("c1"), (std::vector<std::string>{"2", "4"}));
  EXPECT_EQ(spec.table_extras,
            (std::vector<std::string>{"phases", "final_length"}));
  EXPECT_EQ(spec.name, "demo");
  // 2 algos x 1 family x 2 sizes x 2 bandwidths x 2 drops x 2 c1 values.
  EXPECT_EQ(spec.cell_count(), 32u);
}

TEST(SpecGrammar, DefaultsWhenUnspecified) {
  const ExperimentSpec spec = parse_spec("n=128");
  EXPECT_EQ(spec.algorithms, std::vector<std::string>{"election"});
  EXPECT_EQ(spec.families, std::vector<std::string>{"expander"});
  EXPECT_EQ(spec.bandwidths, std::vector<std::string>{"standard"});
  EXPECT_EQ(spec.drops, std::vector<double>{0.0});
  EXPECT_EQ(spec.cell_count(), 1u);
}

TEST(SpecGrammar, AlgoAllExpandsToRegistry) {
  const ExperimentSpec spec = parse_spec("algo=all n=16");
  EXPECT_EQ(spec.algorithms.size(), AlgorithmRegistry::instance().size());
}

TEST(SpecGrammar, Rejections) {
  EXPECT_THROW(parse_spec("bogus-key=1"), std::invalid_argument);
  EXPECT_THROW(parse_spec("algo=no_such_algorithm"), std::invalid_argument);
  EXPECT_THROW(parse_spec("n=abc"), std::invalid_argument);
  EXPECT_THROW(parse_spec("n=-5"), std::invalid_argument);
  EXPECT_THROW(parse_spec("drop=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_spec("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW(parse_spec("bandwidth=0"), std::invalid_argument);
  EXPECT_THROW(parse_spec("bandwidth=narrow"), std::invalid_argument);
  EXPECT_THROW(parse_spec("trials=0"), std::invalid_argument);
  EXPECT_THROW(parse_spec("wide=maybe"), std::invalid_argument);
  EXPECT_THROW(parse_spec("notkeyvalue"), std::invalid_argument);
  EXPECT_THROW(parse_spec("n="), std::invalid_argument);
  EXPECT_THROW(parse_spec("algo=election n=8 shards=4"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("n=4294967360"), std::invalid_argument);
  // std::stoull and std::stod skip leading whitespace and then take a sign
  // (" -1" would wrap to 2^64 - 1). One argv token can carry a space, so
  // these go in as single tokens.
  for (const std::string token :
       {"base-seed= -1", "n= 64", "n=+64", "n=64 ", "n=\t64", "drop= 0.1",
        "drop=+0.1", "drop=0.1\n", "c1=-2", "c1= 2"})
    EXPECT_THROW(parse_spec(std::vector<std::string>{token}),
                 std::invalid_argument)
        << token;
  // Parses, but a churn fraction without its window is no fault plan.
  EXPECT_THROW(expand_cells(parse_spec("churn=0.1")), std::invalid_argument);
}

TEST(SpecGrammar, KnobApplication) {
  RunOptions options;
  apply_knob(options, "c1", "6.5");
  apply_knob(options, "wide", "true");
  apply_knob(options, "coalesce", "false");
  apply_knob(options, "tmix", "12");
  apply_knob(options, "budget", "99");
  EXPECT_EQ(options.params.c1, 6.5);
  EXPECT_TRUE(options.params.wide_messages);
  EXPECT_FALSE(options.params.coalesce_tokens);
  EXPECT_EQ(options.tmix_hint, 12u);
  EXPECT_EQ(options.probe_budget, 99u);
  EXPECT_THROW(apply_knob(options, "nonsense", "1"), std::invalid_argument);

  apply_bandwidth(options, "256");
  EXPECT_EQ(options.params.bandwidth_bits, 256u);
  apply_bandwidth(options, "wide");
  EXPECT_EQ(options.params.bandwidth_bits, 0u);
  EXPECT_TRUE(options.params.wide_messages);
  apply_bandwidth(options, "standard");
  EXPECT_FALSE(options.params.wide_messages);
}

// Every knob survives the trip options -> single_run_spec -> grammar ->
// expanded cell -> canonical key. The value map must name every key, so a
// new knob cannot skip this check.
TEST(SpecGrammar, EveryKnobRoundTripsThroughTheCanonicalKey) {
  const std::map<std::string, std::string> non_default = {
      {"budget", "7"},         {"c1", "3"},
      {"c2", "2.5"},           {"churn", "0.25"},
      {"churn-end", "9"},      {"churn-start", "2"},
      {"coalesce", "false"},   {"crash-round", "3"},
      {"initial-length", "2"}, {"lazy-walks", "false"},
      {"linkfail-round", "4"}, {"max-length", "64"},
      {"max-phases", "5"},     {"max-rounds", "100"},
      {"paper-schedule", "true"}, {"source", "3"},
      {"tmix", "12"},          {"tmix-mult", "1.5"},
      {"trace-every", "4"},    {"trace-walks", "2"},
      {"value-bits", "16"},    {"wide", "true"}};
  const std::vector<std::string> keys = knob_names();
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), non_default.size());
  for (const std::string& key : keys) {
    ASSERT_TRUE(non_default.count(key)) << "no test value for knob " << key;
    const std::string& value = non_default.at(key);
    RunOptions options;
    // wide=true is only a knob beside raw bits (else bandwidth=wide says
    // it); a churn fraction needs its window to form a valid fault plan.
    if (key == "wide") apply_bandwidth(options, "256");
    if (key == "churn") {
      apply_knob(options, "churn-start", "2");
      apply_knob(options, "churn-end", "9");
    }
    apply_knob(options, key, value);
    const std::string line =
        single_run_spec("election", "expander", 32, 1, 1, 1, options)
            .to_string();
    EXPECT_NE(line.find(" " + key + "=" + value + " "), std::string::npos)
        << line;
    const ExperimentSpec reparsed = parse_spec(line);
    const std::vector<SweepCell> cells = expand_cells(reparsed);
    ASSERT_EQ(cells.size(), 1u) << line;
    EXPECT_EQ(canonical_cell_key(reparsed, cells[0]), line);
  }
}

TEST(SpecGrammar, ParseOntoReplacesOnlyNamedAxes) {
  const ExperimentSpec base = builtin_experiment("e6", 1);
  // n=512 must override even though 512 is also parse_spec's default size,
  // and trials=1 even though the base has its own; unnamed axes (families,
  // bandwidths, the coalesce knob grid) keep the builtin values.
  const ExperimentSpec spec =
      parse_spec_onto(base, {"n=512", "trials=1", "reliable=1"});
  EXPECT_EQ(spec.sizes, std::vector<std::uint64_t>{512});
  EXPECT_EQ(spec.trials, 1);
  EXPECT_TRUE(spec.skip_unreliable);
  EXPECT_EQ(spec.families, base.families);
  EXPECT_EQ(spec.bandwidths, base.bandwidths);
  EXPECT_EQ(spec.knobs, base.knobs);
  EXPECT_EQ(spec.name, base.name);
  EXPECT_EQ(spec.title, base.title);

  // Naming a knob the base grids replaces that grid only.
  const ExperimentSpec knobbed = parse_spec_onto(base, {"coalesce=true"});
  EXPECT_EQ(knobbed.knobs.at("coalesce"), std::vector<std::string>{"true"});

  // Repeated mentions of the same key still accumulate.
  const ExperimentSpec repeated = parse_spec_onto(base, {"n=64", "n=128"});
  EXPECT_EQ(repeated.sizes, (std::vector<std::uint64_t>{64, 128}));
}

TEST(Builtins, AllBuiltinExperimentsResolve) {
  const std::vector<std::string> names = builtin_experiment_names();
  EXPECT_EQ(names.size(), 14u);
  for (const std::string& name : names) {
    for (int scale = 0; scale <= 2; ++scale) {
      const ExperimentSpec spec = builtin_experiment(name, scale);
      EXPECT_EQ(spec.name, name);
      EXPECT_FALSE(spec.title.empty()) << name;
      EXPECT_GE(spec.cell_count(), 1u) << name;
      EXPECT_GE(spec.trials, 1) << name;
      for (const std::string& algo : spec.algorithms)
        EXPECT_TRUE(AlgorithmRegistry::instance().contains(algo))
            << name << " uses unknown algorithm " << algo;
    }
  }
  EXPECT_THROW(builtin_experiment("e99"), std::invalid_argument);
}

TEST(Builtins, ToStringRoundTripsTheGrid) {
  for (const std::string& name : builtin_experiment_names()) {
    const ExperimentSpec spec = builtin_experiment(name, 0);
    const ExperimentSpec reparsed = parse_spec(spec.to_string());
    EXPECT_EQ(reparsed.algorithms, spec.algorithms) << name;
    EXPECT_EQ(reparsed.families, spec.families) << name;
    EXPECT_EQ(reparsed.sizes, spec.sizes) << name;
    EXPECT_EQ(reparsed.bandwidths, spec.bandwidths) << name;
    EXPECT_EQ(reparsed.drops, spec.drops) << name;
    EXPECT_EQ(reparsed.trials, spec.trials) << name;
    EXPECT_EQ(reparsed.base_seed, spec.base_seed) << name;
    EXPECT_EQ(reparsed.graph_seed, spec.graph_seed) << name;
    EXPECT_EQ(reparsed.skip_unreliable, spec.skip_unreliable) << name;
    EXPECT_EQ(reparsed.knobs, spec.knobs) << name;
    EXPECT_EQ(reparsed.cell_count(), spec.cell_count()) << name;
  }
}

TEST(Builtins, BenchScaleEnvironmentIsParsedStrictly) {
  unsetenv("WCLE_BENCH_SCALE");
  EXPECT_EQ(default_bench_scale(), 1);
  for (const int scale : {0, 1, 2}) {
    setenv("WCLE_BENCH_SCALE", std::to_string(scale).c_str(), 1);
    EXPECT_EQ(default_bench_scale(), scale);
  }
  // atoi used to read "3" as 1 and "x" as 0.
  for (const char* bad :
       {"3", "x", "", "1x", "-1", "+1", "18446744073709551616", " 1",
        "\t2", "1 "}) {
    setenv("WCLE_BENCH_SCALE", bad, 1);
    try {
      default_bench_scale();
      ADD_FAILURE() << "accepted WCLE_BENCH_SCALE=" << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("WCLE_BENCH_SCALE"),
                std::string::npos)
          << e.what();
    }
  }
  unsetenv("WCLE_BENCH_SCALE");
}

TEST(Builtins, ScaleZeroStaysSmall) {
  // The CI smoke job runs every spec at scale 0 twice; keep the grids tiny.
  for (const std::string& name : builtin_experiment_names()) {
    const ExperimentSpec spec = builtin_experiment(name, 0);
    EXPECT_LE(spec.cell_count(), 64u) << name;
  }
}

// canonical_cell_key is a persistence format: trace headers record it for
// single runs and the serve CellCache keys on it, so the exact bytes are
// pinned here. A deliberate grammar change must update these strings (and
// invalidates old caches — which is correct, the key IS the identity).
TEST(CanonicalCellKey, GoldenStrings) {
  const ExperimentSpec spec = parse_spec(
      "algo=election,flood_max family=expander n=32,64 trials=3 "
      "base-seed=500 graph-seed=9");
  const std::vector<SweepCell> cells = sweep_cells(spec);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(canonical_cell_key(spec, cells[0]),
            "name=single algo=election family=expander n=32 "
            "bandwidth=standard drop=0 trials=3 base-seed=500 graph-seed=9");
  EXPECT_EQ(canonical_cell_key(spec, cells[1]),
            "name=single algo=flood_max family=expander n=32 "
            "bandwidth=standard drop=0 trials=3 base-seed=500 graph-seed=9");
  EXPECT_EQ(canonical_cell_key(spec, cells[3]),
            "name=single algo=flood_max family=expander n=64 "
            "bandwidth=standard drop=0 trials=3 base-seed=500 graph-seed=9");
}

TEST(CanonicalCellKey, ResolvedKnobsAndFaultAxesSurvive) {
  // c1=3 is deliberately non-default (ElectionParams defaults c1 to 4): the
  // key canonicalizes default-valued knobs away, so only a non-default value
  // can demonstrate that knobs survive into the key.
  const ExperimentSpec spec = parse_spec(
      "algo=election family=hypercube n=64 bandwidth=wide crash=0.1 "
      "linkfail=0.05 adversary=contenders c1=3 max-length=256 trials=2");
  const std::vector<SweepCell> cells = sweep_cells(spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(canonical_cell_key(spec, cells[0]),
            "name=single algo=election family=hypercube n=64 bandwidth=wide "
            "drop=0 crash=0.1 linkfail=0.05 adversary=contenders c1=3 "
            "max-length=256 trials=2 base-seed=1000 graph-seed=1");
}

TEST(CanonicalCellKey, SameComputationFromDifferentGridsSharesKey) {
  // A cell reached via a grid axis and the same cell written directly must
  // collapse onto one key — that is what makes the serve cache correct
  // across overlapping submissions.
  const ExperimentSpec grid =
      parse_spec("algo=election family=expander n=32,64 c1=2,3 trials=2");
  const ExperimentSpec direct =
      parse_spec("algo=election family=expander n=64 c1=3 trials=2");
  const std::vector<SweepCell> grid_cells = sweep_cells(grid);
  const std::vector<SweepCell> direct_cells = sweep_cells(direct);
  ASSERT_EQ(grid_cells.size(), 4u);
  ASSERT_EQ(direct_cells.size(), 1u);
  EXPECT_EQ(canonical_cell_key(grid, grid_cells[3]),
            canonical_cell_key(direct, direct_cells[0]));
  // And distinct computations stay distinct.
  EXPECT_NE(canonical_cell_key(grid, grid_cells[0]),
            canonical_cell_key(grid, grid_cells[1]));
}

TEST(CanonicalCellKey, RoundTripsThroughTheGrammar) {
  // The key is itself a valid spec whose only cell is the keyed cell: parse
  // it back and the (single) expanded cell re-keys to the same string.
  const ExperimentSpec spec = parse_spec(
      "algo=election family=expander n=32 bandwidth=wide c2=8 trials=2");
  const std::string key = canonical_cell_key(spec, sweep_cells(spec)[0]);
  const ExperimentSpec reparsed = parse_spec(key);
  const std::vector<SweepCell> cells = sweep_cells(reparsed);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(canonical_cell_key(reparsed, cells[0]), key);
}

}  // namespace
}  // namespace wcle
