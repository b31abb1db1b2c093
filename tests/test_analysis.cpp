// Tests for the experiment harness: aggregation correctness, determinism,
// graph profiling, and the theorem envelopes used to normalize bench rows.
#include <gtest/gtest.h>

#include <cmath>

#include "wcle/analysis/experiment.hpp"
#include "wcle/api/registry.hpp"
#include "wcle/api/trials.hpp"
#include "wcle/graph/generators.hpp"
#include "wcle/graph/lower_bound_graph.hpp"

namespace wcle {
namespace {

TrialStats election_trials(const Graph& g, const ElectionParams& p,
                           int trials, std::uint64_t base_seed) {
  RunOptions options;
  options.params = p;
  return run_trials(AlgorithmRegistry::instance().at("election"), g, options,
                    trials, base_seed, /*threads=*/1);
}

TEST(Analysis, TrialsAreDeterministicInBaseSeed) {
  const Graph g = make_clique(48);
  ElectionParams p;
  const TrialStats a = election_trials(g, p, 6, 500);
  const TrialStats b = election_trials(g, p, 6, 500);
  EXPECT_EQ(a.congest_messages.mean, b.congest_messages.mean);
  EXPECT_EQ(a.rounds.max, b.rounds.max);
  EXPECT_EQ(a.success_rate, b.success_rate);
  const TrialStats c = election_trials(g, p, 6, 501);
  EXPECT_NE(a.congest_messages.mean, c.congest_messages.mean);
}

TEST(Analysis, TrialStatsFieldsAreConsistent) {
  const Graph g = make_hypercube(6);
  ElectionParams p;
  const TrialStats s = election_trials(g, p, 8, 42);
  EXPECT_EQ(s.trials, 8);
  EXPECT_EQ(s.congest_messages.count, 8u);
  EXPECT_LE(s.congest_messages.min, s.congest_messages.mean);
  EXPECT_GE(s.congest_messages.max, s.congest_messages.mean);
  EXPECT_GE(s.rounds.min, 1.0);
  // Scheduled rounds always dominate measured rounds.
  EXPECT_GE(s.extras.at("scheduled_rounds").min, s.rounds.max * 0.99);
  EXPECT_GT(s.extras.at("contenders").mean, 1.0);
  EXPECT_GE(s.extras.at("phases").mean, 1.0);
}

TEST(Analysis, ProfileOnLowerBoundGraphMatchesAlpha) {
  Rng rng(9);
  const LowerBoundGraph lb = make_lower_bound_graph(700, 0.005, rng);
  const GraphProfile prof = profile_graph(lb.graph, 2);
  EXPECT_EQ(prof.n, lb.graph.node_count());
  EXPECT_EQ(prof.m, lb.graph.edge_count());
  EXPECT_GT(prof.sweep_conductance, 0.005 / 8);
  EXPECT_LT(prof.sweep_conductance, 0.005 * 8);
  // Equation (1): tmix between ~1/phi and ~1/phi^2.
  EXPECT_GT(static_cast<double>(prof.tmix), 0.05 / 0.005);
  EXPECT_LT(static_cast<double>(prof.tmix), 40.0 / (0.005 * 0.005));
}

TEST(Analysis, EnvelopeFormulas) {
  // Exact arithmetic of the envelopes at a hand-computable point.
  const double lg = 10.0;  // n = 1024
  EXPECT_NEAR(theorem13_message_envelope(1024, 7),
              32.0 * std::pow(lg, 3.5) * 7.0, 1e-6);
  EXPECT_NEAR(theorem13_time_envelope(1024, 7), 700.0, 1e-9);
  EXPECT_NEAR(theorem15_message_envelope(1024, 1.0 / 16.0),
              32.0 * std::pow(16.0, 0.75), 1e-9);
}

TEST(Analysis, FailureRatesPartitionUnity) {
  const Graph g = make_clique(40);
  ElectionParams p;
  p.c1 = 0.0;  // guarantee failure: no contenders
  const TrialStats s = election_trials(g, p, 4, 1);
  EXPECT_EQ(s.success_rate, 0.0);
  EXPECT_EQ(s.zero_leader_rate, 1.0);
  EXPECT_EQ(s.multi_leader_rate, 0.0);
}

}  // namespace
}  // namespace wcle
