// Cross-module integration tests: the full pipeline (generator -> spectral
// characterization -> election -> broadcast) and the paper-level claims that
// only emerge from modules composed together.
#include <gtest/gtest.h>

#include <cmath>

#include "wcle/analysis/experiment.hpp"
#include "wcle/api/registry.hpp"
#include "wcle/api/trials.hpp"
#include "wcle/baselines/candidate_flood.hpp"
#include "wcle/baselines/known_tmix.hpp"
#include "wcle/core/explicit_election.hpp"
#include "wcle/core/leader_election.hpp"
#include "wcle/graph/dumbbell.hpp"
#include "wcle/graph/generators.hpp"
#include "wcle/graph/lower_bound_graph.hpp"
#include "wcle/graph/spectral.hpp"

namespace wcle {
namespace {

TEST(Integration, TrialHarnessAggregates) {
  const Graph g = make_clique(64);
  RunOptions options;
  const TrialStats stats =
      run_trials(AlgorithmRegistry::instance().at("election"), g, options, 10,
                 /*base_seed=*/1000, /*threads=*/1);
  EXPECT_EQ(stats.trials, 10);
  EXPECT_GE(stats.success_rate, 0.8);
  EXPECT_NEAR(stats.success_rate + stats.zero_leader_rate +
                  stats.multi_leader_rate,
              1.0, 1e-12);
  EXPECT_GT(stats.congest_messages.mean, 0.0);
  EXPECT_GT(stats.extras.at("contenders").mean, 5.0);
}

TEST(Integration, ProfileGraphMatchesKnownFamilies) {
  const GraphProfile clique = profile_graph(make_clique(64));
  const GraphProfile ring = profile_graph(make_ring(64));
  EXPECT_LT(clique.tmix, 8u);
  EXPECT_GT(ring.tmix, 200u);
  EXPECT_GT(clique.sweep_conductance, 0.3);
  EXPECT_LT(ring.sweep_conductance, 0.05);
  // Cheeger sandwich: lower <= sweep (upper bound proxy for phi).
  EXPECT_LE(clique.cheeger_lower, clique.sweep_conductance * 1.001);
  EXPECT_LE(ring.cheeger_lower, ring.sweep_conductance * 1.001);
}

TEST(Integration, BeatsFloodingOnDenseWellConnectedGraphs) {
  // Theorem 13 vs the Omega(m) regime of [24]: the paper's win is on dense
  // well-connected graphs, where m = Theta(n^2) dwarfs sqrt(n) polylog.
  // (On sparse expanders m = Theta(n) and flooding stays competitive at any
  // simulable n — the crossover there is astronomically far out.)
  const Graph g = make_clique(1024);
  ElectionParams p;
  p.seed = 5;
  const ElectionResult ours = run_leader_election(g, p);
  const CandidateFloodResult flood = run_candidate_flood(g, 5);
  ASSERT_TRUE(ours.success());
  ASSERT_TRUE(flood.success());
  EXPECT_LT(ours.totals.congest_messages, flood.totals.congest_messages);
  // And the gap must widen with n: compare against half the size.
  const Graph g2 = make_clique(512);
  const ElectionResult ours2 = run_leader_election(g2, p);
  const CandidateFloodResult flood2 = run_candidate_flood(g2, 5);
  ASSERT_TRUE(ours2.success());
  ASSERT_TRUE(flood2.success());
  const double gap_small = double(flood2.totals.congest_messages) /
                           double(ours2.totals.congest_messages);
  const double gap_large = double(flood.totals.congest_messages) /
                           double(ours.totals.congest_messages);
  EXPECT_GT(gap_large, gap_small);
}

TEST(Integration, GuessAndDoubleTracksMixingTime) {
  // Lemma 6 across families: stopping length correlates with measured tmix.
  const Graph fast = make_clique(128);
  const Graph slow = make_torus(12, 12);
  const std::uint64_t tmix_fast = mixing_time_exact(fast, 1u << 18);
  const std::uint64_t tmix_slow = mixing_time_exact(slow, 1u << 18);
  ASSERT_LT(tmix_fast, tmix_slow);
  ElectionParams p;
  p.seed = 11;
  const ElectionResult rf = run_leader_election(fast, p);
  const ElectionResult rs = run_leader_election(slow, p);
  ASSERT_TRUE(rf.success());
  ASSERT_TRUE(rs.success());
  EXPECT_LT(rf.final_length, rs.final_length);
}

TEST(Integration, KnownTmixUsesFewerRoundsThanGuessAndDouble) {
  // E12's claim: knowing tmix removes the doubling phases.
  const Graph g = make_hypercube(7);
  const std::uint32_t tmix =
      static_cast<std::uint32_t>(mixing_time_exact(g, 1u << 16));
  ElectionParams p;
  p.seed = 13;
  const ElectionResult ours = run_leader_election(g, p);
  const KnownTmixResult known = run_known_tmix_election(g, 2 * tmix, p);
  ASSERT_TRUE(ours.success());
  ASSERT_TRUE(known.success());
  EXPECT_LT(known.rounds, ours.totals.rounds);
  EXPECT_LT(known.totals.congest_messages, ours.totals.congest_messages);
}

TEST(Integration, ElectionWorksOnLowerBoundGraph) {
  // The algorithm must still elect on the adversarial G(alpha) — just at a
  // cost tracking its tiny conductance.
  Rng grng(31);
  const LowerBoundGraph lb = make_lower_bound_graph(600, 0.006, grng);
  ElectionParams p;
  p.seed = 3;
  const ElectionResult r = run_leader_election(lb.graph, p);
  EXPECT_LE(r.leaders.size(), 1u);
  EXPECT_TRUE(r.success());
}

TEST(Integration, ElectionOnDumbbellWithCorrectN) {
  // With n known (the full dumbbell size), election stays correct even on
  // the Theorem 28 construction.
  const Graph base = make_torus(6, 6);
  Rng drng(7);
  const DumbbellGraph d = make_random_dumbbell(base, drng);
  ElectionParams p;
  p.seed = 9;
  const ElectionResult r = run_leader_election(d.graph, p);
  EXPECT_TRUE(r.success());
}

TEST(Integration, UnknownNSplitBrainOnDumbbell) {
  // Theorem 28's engine: run the election independently on each half (what
  // an algorithm parameterized with n0 = |G0| would do before any bridge
  // crossing, by indistinguishability) — both halves elect, giving two
  // leaders on the dumbbell.
  const Graph base = make_torus(6, 6);
  ElectionParams p;
  p.seed = 17;
  const ElectionResult left = run_leader_election(base, p);
  p.seed = 18;
  const ElectionResult right = run_leader_election(base, p);
  ASSERT_TRUE(left.success());
  ASSERT_TRUE(right.success());
  // Two independent leaders: the dumbbell would end with 2 leaders unless
  // Omega(m) messages are spent discovering the bridges.
  EXPECT_EQ(left.leaders.size() + right.leaders.size(), 2u);
}

TEST(Integration, EnvelopesAreMonotone) {
  EXPECT_LT(theorem13_message_envelope(1 << 10, 10),
            theorem13_message_envelope(1 << 12, 10));
  EXPECT_LT(theorem13_time_envelope(1 << 10, 10),
            theorem13_time_envelope(1 << 10, 20));
  EXPECT_GT(theorem15_message_envelope(1 << 10, 0.001),
            theorem15_message_envelope(1 << 10, 0.01));
}

TEST(Integration, ExplicitElectionCostSplitMatchesCorollary14) {
  // Election messages ~ sqrt(n) polylog; broadcast ~ n log n / phi. On a
  // clique (phi ~ 1) both are modest but broadcast grows linearly in n while
  // the election grows ~sqrt(n): the ratio must move toward broadcast.
  ElectionParams p;
  p.seed = 23;
  const ExplicitElectionResult small =
      run_explicit_election(make_clique(64), p);
  const ExplicitElectionResult large =
      run_explicit_election(make_clique(512), p);
  ASSERT_TRUE(small.success);
  ASSERT_TRUE(large.success);
  const double ratio_small =
      static_cast<double>(small.broadcast.totals.logical_messages) /
      static_cast<double>(small.election.totals.logical_messages);
  const double ratio_large =
      static_cast<double>(large.broadcast.totals.logical_messages) /
      static_cast<double>(large.election.totals.logical_messages);
  EXPECT_GT(ratio_large, ratio_small);
}

}  // namespace
}  // namespace wcle
