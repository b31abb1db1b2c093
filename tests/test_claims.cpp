// The paper's numeric claims, asserted. Each test runs one builtin
// experiment (api/scenario.cpp; `wcle_cli sweep --spec=eK` prints the same
// table) at WCLE_BENCH_SCALE depth — ctest runs scale 0, the CI `claims`
// job scale 1 — and checks the inequality the paper states about it. Seeds
// are fixed, so every assertion is deterministic; every EXPECT streams the
// ratio it checks, so a failure explains itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "wcle/analysis/experiment.hpp"
#include "wcle/api/scenario.hpp"
#include "wcle/api/sweep.hpp"
#include "wcle/core/leader_election.hpp"
#include "wcle/graph/dumbbell.hpp"
#include "wcle/graph/families.hpp"
#include "wcle/graph/generators.hpp"
#include "wcle/graph/lower_bound_graph.hpp"
#include "wcle/graph/spectral.hpp"
#include "wcle/support/stats.hpp"

namespace wcle {
namespace {

/// Runs `spec` with no sink and checks the claim every sweep shares: a
/// crash-free cell is always safe (at most one leader).
std::vector<CellResult> checked_sweep(const ExperimentSpec& spec) {
  const std::vector<CellResult> results = run_sweep(spec, {});
  for (const CellResult& r : results) {
    if (r.cell.crash != 0.0) continue;
    EXPECT_EQ(r.stats.safety_rate, 1.0)
        << spec.name << " " << r.cell.algorithm << " on " << r.cell.family
        << " n=" << r.n;
  }
  return results;
}

std::vector<CellResult> builtin_sweep(const std::string& name) {
  return checked_sweep(builtin_experiment(name, default_bench_scale()));
}

double log2n(std::uint64_t n) { return std::log2(static_cast<double>(n)); }

double extra_mean(const CellResult& r, const std::string& key) {
  const auto it = r.stats.extras.find(key);
  EXPECT_NE(it, r.stats.extras.end()) << key << " missing on " << r.cell.family;
  return it == r.stats.extras.end() ? 0.0 : it->second.mean;
}

// ------------------------------------------------------- E1/E2: Theorem 13

// Largest log-log slope of (measured / envelope) over the ladder that still
// reads "does not grow": the ladder measures -0.07 (messages) and +0.09
// (rounds), while a walk count of c2*n/4 instead of c2*sqrt(n log n) reads
// +0.71.
constexpr double kMaxEnvelopeSlope = 0.25;

/// E1 and E2 share one fixed expander ladder. The builtin e1/e2 sizes at
/// scale 0 (n = 128, 256) sit in the polylog regime, where the envelope
/// ratio still climbs (2.36 -> 2.56) without any fault in the program;
/// from n = 1,024 on it is flat, which is the form of the claim that
/// resolves at sizes a test can run.
const std::vector<CellResult>& expander_ladder() {
  static const std::vector<CellResult> results = [] {
    ExperimentSpec spec = builtin_experiment("e1");
    spec.sizes = {1024, 2048, 4096};
    spec.trials = 4;
    return checked_sweep(spec);
  }();
  return results;
}

/// Log-log slope of y / envelope(n) across the ladder.
double envelope_slope(double (*y)(const CellResult&),
                      double (*envelope)(std::uint64_t)) {
  std::vector<double> ns, ratios;
  for (const CellResult& r : expander_ladder()) {
    ns.push_back(static_cast<double>(r.n));
    ratios.push_back(y(r) / envelope(r.n));
  }
  return fit_power_law(ns, ratios).slope;
}

TEST(Claims, E1MessagesStayWithinTheorem13Envelope) {
  // tmix = log2 n on expanders: sqrt(n) log^{7/2} n * tmix.
  const double slope = envelope_slope(
      [](const CellResult& r) { return r.stats.congest_messages.mean; },
      [](std::uint64_t n) {
        return theorem13_message_envelope(n, static_cast<std::uint64_t>(
                                                 log2n(n)));
      });
  EXPECT_LE(slope, kMaxEnvelopeSlope)
      << "msgs/(sqrt(n) log^4.5 n) grows as n^" << slope;
}

TEST(Claims, E2RoundsStayWithinTheorem13EnvelopeAndSchedule) {
  const double slope = envelope_slope(
      [](const CellResult& r) { return r.stats.rounds.mean; },
      [](std::uint64_t n) {
        return theorem13_time_envelope(n, static_cast<std::uint64_t>(
                                              log2n(n)));
      });
  EXPECT_LE(slope, kMaxEnvelopeSlope)
      << "rounds/log^3 n grows as n^" << slope;
  // schedule_slack = scheduled - measured rounds per trial; a negative min
  // means some trial overran its own Lemma 12 schedule.
  for (const CellResult& r : expander_ladder()) {
    const auto slack = r.stats.extras.find("schedule_slack");
    ASSERT_NE(slack, r.stats.extras.end());
    EXPECT_GE(slack->second.min, 0.0) << "n=" << r.n;
  }
}

// ------------------------------------------------------------ E3: hypercube

TEST(Claims, E3HypercubeMessagesDoNotOutgrowTheirEnvelope) {
  // Hypercube tmix = O(log n log log n).
  const auto ratio = [](const CellResult& r) {
    const double lg = log2n(r.n);
    return r.stats.congest_messages.mean /
           (std::sqrt(static_cast<double>(r.n)) * std::pow(lg, 4.5) *
            std::log2(lg + 1.0));
  };
  const std::vector<CellResult> results = builtin_sweep("e3");
  ASSERT_GE(results.size(), 2u);
  EXPECT_LE(ratio(results.back()), ratio(results.front()))
      << "msgs/envelope " << ratio(results.front()) << " at n="
      << results.front().n << " -> " << ratio(results.back()) << " at n="
      << results.back().n;
}

// ------------------------------------------------------ E4: clique crossover

TEST(Claims, E4CliqueMessagesAreSublinearInMAndBeatFlooding) {
  std::map<std::uint64_t, std::map<std::string, double>> msgs;
  std::map<std::uint64_t, double> edges;
  for (const CellResult& r : builtin_sweep("e4")) {
    msgs[r.n][r.cell.algorithm] = r.stats.congest_messages.mean;
    edges[r.n] = static_cast<double>(r.m);
  }
  ASSERT_GE(msgs.size(), 2u);
  const auto ours_per_m = [&](std::uint64_t n) {
    return msgs[n]["election"] / edges[n];
  };
  const auto flood_ratio = [&](std::uint64_t n, const std::string& algo) {
    return msgs[n][algo] / msgs[n]["election"];
  };
  for (auto it = std::next(msgs.begin()); it != msgs.end(); ++it) {
    const std::uint64_t prev = std::prev(it)->first, n = it->first;
    EXPECT_LT(ours_per_m(n), ours_per_m(prev))
        << "ours/m " << ours_per_m(prev) << " at n=" << prev << " -> "
        << ours_per_m(n) << " at n=" << n;
    for (const std::string algo : {"flood_max", "candidate_flood"})
      EXPECT_GT(flood_ratio(n, algo), flood_ratio(prev, algo))
          << algo << "/ours " << flood_ratio(prev, algo) << " at n=" << prev
          << " -> " << flood_ratio(n, algo) << " at n=" << n;
  }
  const std::uint64_t largest = msgs.rbegin()->first;
  for (const std::string algo : {"flood_max", "candidate_flood"})
    EXPECT_GT(flood_ratio(largest, algo), 1.0)
        << algo << "/ours at n=" << largest;
}

// -------------------------------------------------- E7: Theorem 15 sandwich

// Theorem 13 is an O() bound; the profiled-tmix envelope already carries
// every polylog, so the measured bill may exceed it by at most 2x
// (measured: <= 1.14 at scale 0, <= 0.45 at scale 1).
constexpr double kMaxUpperEnvelopeRatio = 2.0;

/// Lemma 18's port probing: each clique opens `budget_per_clique` of its
/// ~s^2 ports uniformly at random; an inter-clique edge is found if either
/// endpoint clique opens its port. Returns the number of connected
/// components of the resulting clique-communication graph CG.
std::uint64_t shattered_components(const LowerBoundGraph& lb,
                                   std::uint64_t budget_per_clique, Rng& rng) {
  const double total_ports = static_cast<double>(lb.clique_size) *
                             static_cast<double>(lb.clique_size - 1);
  const double p_find_one = std::min(
      1.0, static_cast<double>(budget_per_clique) / total_ports);
  std::vector<NodeId> parent(lb.num_cliques);
  for (NodeId i = 0; i < lb.num_cliques; ++i) parent[i] = i;
  const auto find = [&](NodeId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::uint64_t components = lb.num_cliques;
  for (const Edge& e : lb.inter_clique_edges) {
    if (!rng.next_bool(p_find_one) && !rng.next_bool(p_find_one)) continue;
    const NodeId a = find(lb.clique_of[e.a]), b = find(lb.clique_of[e.b]);
    if (a != b) {
      parent[a] = b;
      --components;
    }
  }
  return components;
}

TEST(Claims, E7MessagesSitBetweenTheorem15AndTheorem13AndBudgetsShatter) {
  const int sc = default_bench_scale();
  const ExperimentSpec spec = builtin_experiment("e7", sc);
  for (const CellResult& r : checked_sweep(spec)) {
    const double msgs = r.stats.congest_messages.mean;
    const double alpha = lowerbound_alpha(r.cell.family);
    // The sweep's own graph: same (family, n, graph_seed).
    const Graph g = make_family(
        r.cell.family, static_cast<NodeId>(r.cell.requested_n),
        spec.graph_seed);
    const double lower = theorem15_message_envelope(r.n, alpha);
    const double upper =
        theorem13_message_envelope(r.n, profile_graph(g, 2).tmix);
    EXPECT_GE(msgs / lower, 1.0) << r.cell.family << " msgs/floor";
    EXPECT_LE(msgs / upper, kMaxUpperEnvelopeRatio)
        << r.cell.family << " msgs/envelope";
  }

  // The proof's mechanism: small message budgets shatter the clique graph.
  const NodeId n = sc >= 2 ? 1200 : (sc == 1 ? 700 : 500);
  Rng grng(0xE7999);
  const LowerBoundGraph lb = make_lower_bound_graph(n, 0.003, grng);
  const double s2 = static_cast<double>(lb.clique_size) *
                    static_cast<double>(lb.clique_size);
  const int reps = 20;
  for (const double frac : {0.01, 0.05, 0.25, 1.0, 4.0}) {
    Rng rng(0xE7B00);
    double comps = 0;
    for (int i = 0; i < reps; ++i)
      comps += static_cast<double>(shattered_components(
          lb, static_cast<std::uint64_t>(frac * s2), rng));
    comps /= reps;
    // Below ~s^2 = Theta(n^{2eps}) per clique CG stays disconnected (the
    // 0-or-many-leaders failure of Lemmas 19-25); at s^2 it connects.
    if (frac <= 0.25)
      EXPECT_GT(comps, 1.0) << "budget " << frac << " s^2";
    else
      EXPECT_EQ(comps, 1.0) << "budget " << frac << " s^2";
  }
}

// ------------------------------------------------ E8: Lemma 16 / Claim 17

// Lemma 16's Theta(alpha): the band the sweep-cut conductance must stay in
// (measured: 0.87-1.61).
constexpr double kMinPhiOverAlpha = 0.5;
constexpr double kMaxPhiOverAlpha = 2.0;
// Claim 17: cutting through a clique costs Theta(1) conductance against
// Theta(alpha) for a whole-clique cut; measured 0.0167 vs 0.55.
constexpr double kMinCliqueCutGap = 10.0;

TEST(Claims, E8ConductanceOfGAlphaIsThetaAlphaAndCutsAvoidCliques) {
  for (const CellResult& r : builtin_sweep("e8")) {
    const double alpha = lowerbound_alpha(r.cell.family);
    const double phi = extra_mean(r, "sweep_phi");
    EXPECT_GE(phi / alpha, kMinPhiOverAlpha) << r.cell.family;
    EXPECT_LE(phi / alpha, kMaxPhiOverAlpha) << r.cell.family;
    EXPECT_LE(extra_mean(r, "cheeger_lower"), phi) << r.cell.family;
    EXPECT_LE(phi, extra_mean(r, "cheeger_upper")) << r.cell.family;
  }

  // Claim 17: the optimal cut avoids the cliques.
  const int sc = default_bench_scale();
  const NodeId n = sc >= 2 ? 4000 : (sc == 1 ? 2000 : 800);
  Rng grng(0xE8010);
  const LowerBoundGraph lb = make_lower_bound_graph(n, 0.004, grng);
  std::vector<char> whole(lb.graph.node_count(), 0);
  for (NodeId v = 0; v < lb.clique_size; ++v) whole[v] = 1;
  std::vector<char> half(lb.graph.node_count(), 0);
  for (NodeId v = 0; v < lb.clique_size / 2; ++v) half[v] = 1;
  const double whole_cut = cut_conductance(lb.graph, whole);
  const double half_cut = cut_conductance(lb.graph, half);
  EXPECT_LE(whole_cut * kMinCliqueCutGap, half_cut)
      << "whole-clique cut " << whole_cut << " vs half-clique cut "
      << half_cut;
}

// ------------------------------------------------ E9: Corollary 14 split

TEST(Claims, E9ElectionTermDominatesAtSimulableSizes) {
  // Asymptotically the n log n / phi broadcast term wins, but only past
  // ~2^20 nodes; below that the election's log^{7/2} n factor dominates.
  for (const CellResult& r : builtin_sweep("e9")) {
    const double ratio = extra_mean(r, "broadcast_messages") /
                         std::max(1.0, extra_mean(r, "election_messages"));
    EXPECT_LT(ratio, 1.0) << r.cell.family << " n=" << r.n << " bcast/elect";
  }
}

// ---------------------------------------------- E10: Corollaries 26/27

// Omega(n / sqrt(phi)) with the constant the three algorithms meet
// (measured minimum 0.852 at both scales).
constexpr double kMinBroadcastFloorRatio = 0.5;

TEST(Claims, E10BroadcastPaysNOverSqrtPhi) {
  for (const CellResult& r : builtin_sweep("e10")) {
    const double floor = static_cast<double>(r.n) /
                         std::sqrt(lowerbound_alpha(r.cell.family));
    EXPECT_GE(r.stats.congest_messages.mean / floor, kMinBroadcastFloorRatio)
        << r.cell.algorithm << " on " << r.cell.family << " msgs/floor";
  }
}

// ---------------------------------------------- E11: Theorem 28 split brain

TEST(Claims, E11UnknownNSplitsTheDumbbellBrain) {
  for (const CellResult& r : builtin_sweep("e11"))
    EXPECT_EQ(r.stats.success_rate, 1.0) << r.cell.family << " n=" << r.n;

  std::vector<std::pair<const char*, Graph>> bases;
  bases.emplace_back("torus_8x8", make_torus(8, 8));
  bases.emplace_back("hypercube_64", make_hypercube(6));
  if (default_bench_scale() >= 1) {
    Rng grng(0xEB001);
    bases.emplace_back("expander6_128", make_random_regular(128, 6, grng));
    bases.emplace_back("torus_12x12", make_torus(12, 12));
  }
  for (const auto& [name, base] : bases) {
    Rng drng(0xEB100);
    const DumbbellGraph d = make_random_dumbbell(base, drng);
    // Believing n = |G0|, each half runs exactly as an independent election
    // on G0 (Observation 31), so each elects its own leader.
    ElectionParams p;
    p.seed = 0xEB200;
    const std::size_t left = run_leader_election(base, p).leaders.size();
    p.seed = 0xEB201;
    const std::size_t right = run_leader_election(base, p).leaders.size();
    EXPECT_EQ(left + right, 2u) << name << " split-brain leaders";
    p.seed = 0xEB202;
    EXPECT_EQ(run_leader_election(d.graph, p).leaders.size(), 1u)
        << name << " true-n leaders";
  }
}

// ------------------------------------------------ E12: the price of tmix

TEST(Claims, E12EstimatingTmixCostsMoreThanGuessAndDouble) {
  std::map<std::string, std::map<std::string, const CellResult*>> by_family;
  const std::vector<CellResult> results = builtin_sweep("e12");
  for (const CellResult& r : results)
    by_family[r.cell.family][r.cell.algorithm] = &r;
  for (const auto& [family, algos] : by_family) {
    const CellResult& ours = *algos.at("election");
    const CellResult& known = *algos.at("known_tmix");
    // Guess-and-double costs at most O(log^2 n) rounds over the oracle.
    const double rounds = ours.stats.rounds.mean / known.stats.rounds.mean;
    EXPECT_LE(rounds, log2n(ours.n) * log2n(ours.n))
        << family << " rounds ours/known";
    // The Omega(m) estimation fee outweighs the election only where m is
    // large: on the sparse families (m = O(n)) it reads below 1 at these n.
    if (family != "clique") continue;
    const double fee = algos.at("estimate_then_elect")
                           ->stats.congest_messages.mean /
                       ours.stats.congest_messages.mean;
    EXPECT_GT(fee, 1.0) << family << " msgs est+elect/ours";
  }
}

}  // namespace
}  // namespace wcle
