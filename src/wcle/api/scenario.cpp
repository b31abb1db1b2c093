#include "wcle/api/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "wcle/api/registry.hpp"
#include "wcle/api/serialize.hpp"
#include "wcle/api/sweep.hpp"
#include "wcle/fault/adversary.hpp"
#include "wcle/support/strict_parse.hpp"

namespace wcle {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(s);
  while (std::getline(in, item, sep)) out.push_back(item);
  return out;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  if (const auto v = strict_u64(value)) return *v;
  throw std::invalid_argument("spec: " + key + "=" + value +
                              " is not a non-negative integer");
}

std::uint32_t parse_u32(const std::string& key, const std::string& value) {
  const std::uint64_t v = parse_u64(key, value);
  if (v > 0xffffffffull)
    throw std::invalid_argument("spec: " + key + "=" + value +
                                " exceeds the 32-bit limit");
  return static_cast<std::uint32_t>(v);
}

double parse_double(const std::string& key, const std::string& value) {
  if (const auto v = strict_double(value)) return *v;
  throw std::invalid_argument("spec: " + key + "=" + value +
                              " is not a number");
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true" || value == "yes" || value == "on")
    return true;
  if (value == "0" || value == "false" || value == "no" || value == "off")
    return false;
  throw std::invalid_argument("spec: " + key + "=" + value +
                              " is not a boolean (use true/false)");
}

// Shortest round-trip rendering (serialize.cpp's json_number): a value
// written into a spec line parses back to the identical double, which the
// trace replay verifier depends on — a lossy "%g" here would make a
// replayed run silently diverge from the recorded one.
std::string format_double(double v) { return json_number(v); }

template <typename T>
std::string join(const std::vector<T>& values) {
  std::ostringstream out;
  for (std::size_t i = 0; i < values.size(); ++i)
    out << (i ? "," : "") << values[i];
  return out.str();
}

// ----------------------------------------------------------- knob table

// The grammar's text form of each field type a knob can hold.
template <typename T>
T parse_as(const std::string& key, const std::string& value) {
  if constexpr (std::is_same_v<T, bool>)
    return parse_bool(key, value);
  else if constexpr (std::is_same_v<T, double>)
    return parse_double(key, value);
  else if constexpr (std::is_same_v<T, std::uint32_t>)
    return parse_u32(key, value);
  else
    return parse_u64(key, value);
}

template <typename T>
std::string format_as(T v) {
  if constexpr (std::is_same_v<T, bool>)
    return v ? "true" : "false";
  else if constexpr (std::is_same_v<T, double>)
    return format_double(v);
  else
    return std::to_string(v);
}

/// One run option: its grammar key, a setter that parses and validates the
/// value, the canonical text of the option's current value, and that text
/// for a default RunOptions.
struct Knob {
  std::string key;
  std::function<void(RunOptions&, const std::string&)> set;
  std::function<std::string(const RunOptions&)> format;
  std::string default_text;
};

struct NoCheck {
  template <typename T>
  void operator()(const T&, const std::string&) const {}
};

/// A knob over the RunOptions field `field` selects; `check` rejects parsed
/// values the field's type admits but the option does not.
template <typename Field, typename Check = NoCheck>
Knob knob(const char* key, Field field, Check check = {}) {
  const RunOptions defaults;
  return {key,
          [key, field, check](RunOptions& o, const std::string& value) {
            using T = std::remove_reference_t<decltype(field(o))>;
            const T parsed = parse_as<T>(key, value);
            check(parsed, value);
            field(o) = parsed;
          },
          [field](const RunOptions& o) { return format_as(field(o)); },
          format_as(field(defaults))};
}

auto nonzero(const char* message) {
  return [message](std::uint32_t v, const std::string&) {
    if (v == 0) throw std::invalid_argument(message);
  };
}

/// Every run option the grammar can set, sorted by key. apply_knob,
/// knob_names and single_run_spec all read this list, so adding a run
/// option is one line here.
const std::vector<Knob>& knob_table() {
  static const std::vector<Knob> table = {
      knob("budget", [](auto& o) -> auto& { return o.probe_budget; }),
      knob("c1", [](auto& o) -> auto& { return o.params.c1; }),
      knob("c2", [](auto& o) -> auto& { return o.params.c2; }),
      knob("churn",
           [](auto& o) -> auto& { return o.params.faults.churn_fraction; },
           [](double f, const std::string& value) {
             if (f < 0.0 || f > 1.0)
               throw std::invalid_argument("spec: churn=" + value +
                                           " must be in [0, 1]");
           }),
      knob("churn-end",
           [](auto& o) -> auto& { return o.params.faults.churn_end; }),
      knob("churn-start",
           [](auto& o) -> auto& { return o.params.faults.churn_start; }),
      knob("coalesce",
           [](auto& o) -> auto& { return o.params.coalesce_tokens; }),
      knob("crash-round",
           [](auto& o) -> auto& { return o.params.faults.crash_round; }),
      knob("initial-length",
           [](auto& o) -> auto& { return o.params.initial_length; }),
      knob("lazy-walks", [](auto& o) -> auto& { return o.params.lazy_walks; }),
      knob("linkfail-round",
           [](auto& o) -> auto& { return o.params.faults.linkfail_round; }),
      knob("max-length", [](auto& o) -> auto& { return o.params.max_length; }),
      knob("max-phases", [](auto& o) -> auto& { return o.params.max_phases; }),
      knob("max-rounds", [](auto& o) -> auto& { return o.max_rounds; }),
      knob("paper-schedule",
           [](auto& o) -> auto& { return o.params.paper_schedule; }),
      knob("source", [](auto& o) -> auto& { return o.source; }),
      knob("tmix", [](auto& o) -> auto& { return o.tmix_hint; }),
      knob("tmix-mult", [](auto& o) -> auto& { return o.tmix_multiplier; }),
      knob("trace-every", [](auto& o) -> auto& { return o.params.trace_every; },
           nonzero("spec: trace-every=0 (use 1 for every round)")),
      knob("trace-walks", [](auto& o) -> auto& { return o.params.trace_walks; },
           nonzero("spec: trace-walks=0 (use 1 for every walk, or omit the "
                   "knob)")),
      knob("value-bits", [](auto& o) -> auto& { return o.value_bits; }),
      knob("wide", [](auto& o) -> auto& { return o.params.wide_messages; }),
  };
  return table;
}

}  // namespace

void apply_knob(RunOptions& options, const std::string& key,
                const std::string& value) {
  for (const Knob& k : knob_table())
    if (k.key == key) return k.set(options, value);
  throw std::invalid_argument(
      "spec: unknown key '" + key + "' (axes: algo family n bandwidth drop "
      "crash linkfail adversary trials base-seed graph-seed reliable extras "
      "name title; knobs: " + join(knob_names()) + ")");
}

void apply_bandwidth(RunOptions& options, const std::string& value) {
  if (value == "standard") {
    options.params.wide_messages = false;
    options.params.bandwidth_bits = 0;
  } else if (value == "wide") {
    options.params.wide_messages = true;
    options.params.bandwidth_bits = 0;
  } else {
    const std::uint32_t bits = parse_u32("bandwidth", value);
    if (bits == 0)
      throw std::invalid_argument("spec: bandwidth=0 is not a valid budget");
    options.params.wide_messages = false;
    options.params.bandwidth_bits = bits;
  }
}

std::vector<std::string> knob_names() {
  std::vector<std::string> names;
  for (const Knob& k : knob_table()) names.push_back(k.key);
  return names;
}

ExperimentSpec single_run_spec(const std::string& algorithm,
                               const std::string& family, std::uint64_t n,
                               int trials, std::uint64_t base_seed,
                               std::uint64_t graph_seed,
                               const RunOptions& options) {
  const ElectionParams& p = options.params;
  if (p.faults.seed != 0)
    throw std::invalid_argument(
        "single_run_spec: an explicit fault seed is not expressible in the "
        "spec grammar");
  if (!p.faults.pinned_crashes.empty())
    throw std::invalid_argument(
        "single_run_spec: pinned crash victims are not expressible in the "
        "spec grammar");

  ExperimentSpec spec;
  spec.name = "single";
  spec.algorithms = {algorithm};
  spec.families = {family};
  spec.sizes = {n};
  spec.bandwidths = {p.bandwidth_bits != 0 ? std::to_string(p.bandwidth_bits)
                     : p.wide_messages     ? "wide"
                                           : "standard"};
  spec.drops = {p.drop_probability};
  spec.crashes = {p.faults.crash_fraction};
  spec.linkfails = {p.faults.linkfail_fraction};
  spec.adversaries = {p.faults.adversary};
  spec.trials = trials;
  spec.base_seed = base_seed;
  spec.graph_seed = graph_seed;

  // Every knob whose canonical text differs from the default's. The
  // bandwidth axis already says "wide" unless a raw-bits budget took its
  // place; expand_cells applies bandwidth before knobs, so an explicit
  // wide=true then keeps the wide regime alongside the raw bits.
  for (const Knob& k : knob_table()) {
    if (k.key == "wide" && p.bandwidth_bits == 0) continue;
    std::string text = k.format(options);
    if (text != k.default_text) spec.knobs[k.key] = {std::move(text)};
  }
  return spec;
}

std::string canonical_cell_key(const ExperimentSpec& spec,
                               const SweepCell& cell) {
  // cell.options is fully resolved (bandwidth regime + knobs applied), so
  // the reverse-mapping in single_run_spec reconstructs exactly the knobs
  // that differ from defaults — cells from different grids that resolve to
  // the same computation collapse onto one key.
  return single_run_spec(cell.algorithm, cell.family, cell.requested_n,
                         spec.trials, spec.base_seed, spec.graph_seed,
                         cell.options)
      .to_string();
}

ExperimentSpec parse_spec_onto(ExperimentSpec spec,
                               const std::vector<std::string>& tokens) {
  // The first mention of an axis key replaces the base's grid; later
  // mentions of the same key append (so "n=64 n=128" still accumulates).
  std::set<std::string> replaced;
  const auto fresh = [&replaced](const std::string& key) {
    return replaced.insert(key).second;
  };

  for (const std::string& token : tokens) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument("spec: token '" + token +
                                  "' is not key=value[,value..]");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (value.empty())
      throw std::invalid_argument("spec: " + key + "= has no value");
    const std::vector<std::string> values = split(value, ',');

    if (key == "algo" || key == "algorithm") {
      if (fresh("algo")) spec.algorithms.clear();
      for (const std::string& v : values) {
        if (v == "all") {
          for (const std::string& name : AlgorithmRegistry::instance().names())
            spec.algorithms.push_back(name);
        } else if (AlgorithmRegistry::instance().contains(v)) {
          spec.algorithms.push_back(v);
        } else {
          // invalid_argument like every other grammar error (the registry's
          // own lookup throws out_of_range, which the header contract
          // deliberately does not expose).
          throw std::invalid_argument("spec: unknown algorithm '" + v +
                                      "'; known: " +
                                      join(AlgorithmRegistry::instance()
                                               .names()) +
                                      ", all");
        }
      }
    } else if (key == "family") {
      if (fresh("family")) spec.families.clear();
      for (const std::string& v : values) spec.families.push_back(v);
    } else if (key == "n") {
      if (fresh("n")) spec.sizes.clear();
      // Graphs index nodes in 32 bits: a larger n must not wrap.
      for (const std::string& v : values)
        spec.sizes.push_back(parse_u32(key, v));
    } else if (key == "bandwidth" || key == "b") {
      if (fresh("bandwidth")) spec.bandwidths.clear();
      RunOptions scratch;
      for (const std::string& v : values) {
        apply_bandwidth(scratch, v);  // validates
        spec.bandwidths.push_back(v);
      }
    } else if (key == "drop" || key == "crash" || key == "linkfail") {
      std::vector<double>& axis = key == "drop"    ? spec.drops
                                  : key == "crash" ? spec.crashes
                                                   : spec.linkfails;
      if (fresh(key)) axis.clear();
      for (const std::string& v : values) {
        const double p = parse_double(key, v);
        if (p < 0.0 || p > 1.0)
          throw std::invalid_argument("spec: " + key + "=" + v +
                                      " must be in [0, 1]");
        axis.push_back(p);
      }
    } else if (key == "adversary") {
      if (fresh("adversary")) spec.adversaries.clear();
      for (const std::string& v : values) {
        if (!is_adversary_name(v))
          throw std::invalid_argument("spec: unknown adversary '" + v +
                                      "'; known: " +
                                      joined_adversary_names());
        spec.adversaries.push_back(v);
      }
    } else if (key == "trials") {
      const std::uint64_t t = parse_u64(key, value);
      if (t == 0 || t > 1000000)
        throw std::invalid_argument("spec: trials must be in [1, 1e6]");
      spec.trials = static_cast<int>(t);
    } else if (key == "base-seed" || key == "base_seed") {
      spec.base_seed = parse_u64(key, value);
    } else if (key == "graph-seed" || key == "graph_seed") {
      spec.graph_seed = parse_u64(key, value);
    } else if (key == "reliable") {
      spec.skip_unreliable = parse_bool(key, value);
    } else if (key == "extras") {
      if (fresh("extras")) spec.table_extras.clear();
      spec.table_extras.insert(spec.table_extras.end(), values.begin(),
                               values.end());
    } else if (key == "name") {
      spec.name = value;
    } else if (key == "title") {
      spec.title = value;
    } else {
      RunOptions scratch;
      for (const std::string& v : values) apply_knob(scratch, key, v);
      if (fresh("knob:" + key)) spec.knobs.erase(key);
      auto& grid = spec.knobs[key];
      grid.insert(grid.end(), values.begin(), values.end());
    }
  }
  return spec;
}

ExperimentSpec parse_spec(const std::vector<std::string>& tokens) {
  // The default-constructed spec carries the documented axis defaults
  // (election on a 512-node expander, reliable standard transport).
  return parse_spec_onto(ExperimentSpec{}, tokens);
}

ExperimentSpec parse_spec(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return parse_spec(tokens);
}

std::size_t ExperimentSpec::cell_count() const {
  std::size_t count = algorithms.size() * families.size() * sizes.size() *
                      bandwidths.size() * drops.size() * crashes.size() *
                      linkfails.size() * adversaries.size();
  for (const auto& [key, values] : knobs) count *= values.size();
  return count;
}

std::string ExperimentSpec::to_string() const {
  std::ostringstream out;
  out << "name=" << name << " algo=" << join(algorithms)
      << " family=" << join(families) << " n=" << join(sizes)
      << " bandwidth=" << join(bandwidths);
  const auto join_doubles = [](const std::vector<double>& values) {
    std::vector<std::string> strs;
    for (const double v : values) strs.push_back(format_double(v));
    return join(strs);
  };
  out << " drop=" << join_doubles(drops);
  // Inactive fault axes are folded out of the reproduction line (keeps the
  // pre-fault specs' lines stable).
  if (crashes.size() > 1 || crashes[0] > 0.0)
    out << " crash=" << join_doubles(crashes);
  if (linkfails.size() > 1 || linkfails[0] > 0.0)
    out << " linkfail=" << join_doubles(linkfails);
  if (adversaries.size() > 1 || adversaries[0] != "random")
    out << " adversary=" << join(adversaries);
  for (const auto& [key, values] : knobs)
    out << " " << key << "=" << join(values);
  out << " trials=" << trials << " base-seed=" << base_seed
      << " graph-seed=" << graph_seed;
  if (skip_unreliable) out << " reliable=1";
  if (!table_extras.empty()) out << " extras=" << join(table_extras);
  return out.str();
}

int default_bench_scale() {
  const char* s = std::getenv("WCLE_BENCH_SCALE");
  if (!s) return 1;
  const auto v = strict_u64(s);
  if (!v || *v > 2)
    throw std::invalid_argument(std::string("WCLE_BENCH_SCALE=") + s +
                                " (0 = quick, 1 = default, 2 = extended)");
  return static_cast<int>(*v);
}

// ------------------------------------------------------------- builtins

namespace {

template <typename T>
std::vector<T> pick(int scale, std::vector<T> s0, std::vector<T> s1,
                    std::vector<T> s2) {
  return scale <= 0 ? s0 : scale == 1 ? s1 : s2;
}

int pick_trials(int scale, int s0, int s1, int s2) {
  return scale <= 0 ? s0 : scale == 1 ? s1 : s2;
}

}  // namespace

ExperimentSpec builtin_experiment(const std::string& name, int scale) {
  ExperimentSpec s;
  s.name = name;
  if (name == "e1") {
    s.title = "E1: Theorem 13 — messages on 6-regular expanders";
    s.note = "theory: messages ~ sqrt(n) polylog; the empirical exponent of "
             "msgs in n should sit near 0.5, and msgs/m shrink toward 0";
    s.algorithms = {"election"};
    s.families = {"expander"};
    s.sizes = pick<std::uint64_t>(scale, {128, 256}, {256, 512, 1024, 2048},
                                  {256, 512, 1024, 2048, 4096, 8192});
    s.trials = pick_trials(scale, 2, 5, 5);
  } else if (name == "e2") {
    s.title = "E2: Theorem 13 — time on 6-regular expanders";
    s.note = "theory: rounds = polylog(n) only; measured rounds must stay "
             "below scheduled_rounds (Lemma 12's congestion padding)";
    s.algorithms = {"election"};
    s.families = {"expander"};
    s.sizes = pick<std::uint64_t>(scale, {128, 256}, {256, 512, 1024, 2048},
                                  {256, 512, 1024, 2048, 4096});
    s.trials = pick_trials(scale, 2, 5, 5);
    s.table_extras = {"final_length", "phases", "scheduled_rounds"};
  } else if (name == "e3") {
    s.title = "E3: Theorem 13 on hypercubes (tmix = O(log n log log n))";
    s.note = "the hypercube corollary: O~(sqrt n) messages, polylog time";
    s.algorithms = {"election"};
    s.families = {"hypercube"};
    s.sizes = pick<std::uint64_t>(scale, {128, 256}, {128, 256, 512, 1024},
                                  {128, 256, 512, 1024, 2048});
    s.trials = pick_trials(scale, 2, 5, 5);
    s.table_extras = {"final_length", "phases"};
  } else if (name == "e4") {
    s.title = "E4: cliques — sublinearity in m, crossover vs Omega(m) "
              "flooding";
    s.note = "ours/m must shrink toward 0; the flooding baselines pay "
             "Omega(m); referee[25] is the clique-specialized algorithm ours "
             "generalizes";
    s.algorithms = {"election", "clique_referee", "candidate_flood",
                    "flood_max"};
    s.families = {"clique"};
    s.sizes = pick<std::uint64_t>(scale, {64, 128}, {64, 128, 256, 512, 1024},
                                  {64, 128, 256, 512, 1024, 2048});
    s.trials = pick_trials(scale, 2, 5, 5);
  } else if (name == "e5") {
    s.title = "E5: Lemma 1 — contender concentration in [3/4, 5/4] c1 log n";
    s.note = "mean(in_window) must grow toward 1 with n (Chernoff); "
             "mean(zero) ~ n^-c1";
    s.algorithms = {"contender_stage"};
    s.families = {"ring"};
    s.sizes = pick<std::uint64_t>(scale, {256, 1024},
                                  {256, 1024, 4096, 16384, 65536},
                                  {256, 1024, 4096, 16384, 65536, 262144});
    s.trials = pick_trials(scale, 100, 500, 2000);
    s.table_extras = {"contenders", "expected", "in_window", "zero"};
  } else if (name == "e6") {
    s.title = "E6: Lemmas 3/6 — stopping t_u tracks tmix; bandwidth and "
              "coalescing ablations";
    s.note = "final_length/tmix should be a small constant across families; "
             "the wide rows recover ~log^2 n messages (Lemma 12's 2nd "
             "regime); coalesce=false charts the naive-token ablation";
    s.algorithms = {"election"};
    s.families = {"clique", "hypercube", "torus", "expander"};
    s.sizes = pick<std::uint64_t>(scale, {64}, {256}, {256, 1024});
    s.bandwidths = {"standard", "wide"};
    s.knobs["coalesce"] = {"true", "false"};
    s.trials = pick_trials(scale, 2, 3, 5);
    s.table_extras = {"final_length", "phases"};
  } else if (name == "e7") {
    s.title = "E7: Theorem 15 — messages vs Omega(sqrt(n)/phi^{3/4}) on "
              "G(alpha)";
    s.note = "measured messages must sit between the Theorem 15 lower "
             "envelope and the Theorem 13 upper envelope (the sandwich)";
    s.algorithms = {"election"};
    s.families = {"lowerbound:0.003", "lowerbound:0.006"};
    s.sizes = pick<std::uint64_t>(scale, {300}, {700}, {1200});
    s.trials = pick_trials(scale, 1, 2, 2);
    s.table_extras = {"final_length", "phases"};
  } else if (name == "e8") {
    s.title = "E8: Lemma 16 — conductance of G(alpha) is Theta(alpha)";
    s.note = "sweep_phi/alpha must stay within a constant band across the "
             "alpha sweep; cheeger bounds sandwich it";
    s.algorithms = {"graph_profile"};
    s.families = {"lowerbound:0.001", "lowerbound:0.002", "lowerbound:0.004",
                  "lowerbound:0.006"};
    s.sizes = pick<std::uint64_t>(scale, {400}, {2000}, {4000});
    s.trials = 1;
    s.table_extras = {"sweep_phi", "cheeger_lower", "cheeger_upper", "tmix"};
  } else if (name == "e9") {
    s.title = "E9: Corollary 14 — explicit = implicit election + push-pull "
              "broadcast";
    s.note = "Cor 14's two cost terms measured; asymptotically the broadcast "
             "dominates (crossover ~2^20 nodes, past simulable sizes)";
    s.algorithms = {"explicit_election"};
    s.families = {"clique", "torus"};
    s.sizes = pick<std::uint64_t>(scale, {64, 144}, {256, 576, 1024},
                                  {256, 576, 1024, 2048});
    s.trials = pick_trials(scale, 1, 3, 3);
    s.table_extras = {"election_messages", "broadcast_messages",
                      "broadcast_rounds"};
  } else if (name == "e10") {
    s.title = "E10: Corollaries 26/27 — broadcast & spanning tree on "
              "G(alpha)";
    s.note = "no broadcast or ST algorithm can beat n/sqrt(phi) messages on "
             "this family: all rows must stay Omega(1) above it";
    s.algorithms = {"push_pull", "flood_broadcast", "bfs_tree"};
    s.families = {"lowerbound:0.0015", "lowerbound:0.003",
                  "lowerbound:0.006"};
    s.sizes = pick<std::uint64_t>(scale, {300}, {800}, {1500, 3000});
    s.trials = pick_trials(scale, 1, 2, 2);
  } else if (name == "e11") {
    s.title = "E11: Theorem 28 — unknown n forces Omega(m) (dumbbell "
              "elections)";
    s.note = "with the true n the election stays correct on the dumbbell; "
             "the split-brain half-runs of the indistinguishability argument "
             "are asserted in tests/test_claims.cpp";
    s.algorithms = {"election"};
    s.families = {"dumbbell:torus", "dumbbell:hypercube"};
    s.sizes = pick<std::uint64_t>(scale, {128}, {128, 288}, {128, 288, 512});
    s.trials = pick_trials(scale, 1, 2, 3);
  } else if (name == "e12") {
    s.title = "E12: the price of not knowing tmix — paper vs Kutten et al. "
              "[25] vs estimate-then-elect [29]";
    s.note = "known_tmix assumes the oracle the paper removes; "
             "estimate_then_elect pays an Omega(m) estimation fee, which "
             "outweighs guess-and-double on the clique (msgs est+elect/ours "
             "2.93-4.99) but not where m = O(n): on expander, hypercube and "
             "torus it reads 0.72-0.98";
    s.algorithms = {"election", "known_tmix", "estimate_then_elect"};
    s.families = {"clique", "hypercube", "expander", "torus"};
    s.sizes = pick<std::uint64_t>(scale, {64}, {256}, {256, 512});
    s.trials = pick_trials(scale, 2, 5, 5);
    s.table_extras = {"final_length", "walk_length"};
  } else if (name == "e13") {
    s.title = "E13: every registered algorithm under one harness";
    s.note = "one registry, one trial engine, one schema — the Theorem 13 "
             "comparison as a single sweep (unreliable (algo, graph) cells "
             "are skipped)";
    s.algorithms = AlgorithmRegistry::instance().names();
    s.families = {"clique", "hypercube", "expander"};
    s.sizes = pick<std::uint64_t>(scale, {64}, {256}, {512});
    s.trials = pick_trials(scale, 2, 3, 3);
    s.skip_unreliable = true;
  } else if (name == "e14") {
    s.title = "E14: fault sweep — crash/linkfail/adversary grid, "
              "verdict rates for the core election vs the baselines";
    s.note = "crash-stop victims picked by the adversary at round 1; failed "
             "links eat traffic but still bill congestion; safety = at most "
             "one surviving leader, liveness = cap-free termination within "
             "max-rounds, agreement = best surviving-component coverage";
    s.algorithms = {"election", "explicit_election", "flood_max",
                    "candidate_flood", "territory_election", "known_tmix",
                    "estimate_then_elect"};
    s.families = {"expander"};
    s.sizes = pick<std::uint64_t>(scale, {32}, {128}, {256, 512});
    s.crashes = pick<double>(scale, {0.0, 0.2}, {0.0, 0.1, 0.3},
                             {0.0, 0.1, 0.3, 0.5});
    s.linkfails = pick<double>(scale, {0.0}, {0.0, 0.05}, {0.0, 0.05, 0.15});
    s.adversaries = pick<std::string>(scale, {"random"},
                                      {"random", "degree", "contenders"},
                                      {"random", "degree", "contenders"});
    // Keep faulty elections bounded: a starved contender must not
    // guess-and-double into t_u = 8n^2 walks, and push-pull sub-broadcasts
    // must not spin their generous default cap when survivors are
    // unreachable. max-rounds doubles as the liveness budget.
    s.knobs["max-length"] = pick<std::string>(scale, {"128"}, {"256"},
                                              {"512"});
    s.knobs["max-rounds"] = pick<std::string>(scale, {"2000"}, {"4000"},
                                              {"8000"});
    s.trials = pick_trials(scale, 2, 3, 5);
    s.skip_unreliable = true;
  } else {
    throw std::invalid_argument("unknown builtin experiment '" + name +
                                "' (known: " +
                                join(builtin_experiment_names()) +
                                ")");
  }
  return s;
}

std::vector<std::string> builtin_experiment_names() {
  return {"e1", "e2", "e3", "e4", "e5", "e6", "e7",
          "e8", "e9", "e10", "e11", "e12", "e13", "e14"};
}

std::vector<std::pair<std::string, std::string>> builtin_experiment_titles() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& name : builtin_experiment_names())
    out.emplace_back(name, builtin_experiment(name, 1).title);
  return out;
}

}  // namespace wcle
