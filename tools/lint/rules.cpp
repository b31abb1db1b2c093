#include "lint/rules.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace wcle_lint {

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t k = std::string(suffix).size();
  return s.size() >= k && s.compare(s.size() - k, k, suffix) == 0;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// std:: random engines (all banned: their streams are only as portable as
/// the distributions fed from them, and wcle::Rng is the sanctioned source).
const std::unordered_set<std::string>& banned_engines() {
  static const std::unordered_set<std::string> kSet = {
      "mt19937",       "mt19937_64",   "minstd_rand",
      "minstd_rand0",  "knuth_b",      "default_random_engine",
      "ranlux24",      "ranlux48",     "ranlux24_base",
      "ranlux48_base", "random_device"};
  return kSet;
}

/// Bare C functions whose results depend on wall clock / process state.
const std::unordered_set<std::string>& banned_c_calls() {
  static const std::unordered_set<std::string> kSet = {
      "rand", "srand", "rand_r", "random",        "srandom",
      "time", "clock", "getpid", "gettimeofday",  "timespec_get",
      "drand48", "lrand48", "mrand48"};
  return kSet;
}

const std::unordered_set<std::string>& ordered_container_names() {
  static const std::unordered_set<std::string> kSet = {"map", "set", "multimap",
                                                       "multiset"};
  return kSet;
}

/// The draw surface of wcle::Rng (support/rng.hpp).
const std::unordered_set<std::string>& rng_draw_calls() {
  static const std::unordered_set<std::string> kSet = {
      "next",      "next_below",    "next_in", "next_double",
      "next_bool", "next_binomial", "shuffle", "fork"};
  return kSet;
}

/// unordered_map/set/multimap/multiset.
const std::unordered_set<std::string>& unordered_container_names() {
  static const std::unordered_set<std::string> kSet = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kSet;
}

/// Index of the '>' closing the '<' at `open` (depth-aware, tolerant of
/// parentheses inside template arguments). Returns npos when the '<' turns
/// out to be a comparison (a ';' or unbalanced close intervenes).
std::size_t match_angle(const std::vector<Token>& toks, std::size_t open) {
  int angle = 1;
  int paren = 0;
  for (std::size_t i = open + 1; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "(")
      ++paren;
    else if (t.text == ")") {
      if (--paren < 0) return std::string::npos;
    } else if (paren == 0 && t.text == "<")
      ++angle;
    else if (paren == 0 && t.text == ">") {
      if (--angle == 0) return i;
    } else if (t.text == ";" || t.text == "{") {
      return std::string::npos;
    }
  }
  return std::string::npos;
}

/// Index of the ')' matching the '(' at `open` (paren counting only).
std::size_t match_paren(const std::vector<Token>& toks, std::size_t open) {
  int depth = 1;
  for (std::size_t i = open + 1; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == "(")
      ++depth;
    else if (toks[i].text == ")" && --depth == 0)
      return i;
  }
  return std::string::npos;
}

/// Index of the '}' matching the '{' at `open`.
std::size_t match_brace(const std::vector<Token>& toks, std::size_t open) {
  int depth = 1;
  for (std::size_t i = open + 1; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == "{")
      ++depth;
    else if (toks[i].text == "}" && --depth == 0)
      return i;
  }
  return std::string::npos;
}

struct RuleSink {
  const std::string& path;
  std::vector<Diagnostic>& out;

  void emit(const Token& at, const char* rule, std::string message) {
    out.push_back({path, at.line, at.col, rule, std::move(message)});
  }
};

/// Names declared with an unordered container type in this file (locals,
/// members, parameters — anything of the form
/// `unordered_xxx<...> [&*const]* name` where name is not a function).
std::unordered_set<std::string> unordered_declared_names(
    const std::vector<Token>& toks) {
  std::unordered_set<std::string> tracked;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || t.pp) continue;
    if (!unordered_container_names().count(t.text)) continue;
    if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "<")) continue;
    const std::size_t close = match_angle(toks, i + 1);
    if (close == std::string::npos) continue;
    std::size_t k = close + 1;
    while (k < toks.size() &&
           (is_punct(toks[k], "&") || is_punct(toks[k], "*") ||
            is_ident(toks[k], "const")))
      ++k;
    if (k + 1 < toks.size() && toks[k].kind == TokKind::kIdent &&
        !is_punct(toks[k + 1], "("))  // a '(' would make it a function decl
      tracked.insert(toks[k].text);
  }
  return tracked;
}

// ------------------------------------------------------------- banned-rng

void rule_banned_rng(const std::vector<Token>& toks, RuleSink& sink) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const Token* next = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;

    // std::X forms.
    if (t.text == "std" && next && is_punct(*next, "::") &&
        i + 2 < toks.size() && toks[i + 2].kind == TokKind::kIdent) {
      const Token& x = toks[i + 2];
      if (banned_engines().count(x.text)) {
        sink.emit(x, "banned-rng",
                  "std::" + x.text +
                      " is banned: all randomness must flow through "
                      "wcle::Rng (support/rng.hpp)");
        continue;
      }
      if (x.text == "this_thread") {
        sink.emit(x, "banned-rng",
                  "std::this_thread is banned in simulation code: "
                  "sleep/yield make timing part of the execution");
        continue;
      }
      if (x.text == "shuffle" || x.text == "random_shuffle") {
        sink.emit(x, "banned-rng",
                  "std::" + x.text +
                      " is banned: its draw order is implementation-defined; "
                      "use Rng::shuffle (support/rng.hpp)");
        continue;
      }
      if (ends_with(x.text, "_distribution")) {
        sink.emit(x, "banned-rng",
                  "std::" + x.text +
                      " is banned: standard distributions are not "
                      "bit-identical across implementations; use the "
                      "explicit distributions on wcle::Rng");
        continue;
      }
      if (banned_c_calls().count(x.text)) {
        sink.emit(x, "banned-rng",
                  "std::" + x.text +
                      " is banned: wall-clock/process state breaks seed-fixed "
                      "reproducibility");
        continue;
      }
    }

    // steady_clock::now / system_clock::now / any *_clock::now.
    if (ends_with(t.text, "_clock") && next && is_punct(*next, "::") &&
        i + 2 < toks.size() && is_ident(toks[i + 2], "now")) {
      sink.emit(t, "banned-rng",
                t.text +
                    "::now() is banned in simulation code: wall-clock reads "
                    "make executions time-dependent (timing belongs in "
                    "perfbench/ only)");
      continue;
    }

    // Bare C calls: rand(, time(, ... — not preceded by . -> or ::.
    if (banned_c_calls().count(t.text) && next && is_punct(*next, "(")) {
      if (prev && (is_punct(*prev, ".") || is_punct(*prev, "->") ||
                   is_punct(*prev, "::")))
        continue;  // member/qualified call of an unrelated name (std:: forms
                   // are handled above)
      sink.emit(t, "banned-rng",
                t.text +
                    "() is banned: wall-clock/process state breaks seed-fixed "
                    "reproducibility; use wcle::Rng for randomness");
    }
  }
}

// --------------------------------------------------------- unordered-iter

void rule_unordered_iter(const std::vector<Token>& toks, RuleSink& sink) {
  const std::unordered_set<std::string> tracked =
      unordered_declared_names(toks);
  if (tracked.empty()) return;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    // Range-for whose range expression mentions a tracked name.
    if (is_ident(t, "for") && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(")) {
      int depth = 0;
      std::size_t colon = std::string::npos;
      std::size_t close = std::string::npos;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        const Token& u = toks[j];
        if (u.kind != TokKind::kPunct) continue;
        if (u.text == "(" || u.text == "[" || u.text == "{")
          ++depth;
        else if (u.text == ")" || u.text == "]" || u.text == "}") {
          if (--depth == 0) {
            close = j;
            break;
          }
        } else if (depth == 1 && u.text == ";") {
          break;  // classic for loop, not range-for
        } else if (depth == 1 && u.text == ":" &&
                   colon == std::string::npos) {
          colon = j;
        }
      }
      if (colon == std::string::npos || close == std::string::npos) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind == TokKind::kIdent && tracked.count(toks[j].text)) {
          sink.emit(t, "unordered-iter",
                    "range-for over unordered container '" + toks[j].text +
                        "': hash order is nondeterministic across "
                        "implementations — sort first, or suppress with a "
                        "justification that the order cannot reach RNG draws "
                        "or output");
          break;
        }
      }
      continue;
    }
    // Explicit iterator walk: tracked.begin()/cbegin()/rbegin().
    if (t.kind == TokKind::kIdent && tracked.count(t.text) &&
        i + 3 < toks.size() && is_punct(toks[i + 1], ".") &&
        (is_ident(toks[i + 2], "begin") || is_ident(toks[i + 2], "cbegin") ||
         is_ident(toks[i + 2], "rbegin")) &&
        is_punct(toks[i + 3], "(")) {
      sink.emit(t, "unordered-iter",
                "iterator over unordered container '" + t.text +
                    "': hash order is nondeterministic across "
                    "implementations — sort first, or suppress with a "
                    "justification");
    }
  }
}

// ---------------------------------------------------------- pointer-order

void rule_pointer_order(const std::vector<Token>& toks, RuleSink& sink) {
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!is_ident(toks[i], "std") || !is_punct(toks[i + 1], "::")) continue;
    const Token& x = toks[i + 2];
    if (x.kind != TokKind::kIdent || x.pp) continue;

    const bool ordered = ordered_container_names().count(x.text) > 0;
    const bool functor =
        x.text == "hash" || x.text == "less" || x.text == "greater";
    if (!ordered && !functor) continue;
    if (!is_punct(toks[i + 3], "<")) continue;
    const std::size_t close = match_angle(toks, i + 3);
    if (close == std::string::npos) continue;

    // Scan the first template argument (the key type) for a raw pointer.
    int angle = 0;
    for (std::size_t j = i + 4; j < close; ++j) {
      const Token& u = toks[j];
      if (u.kind != TokKind::kPunct) continue;
      if (u.text == "<")
        ++angle;
      else if (u.text == ">")
        --angle;
      else if (angle == 0 && u.text == "," && ordered)
        break;  // only the key type matters for map/set
      else if (u.text == "*") {
        sink.emit(x, "pointer-order",
                  ordered
                      ? "std::" + x.text +
                            " keyed by a raw pointer: address order is "
                            "run-dependent (ASLR), so iteration order would "
                            "differ between executions — key by index or id "
                            "instead"
                      : "std::" + x.text +
                            " over a raw pointer: address-based "
                            "hashing/comparison is run-dependent — hash or "
                            "compare a stable id instead");
        break;
      }
    }
  }
}

// --------------------------------------------------------------- rng-flow

void rule_rng_flow(const std::vector<Token>& toks, RuleSink& sink) {
  // (a) by-value Rng parameters and whole-object copies. A copy replays the
  // parent's draw sequence, so two streams silently correlate.
  int paren = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(")
        ++paren;
      else if (t.text == ")")
        --paren;
      continue;
    }
    if (!is_ident(t, "Rng") || t.pp) continue;
    if (i + 2 >= toks.size()) continue;
    const Token& name = toks[i + 1];
    if (name.kind != TokKind::kIdent) continue;
    const Token& after = toks[i + 2];
    if (paren > 0 &&
        (is_punct(after, ",") || is_punct(after, ")") ||
         is_punct(after, "="))) {
      sink.emit(name, "rng-flow",
                "by-value wcle::Rng parameter '" + name.text +
                    "': a copy replays the parent stream, so draws "
                    "correlate — pass Rng& or derive a child with fork(key)");
      continue;
    }
    if (paren == 0 && is_punct(after, "=") && i + 4 < toks.size() &&
        toks[i + 3].kind == TokKind::kIdent && is_punct(toks[i + 4], ";")) {
      sink.emit(name, "rng-flow",
                "copy-initializing '" + name.text + "' from '" +
                    toks[i + 3].text +
                    "' duplicates the stream — derive an independent child "
                    "with fork(key) instead");
      continue;
    }
  }

  // (b) mid-run re-seeding: `x = Rng(...)` as an assignment (construction
  // `Rng x = Rng(seed)` stays sanctioned — that is initialization, which
  // constructors do).
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!is_punct(toks[i], "=")) continue;
    if (toks[i - 1].kind != TokKind::kIdent) continue;
    std::size_t j = i + 1;
    if (j + 1 < toks.size() && is_ident(toks[j], "wcle") &&
        is_punct(toks[j + 1], "::"))
      j += 2;
    if (j + 1 >= toks.size() || !is_ident(toks[j], "Rng") ||
        !is_punct(toks[j + 1], "("))
      continue;
    if (i >= 2 && (is_ident(toks[i - 2], "Rng") ||
                   is_punct(toks[i - 2], "&") || is_punct(toks[i - 2], "*")))
      continue;  // a declaration with initializer, not an assignment
    sink.emit(toks[j], "rng-flow",
              "re-seeding '" + toks[i - 1].text +
                  "' by assigning a fresh Rng: mid-run re-seeding outside a "
                  "constructor breaks the single-seed reproducibility "
                  "contract — derive streams with fork(key)");
  }

  // (c) draws control-dependent on unordered-container queries: hash-table
  // state deciding *whether* a draw happens makes the draw sequence
  // hash-order-dependent.
  const std::unordered_set<std::string> tracked =
      unordered_declared_names(toks);
  if (tracked.empty()) return;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "if") || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = match_paren(toks, i + 1);
    if (close == std::string::npos) continue;
    std::string qname;
    for (std::size_t j = i + 2; j + 3 < close; ++j) {
      if (toks[j].kind != TokKind::kIdent || !tracked.count(toks[j].text))
        continue;
      if (!is_punct(toks[j + 1], ".") && !is_punct(toks[j + 1], "->"))
        continue;
      const Token& m = toks[j + 2];
      if ((is_ident(m, "count") || is_ident(m, "find") ||
           is_ident(m, "contains")) &&
          is_punct(toks[j + 3], "(")) {
        qname = toks[j].text;
        break;
      }
    }
    if (qname.empty()) continue;
    // Branch extent: a braced block or a single statement.
    std::size_t from = close + 1, to = std::string::npos;
    if (from < toks.size() && is_punct(toks[from], "{")) {
      to = match_brace(toks, from);
    } else {
      for (std::size_t j = from; j < toks.size(); ++j)
        if (is_punct(toks[j], ";")) {
          to = j;
          break;
        }
    }
    if (to == std::string::npos) continue;
    for (std::size_t j = from; j < to; ++j) {
      const Token& d = toks[j];
      if (d.kind != TokKind::kIdent || !rng_draw_calls().count(d.text))
        continue;
      if (j == 0 ||
          (!is_punct(toks[j - 1], ".") && !is_punct(toks[j - 1], "->")))
        continue;
      if (j + 1 >= toks.size() || !is_punct(toks[j + 1], "(")) continue;
      sink.emit(d, "rng-flow",
                "RNG draw ." + d.text +
                    "() guarded by unordered-container query on '" + qname +
                    "': hash-table state must not decide whether a draw "
                    "happens (the draw sequence becomes "
                    "hash-order-dependent)");
    }
  }
}

// --------------------------------------------------------------- layering

/// "…src/wcle/<layer>/…" -> layer; "" when the path is not layer-governed.
std::string layer_of_source(const std::string& path) {
  const std::size_t at = path.find("src/wcle/");
  if (at == std::string::npos) return "";
  const std::size_t from = at + 9;
  const std::size_t slash = path.find('/', from);
  if (slash == std::string::npos) return "";
  return path.substr(from, slash - from);
}

/// "wcle/<layer>/…" -> layer; "" otherwise.
std::string layer_of_include(const std::string& inc) {
  if (inc.compare(0, 5, "wcle/") != 0) return "";
  const std::size_t slash = inc.find('/', 5);
  if (slash == std::string::npos) return "";
  return inc.substr(5, slash - 5);
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ", ";
    out += parts[i];
  }
  return out;
}

}  // namespace

const std::vector<std::string>* LayerConfig::deps_of(
    const std::string& layer) const {
  for (const auto& entry : allowed)
    if (entry.first == layer) return &entry.second;
  return nullptr;
}

bool LayerConfig::header_allowed(const std::string& layer,
                                 const std::string& path) const {
  for (const auto& e : allow_headers)
    if (e.first == layer && e.second == path) return true;
  return false;
}

LayerConfig parse_layer_config(const std::string& display_path,
                               const std::string& content) {
  LayerConfig cfg;
  std::istringstream in(content);
  std::string raw;
  std::uint32_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream ls(raw);
    std::string first;
    if (!(ls >> first)) continue;

    if (first == "allow-header") {
      std::string layer, header, extra;
      if (!(ls >> layer >> header) || (ls >> extra)) {
        cfg.errors.push_back({display_path, lineno, 1, "layering",
                              "malformed allow-header line: expected "
                              "'allow-header <layer> <include path>'"});
        continue;
      }
      cfg.allow_headers.push_back({layer, header});
      continue;
    }

    if (first.empty() || first.back() != ':') {
      cfg.errors.push_back({display_path, lineno, 1, "layering",
                            "malformed layer line: expected "
                            "'<layer>: <dep> <dep> ...'"});
      continue;
    }
    const std::string layer = first.substr(0, first.size() - 1);
    if (cfg.deps_of(layer) != nullptr) {
      cfg.errors.push_back({display_path, lineno, 1, "layering",
                            "layer '" + layer + "' declared twice"});
      continue;
    }
    std::vector<std::string> deps;
    std::string dep;
    while (ls >> dep) deps.push_back(dep);
    cfg.allowed.push_back({layer, std::move(deps)});
  }

  // Every declared dependency must itself be a declared layer.
  for (const auto& entry : cfg.allowed)
    for (const std::string& dep : entry.second)
      if (cfg.deps_of(dep) == nullptr)
        cfg.errors.push_back(
            {display_path, 0, 0, "layering",
             "layer '" + entry.first + "' depends on undeclared layer '" +
                 dep + "'"});

  // The declared edges must form a DAG (Kahn's algorithm).
  if (cfg.errors.empty()) {
    std::unordered_map<std::string, std::size_t> indegree;
    for (const auto& entry : cfg.allowed) indegree[entry.first] = 0;
    for (const auto& entry : cfg.allowed)
      for (const std::string& dep : entry.second)
        if (dep != entry.first) ++indegree[entry.first];
    bool progressed = true;
    std::size_t remaining = cfg.allowed.size();
    std::unordered_set<std::string> removed;
    while (progressed && remaining > 0) {
      progressed = false;
      for (const auto& entry : cfg.allowed) {
        if (removed.count(entry.first) || indegree[entry.first] != 0)
          continue;
        removed.insert(entry.first);
        --remaining;
        progressed = true;
        for (auto& other : cfg.allowed)
          if (!removed.count(other.first))
            for (const std::string& dep : other.second)
              if (dep == entry.first) --indegree[other.first];
      }
    }
    if (remaining > 0) {
      std::vector<std::string> cyc;
      for (const auto& entry : cfg.allowed)
        if (!removed.count(entry.first)) cyc.push_back(entry.first);
      cfg.errors.push_back({display_path, 0, 0, "layering",
                            "declared layer dependencies contain a cycle "
                            "among {" +
                                join(cyc) + "}: the DAG must be acyclic"});
    }
  }

  cfg.loaded = cfg.errors.empty();
  return cfg;
}

void check_layering(const std::string& display_path,
                    const std::vector<IncludeDirective>& includes,
                    const LayerConfig& config, std::vector<Diagnostic>& out) {
  if (!config.loaded) return;
  const std::string layer = layer_of_source(display_path);
  if (layer.empty()) return;
  const std::vector<std::string>* deps = config.deps_of(layer);
  if (deps == nullptr) {
    out.push_back({display_path, 1, 1, "layering",
                   "layer '" + layer +
                       "' is not declared in the layering config — add it "
                       "to tools/lint/layers.txt with its allowed "
                       "dependencies"});
    return;
  }
  for (const IncludeDirective& inc : includes) {
    const std::string dep = layer_of_include(inc.path);
    if (dep.empty() || dep == layer) continue;
    if (std::find(deps->begin(), deps->end(), dep) != deps->end()) continue;
    if (config.header_allowed(layer, inc.path)) continue;
    out.push_back({display_path, inc.line, 1, "layering",
                   "include '" + inc.path + "' crosses the layering DAG: '" +
                       layer + "' may only depend on {" + join(*deps) +
                       "} (tools/lint/layers.txt)"});
  }
}

// ----------------------------------------------------------------- driver

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "banned-rng", "unordered-iter", "pointer-order",
      "rng-flow",   "layering",       "directive"};
  return kNames;
}

std::string rule_description(const std::string& rule) {
  if (rule == "banned-rng")
    return "nondeterminism sources (std::random_device, rand, time, "
           "*_clock::now, std::this_thread, std::*_distribution, "
           "std::shuffle) — wcle::Rng is the only sanctioned RNG surface";
  if (rule == "unordered-iter")
    return "iteration over unordered containers — hash order must never "
           "reach RNG draws or output order";
  if (rule == "pointer-order")
    return "pointer keys in ordered containers / pointer hashing — address "
           "order is run-dependent";
  if (rule == "rng-flow")
    return "wcle::Rng misuse: by-value copies, mid-run re-seeding, and "
           "draws guarded by unordered-container queries";
  if (rule == "layering")
    return "include edges between src/wcle layers that the declared DAG "
           "(tools/lint/layers.txt) does not permit";
  if (rule == "directive")
    return "malformed wcle-lint comment directives (unknown directive, "
           "unknown rule, empty reason, stale suppression)";
  return "";
}

void run_rules(const std::string& display_path, const LexResult& lx,
               std::vector<Diagnostic>& out) {
  RuleSink sink{display_path, out};
  rule_banned_rng(lx.tokens, sink);
  rule_unordered_iter(lx.tokens, sink);
  rule_pointer_order(lx.tokens, sink);
  rule_rng_flow(lx.tokens, sink);
}

}  // namespace wcle_lint
