// The WCLE-specific lint rules. The lexical rules are passes over the token
// stream produced by lexer.hpp; the layering rule checks each file's quoted
// includes against a declared DAG. Diagnostics carry file:line:col positions
// and a stable rule name that the suppression syntax references
// (`// wcle-lint: <rule>-ok(reason)`, see linter.hpp).
//
// Lexical rules:
//   banned-rng     (D1)  nondeterminism sources outside support/rng.hpp: the
//                        library's reproducibility contract is that every
//                        random draw flows from a single 64-bit seed through
//                        wcle::Rng, whose distributions are implemented
//                        explicitly because the standard's are not
//                        bit-identical across implementations.
//   unordered-iter (D2)  iteration (range-for or .begin()) over a variable
//                        declared as an unordered container: hash order is
//                        implementation- and run-dependent, so it must never
//                        feed RNG-relevant processing or output order.
//   pointer-order  (D3)  pointer keys in ordered containers or pointer
//                        hashing/comparators: address order differs between
//                        runs, so it is nondeterminism in disguise.
//   rng-flow       (D4)  wcle::Rng misuse: by-value Rng parameters or
//                        copy-initialization (a copy replays the stream),
//                        mid-run re-seeding via `x = Rng(...)` (fork() is
//                        the sanctioned way to derive a stream), and RNG
//                        draws control-dependent on unordered-container
//                        queries (hash-table state deciding whether a draw
//                        happens is how hash-order bugs reach the stream).
//   directive            malformed wcle-lint directives: unknown directive
//                        text, unknown rules, empty reasons, and
//                        suppressions that never fire (stale).
//
// Include rule (driven from linter.cpp with the layer config):
//   layering       (L1)  an include edge between src/wcle/<layer> modules
//                        that the declared DAG (tools/lint/layers.txt) does
//                        not permit.
//
// The zero-allocation contract of the hot paths is not a lint rule: the
// runtime operator new counters in tests/test_network.cpp and
// tests/test_walk_engine.cpp hold it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lint/lexer.hpp"

namespace wcle_lint {

struct Diagnostic {
  std::string file;
  std::uint32_t line = 0;
  std::uint32_t col = 0;
  std::string rule;
  std::string message;
};

/// Names of every rule, "directive" included (the linter emits it while
/// parsing annotations).
const std::vector<std::string>& rule_names();

/// One-line description for --list-rules.
std::string rule_description(const std::string& rule);

/// Runs every token-level rule over `lx`, appending to `out`;
/// `display_path` is stamped into each diagnostic.
void run_rules(const std::string& display_path, const LexResult& lx,
               std::vector<Diagnostic>& out);

// ---------------------------------------------------------------------------
// Layering (L1): the declared dependency DAG of src/wcle.
// ---------------------------------------------------------------------------

/// Parsed tools/lint/layers.txt. Format, one entry per line:
///   <layer>: <allowed dep> <allowed dep> ...
///   allow-header <layer> <include path>   # named exception (e.g. the
///                                         # adapter seam on api/algorithm.hpp)
/// `#` starts a comment. The declared edges must form a DAG; cycles and
/// malformed lines surface as "layering" diagnostics against the config
/// file itself.
struct LayerConfig {
  /// layer -> layers it may include (self always allowed).
  std::vector<std::pair<std::string, std::vector<std::string>>> allowed;
  /// (layer, exact include path) exceptions.
  std::vector<std::pair<std::string, std::string>> allow_headers;
  /// Parse/validation errors (rule "layering", stamped at the config file).
  std::vector<Diagnostic> errors;
  bool loaded = false;

  const std::vector<std::string>* deps_of(const std::string& layer) const;
  bool header_allowed(const std::string& layer, const std::string& path) const;
};

/// Parses and validates a layers file (acyclicity included).
LayerConfig parse_layer_config(const std::string& display_path,
                               const std::string& content);

/// Checks one file's quoted includes against the DAG. Only files whose path
/// contains "src/wcle/<layer>/" participate; others are exempt.
void check_layering(const std::string& display_path,
                    const std::vector<IncludeDirective>& includes,
                    const LayerConfig& config, std::vector<Diagnostic>& out);

}  // namespace wcle_lint
