// wcle_lint driver: directive parsing, the per-file lexical pass, the
// layering check over every file's includes, suppression filtering, and
// report formatting.
//
// Directive syntax (inside a // comment; block comments never carry
// directives, and string literals never reach the parser):
//   // wcle-lint: <rule>-ok(reason)   suppress <rule> on this line (trailing
//                                     comment) or on the next line
//                                     (standalone comment); the reason is
//                                     mandatory and is carried into the
//                                     report so reviews can audit it.
//
// A suppression that names an unknown rule, a reason-less suppression, or
// any other directive text is itself a "directive" diagnostic — and so is a
// *stale* suppression (one whose rule produces no finding on the line it
// covers): annotations are part of the checked surface, not free-form
// comments.
//
// Pipeline: each file is lexed, directive-parsed and rule-checked
// independently, in sorted path order. The merge stage then checks every
// file's includes against the layer config, matches suppressions, and
// reports stale ones. Output order is deterministic.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "lint/rules.hpp"

namespace wcle_lint {

/// Tool version: stamped into reports only.
extern const char kLintVersion[];

/// A diagnostic that was silenced by an `-ok(reason)` annotation. Kept in
/// the report (and the JSON/SARIF output) so the justification is auditable.
struct SuppressedDiagnostic {
  std::string file;
  std::uint32_t line = 0;
  std::string rule;
  std::string reason;
};

struct LintOptions {
  /// Restrict to these rules; empty = all rules.
  std::vector<std::string> rules;
  /// Layering DAG config (tools/lint/layers.txt); empty disables the
  /// layering rule.
  std::string layers_file;
};

struct LintReport {
  std::vector<Diagnostic> diagnostics;
  std::vector<SuppressedDiagnostic> suppressed;
  /// Infrastructure failures (unreadable root, bad layers file): these are
  /// not code findings and map to exit code 2, never to a "clean" pass.
  std::vector<std::string> errors;
  std::uint64_t files_scanned = 0;

  bool clean() const { return diagnostics.empty() && errors.empty(); }
};

/// Lints one in-memory buffer (the unit-test entry point).
LintReport lint_source(const std::string& display_path,
                       const std::string& source,
                       const LintOptions& options = {});

/// Lints files and/or directories (directories are walked recursively for
/// .cpp/.cc/.cxx/.hpp/.h files). A missing or unreadable path is an entry in
/// LintReport::errors, not a silent empty pass.
LintReport lint_paths(const std::vector<std::string>& paths,
                      const LintOptions& options = {});

/// Human-readable report: one `file:line:col: [rule] message` line per
/// diagnostic plus a summary trailer (errors, if any, come first).
std::string to_text(const LintReport& report);

/// Machine-readable report (stable schema; see tools/lint/README.md).
/// `roots` is echoed back for provenance.
std::string to_json(const LintReport& report,
                    const std::vector<std::string>& roots);

/// Writes `s` as a JSON string literal, with escaping. Shared with the
/// SARIF writer.
void json_escape(std::ostream& os, const std::string& s);

}  // namespace wcle_lint
