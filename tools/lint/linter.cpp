#include "lint/linter.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace wcle_lint {

const char kLintVersion[] = "3.0.0";

namespace {

constexpr const char* kDirectivePrefix = "wcle-lint:";

struct Suppression {
  std::uint32_t comment_line = 0;
  std::string rule;
  std::string reason;
  bool trailing = false;  ///< trailing comments bind to their own line only

  bool covers(std::uint32_t line) const {
    if (line == comment_line) return true;
    // A standalone suppression binds to the next line exactly: a blank line
    // (or anything else) between annotation and finding breaks the binding.
    return !trailing && line == comment_line + 1;
  }
};

struct Directives {
  std::vector<Suppression> suppressions;
  std::vector<Diagnostic> errors;  ///< rule "directive"
};

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  std::size_t e = s.find_last_not_of(" \t");
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

/// Parses every wcle-lint directive out of a file's comments. Only line
/// comments participate: a directive-looking string inside a /* */ block is
/// prose (and string literals never reach the comment list at all).
Directives parse_directives(const std::string& path,
                            const std::vector<Comment>& comments) {
  Directives out;

  for (const Comment& c : comments) {
    if (c.block) continue;
    std::size_t pos = c.text.find(kDirectivePrefix);
    if (pos == std::string::npos) continue;
    const std::string body =
        trim(c.text.substr(pos + std::string(kDirectivePrefix).size()));

    // <rule>-ok(reason)
    const std::size_t ok = body.find("-ok(");
    const std::size_t close = body.rfind(')');
    if (ok != std::string::npos && close != std::string::npos &&
        close > ok + 3) {
      const std::string rule = body.substr(0, ok);
      const std::string reason = trim(body.substr(ok + 4, close - ok - 4));
      const auto& names = rule_names();
      if (std::find(names.begin(), names.end(), rule) == names.end()) {
        out.errors.push_back({path, c.line, 1, "directive",
                              "suppression names unknown rule '" + rule +
                                  "' (see wcle_lint --list-rules)"});
      } else if (reason.empty()) {
        out.errors.push_back({path, c.line, 1, "directive",
                              "suppression of '" + rule +
                                  "' has an empty reason: every suppression "
                                  "must carry a written justification"});
      } else {
        out.suppressions.push_back({c.line, rule, reason, c.trailing});
      }
      continue;
    }

    out.errors.push_back(
        {path, c.line, 1, "directive",
         "unrecognized wcle-lint directive '" + body +
             "': expected <rule>-ok(reason)"});
  }
  return out;
}

bool rule_enabled(const LintOptions& options, const std::string& rule) {
  if (options.rules.empty()) return true;
  return std::find(options.rules.begin(), options.rules.end(), rule) !=
         options.rules.end();
}

/// Everything the per-file pass produces. Depends only on the file's
/// content (every rule runs; the --rule filter applies at merge).
struct FileAnalysis {
  std::string display;
  std::vector<Diagnostic> raw;  ///< lexical findings + directive errors
  std::vector<Suppression> sups;
  std::vector<IncludeDirective> includes;
};

FileAnalysis analyze_source(const std::string& display,
                            const std::string& source) {
  FileAnalysis a;
  a.display = display;
  LexResult lx = lex(source);
  Directives dirs = parse_directives(display, lx.comments);
  a.sups = std::move(dirs.suppressions);
  run_rules(display, lx, a.raw);
  for (Diagnostic& d : dirs.errors) a.raw.push_back(std::move(d));
  a.includes = std::move(lx.includes);
  return a;
}

// ------------------------------------------------------------------ merge

/// Combines per-file analyses into the final report: the layering rule,
/// rule filtering, suppression matching, and stale-suppression detection.
/// Deterministic given the analysis order.
void merge(std::vector<FileAnalysis>& analyses, const LintOptions& options,
           LintReport& report) {
  report.files_scanned += analyses.size();

  std::vector<std::vector<bool>> used(analyses.size());
  for (std::size_t i = 0; i < analyses.size(); ++i)
    used[i].assign(analyses[i].sups.size(), false);

  std::vector<Diagnostic> all;

  // Layering: config diagnostics plus per-file include checks.
  if (!options.layers_file.empty() && rule_enabled(options, "layering")) {
    std::ifstream in(options.layers_file, std::ios::binary);
    if (!in) {
      report.errors.push_back("cannot read layers file '" +
                              options.layers_file + "'");
    } else {
      std::ostringstream buf;
      buf << in.rdbuf();
      LayerConfig cfg = parse_layer_config(options.layers_file, buf.str());
      for (Diagnostic& d : cfg.errors) all.push_back(std::move(d));
      for (const FileAnalysis& a : analyses)
        check_layering(a.display, a.includes, cfg, all);
    }
  }

  for (FileAnalysis& a : analyses)
    for (Diagnostic& d : a.raw) all.push_back(std::move(d));

  // Rule filter + suppression matching.
  std::unordered_map<std::string, std::size_t> file_of;
  for (std::size_t i = 0; i < analyses.size(); ++i)
    file_of[analyses[i].display] = i;

  for (Diagnostic& d : all) {
    if (!rule_enabled(options, d.rule)) continue;
    const Suppression* hit = nullptr;
    auto at = file_of.find(d.file);
    if (at != file_of.end()) {
      FileAnalysis& a = analyses[at->second];
      for (std::size_t j = 0; j < a.sups.size(); ++j)
        if (a.sups[j].rule == d.rule && a.sups[j].covers(d.line)) {
          hit = &a.sups[j];
          used[at->second][j] = true;
          break;
        }
    }
    if (hit != nullptr)
      report.suppressed.push_back({d.file, d.line, d.rule, hit->reason});
    else
      report.diagnostics.push_back(std::move(d));
  }

  // Stale suppressions: the rule is enabled, yet nothing was silenced.
  if (rule_enabled(options, "directive")) {
    for (std::size_t i = 0; i < analyses.size(); ++i)
      for (std::size_t j = 0; j < analyses[i].sups.size(); ++j) {
        const Suppression& s = analyses[i].sups[j];
        if (used[i][j] || !rule_enabled(options, s.rule)) continue;
        // Without a layer config the layering rule never runs, so its
        // suppressions cannot prove themselves useful — not staleness.
        if (s.rule == "layering" && options.layers_file.empty()) continue;
        report.diagnostics.push_back(
            {analyses[i].display, s.comment_line, 1, "directive",
             "stale suppression: '" + s.rule +
                 "-ok' silences nothing here — the finding it covered is "
                 "gone, so delete the annotation (or re-justify it against "
                 "a real finding)"});
      }
  }

  auto diag_less = [](const Diagnostic& x, const Diagnostic& y) {
    if (x.file != y.file) return x.file < y.file;
    if (x.line != y.line) return x.line < y.line;
    if (x.col != y.col) return x.col < y.col;
    return x.rule < y.rule;
  };
  std::sort(report.diagnostics.begin(), report.diagnostics.end(), diag_less);
  std::sort(report.suppressed.begin(), report.suppressed.end(),
            [](const SuppressedDiagnostic& x, const SuppressedDiagnostic& y) {
              if (x.file != y.file) return x.file < y.file;
              if (x.line != y.line) return x.line < y.line;
              return x.rule < y.rule;
            });
}

bool lintable_extension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h";
}

}  // namespace

LintReport lint_source(const std::string& display_path,
                       const std::string& source, const LintOptions& options) {
  LintReport report;
  std::vector<FileAnalysis> analyses{analyze_source(display_path, source)};
  merge(analyses, options, report);
  return report;
}

LintReport lint_paths(const std::vector<std::string>& paths,
                      const LintOptions& options) {
  namespace fs = std::filesystem;
  LintReport report;

  // Collect the worklist first, sorted, so reports are stable regardless of
  // directory-entry order.
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (auto it = fs::recursive_directory_iterator(p, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it)
        if (it->is_regular_file() && lintable_extension(it->path()))
          files.push_back(it->path().generic_string());
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      report.errors.push_back("cannot read '" + p +
                              "': no such file or directory");
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<FileAnalysis> analyses;
  analyses.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      report.errors.push_back("cannot open file '" + file + "'");
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    analyses.push_back(analyze_source(file, buf.str()));
  }
  merge(analyses, options, report);
  return report;
}

std::string to_text(const LintReport& report) {
  std::ostringstream os;
  for (const std::string& e : report.errors) os << "error: " << e << "\n";
  for (const Diagnostic& d : report.diagnostics)
    os << d.file << ":" << d.line << ":" << d.col << ": [" << d.rule << "] "
       << d.message << "\n";
  os << report.diagnostics.size() << " diagnostic(s), "
     << report.suppressed.size() << " suppressed, " << report.files_scanned
     << " file(s) scanned\n";
  return os.str();
}

std::string to_json(const LintReport& report,
                    const std::vector<std::string>& roots) {
  std::ostringstream os;
  os << "{\"tool\":\"wcle_lint\",\"version\":2,\"roots\":[";
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i > 0) os << ",";
    json_escape(os, roots[i]);
  }
  os << "],\"files_scanned\":" << report.files_scanned << ",\"errors\":[";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) os << ",";
    json_escape(os, report.errors[i]);
  }
  os << "],\"diagnostics\":[";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    if (i > 0) os << ",";
    os << "{\"file\":";
    json_escape(os, d.file);
    os << ",\"line\":" << d.line << ",\"col\":" << d.col << ",\"rule\":";
    json_escape(os, d.rule);
    os << ",\"message\":";
    json_escape(os, d.message);
    os << "}";
  }
  os << "],\"suppressed\":[";
  for (std::size_t i = 0; i < report.suppressed.size(); ++i) {
    const SuppressedDiagnostic& s = report.suppressed[i];
    if (i > 0) os << ",";
    os << "{\"file\":";
    json_escape(os, s.file);
    os << ",\"line\":" << s.line << ",\"rule\":";
    json_escape(os, s.rule);
    os << ",\"reason\":";
    json_escape(os, s.reason);
    os << "}";
  }
  os << "]}";
  return os.str();
}

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace wcle_lint
