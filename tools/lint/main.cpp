// wcle_lint CLI.
//
//   wcle_lint --root=src [--root=DIR]... [FILE...]
//             [--format=text|json|sarif] [--out=FILE] [--sarif=FILE]
//             [--rule=NAME]... [--layers=FILE] [--list-rules]
//
// Exit codes: 0 = clean, 1 = diagnostics found, 2 = usage or I/O error
// (including a --root that does not exist: a missing tree is never a clean
// pass).
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint/linter.hpp"
#include "lint/sarif.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: wcle_lint [--root=DIR]... [FILE...] [options]\n"
        "\n"
        "Static determinism & layering checks for the WCLE tree.\n"
        "\n"
        "options:\n"
        "  --root=DIR       lint every .cpp/.cc/.hpp/.h under DIR "
        "(repeatable)\n"
        "  --format=FMT     text (default), json, or sarif\n"
        "  --out=FILE       write the report to FILE instead of stdout\n"
        "  --sarif=FILE     additionally write a SARIF 2.1.0 log to FILE\n"
        "  --rule=NAME      restrict to a rule (repeatable; default: all)\n"
        "  --layers=FILE    layering DAG config "
        "(default: tools/lint/layers.txt in the\n"
        "                   working directory or above the inputs)\n"
        "  --list-rules     print every rule with its description and exit\n"
        "\n"
        "Suppressions: // wcle-lint: <rule>-ok(reason)   (same or next "
        "line)\n";
}

/// The default layering config, tools/lint/layers.txt, looked up in the
/// working directory and then above each input, so the rule also runs from
/// a build tree (`cd build && ./wcle_lint --root ../src`). Empty when none
/// is found.
std::string find_default_layers(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  const fs::path rel = fs::path("tools") / "lint" / "layers.txt";
  std::error_code ec;  // a missing candidate is not an error
  if (fs::is_regular_file(rel, ec)) return rel.string();
  for (const std::string& p : paths) {
    for (fs::path dir = fs::absolute(p, ec); dir.has_relative_path();
         dir = dir.parent_path())
      if (fs::is_regular_file(dir / rel, ec)) return (dir / rel).string();
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::vector<std::string> roots;
  wcle_lint::LintOptions options;
  std::string format = "text";
  std::string out_path;
  std::string sarif_path;
  bool layers_explicit = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg == "--list-rules") {
      for (const std::string& r : wcle_lint::rule_names())
        std::cout << r << "\n    " << wcle_lint::rule_description(r) << "\n";
      return 0;
    } else if (arg.rfind("--root=", 0) == 0) {
      roots.push_back(value("--root="));
    } else if (arg == "--root" && i + 1 < argc) {
      roots.push_back(argv[++i]);
    } else if (arg.rfind("--format=", 0) == 0) {
      format = value("--format=");
      if (format != "text" && format != "json" && format != "sarif") {
        std::cerr << "wcle_lint: unknown format '" << format << "'\n";
        return 2;
      }
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = value("--out=");
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = value("--sarif=");
    } else if (arg.rfind("--layers=", 0) == 0) {
      options.layers_file = value("--layers=");
      layers_explicit = true;
    } else if (arg.rfind("--rule=", 0) == 0) {
      const std::string rule = value("--rule=");
      const auto& names = wcle_lint::rule_names();
      bool known = false;
      for (const std::string& r : names) known = known || r == rule;
      if (!known) {
        std::cerr << "wcle_lint: unknown rule '" << rule
                  << "' (see --list-rules)\n";
        return 2;
      }
      options.rules.push_back(rule);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "wcle_lint: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  paths.insert(paths.end(), roots.begin(), roots.end());
  if (paths.empty()) {
    std::cerr << "wcle_lint: no --root or files given\n";
    usage(std::cerr);
    return 2;
  }
  // An explicit --layers= (empty) disables the rule.
  if (!layers_explicit) {
    options.layers_file = find_default_layers(paths);
    const bool layering_on =
        options.rules.empty() ||
        std::find(options.rules.begin(), options.rules.end(), "layering") !=
            options.rules.end();
    if (options.layers_file.empty() && layering_on)
      std::cerr << "wcle_lint: note: no tools/lint/layers.txt in the working "
                   "directory or above the inputs; the layering rule is "
                   "skipped (pass --layers=FILE)\n";
  }

  const wcle_lint::LintReport report = wcle_lint::lint_paths(paths, options);

  for (const std::string& e : report.errors)
    std::cerr << "wcle_lint: error: " << e << "\n";

  const std::string rendered =
      format == "json"    ? wcle_lint::to_json(report, paths)
      : format == "sarif" ? wcle_lint::to_sarif(report, paths)
                          : wcle_lint::to_text(report);
  if (out_path.empty()) {
    std::cout << rendered;
    if (format != "text") std::cout << "\n";
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "wcle_lint: cannot write " << out_path << "\n";
      return 2;
    }
    out << rendered;
    if (format != "text") out << "\n";
  }
  if (!sarif_path.empty()) {
    std::ofstream sf(sarif_path, std::ios::binary);
    if (!sf) {
      std::cerr << "wcle_lint: cannot write " << sarif_path << "\n";
      return 2;
    }
    sf << wcle_lint::to_sarif(report, paths) << "\n";
  }
  if (!report.errors.empty()) return 2;
  return report.clean() ? 0 : 1;
}
