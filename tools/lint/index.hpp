// Declaration scanner for wcle_lint's interprocedural rules.
//
// build_index walks the token stream of one translation unit and recovers a
// best-effort function index: every function *definition* (free function or
// out-of-line/inline method), the call sites inside its body, and the
// allocation evidence its body carries. No name lookup, no types — the
// callgraph layer (callgraph.hpp) resolves calls across the whole tree by
// name, which is sound enough for a single-project namespace and is pinned
// by the fixture corpus.
//
// Allocation evidence is classified at the site:
//   - plain     an unconditional allocation (operator new, make_*, growth
//               member call, allocating std:: type mention);
//   - guarded   the site is control-dependent on a pool-capacity query
//               (`.size()`, `.capacity()`, `.empty()` in a dominating `if`
//               condition, including the early-return form) — the
//               machine-checked shape of "allocates only when the warm pool
//               is exhausted", which needs no hand-written suppression.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lint/lexer.hpp"
#include "lint/rules.hpp"

namespace wcle_lint {

/// One allocation-evidence site inside a function body.
struct AllocSite {
  std::uint32_t line = 0;
  std::uint32_t col = 0;
  std::string what;      ///< e.g. "operator new", ".push_back()", "std::map"
  bool guarded = false;  ///< capacity-guarded cold growth (see file header)
};

/// One call site inside a function body.
struct CallSite {
  std::string callee;     ///< bare name ("alloc")
  std::string qualifier;  ///< "WordPool" for WordPool::alloc, "std", or ""
  bool member = false;    ///< receiver call: obj.f(...) / obj->f(...)
  std::uint32_t line = 0;
  std::uint32_t col = 0;
  bool in_no_alloc_region = false;  ///< the call site lies inside a region
};

struct FunctionInfo {
  std::string name;       ///< bare name ("step")
  std::string qualifier;  ///< enclosing qualifier as written ("Network")
  std::string display;    ///< "Network::step" or "step"
  std::uint32_t line = 0;
  std::vector<CallSite> calls;
  std::vector<AllocSite> alloc_sites;
};

/// The per-TU index consumed by the callgraph and layering passes.
struct FileIndex {
  std::string path;
  std::vector<FunctionInfo> functions;
  std::vector<IncludeDirective> includes;
};

/// Scans `lx` for function definitions and their bodies. `regions` are the
/// file's no-alloc regions (used to mark call sites that lie inside one).
FileIndex build_index(const std::string& path, const LexResult& lx,
                      const std::vector<Region>& regions);

}  // namespace wcle_lint
