// wcle_lint fixture: suppression syntax round-trip.
//
// Every violation in this file is suppressed with a justification, so the
// linter must report zero diagnostics and exactly four suppressed entries
// whose reasons survive into the JSON report verbatim. Lint input only.
#include <random>
#include <unordered_map>

namespace fixture {

void trailing_form() {
  auto t = time(nullptr);  // wcle-lint: banned-rng-ok(trailing-comment form)
  (void)t;
}

void standalone_form() {
  // wcle-lint: banned-rng-ok(standalone comment binds to the next line)
  auto t = time(nullptr);
  (void)t;
}

void one_reason_per_rule() {
  std::unordered_map<int, int> table;
  // wcle-lint: unordered-iter-ok(order folded through a commutative sum)
  for (const auto& [k, v] : table) total += v;
}

void engine_with_reason() {
  // A suppression comment may be preceded by ordinary prose comments; only
  // a comment that leads with the tool's marker is a directive.
  // wcle-lint: banned-rng-ok(fixture: engine reason must round-trip via JSON)
  std::mt19937 gen(42);
  (void)gen;
}

}  // namespace fixture
