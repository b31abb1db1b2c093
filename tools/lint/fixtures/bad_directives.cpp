// wcle_lint fixture: directive rule — malformed annotations are findings.
//
// A standalone `// SEED: directive` marker expects the diagnostic on the
// NEXT line (the directive comment itself). Lint input only — never
// compiled.

namespace fixture {

// SEED: directive
// wcle-lint: frobnicate-the-linter
void unknown_directive() {}

// SEED: directive
// wcle-lint: banned-rng-ok()
void empty_reason() {}

// SEED: directive
// wcle-lint: no-such-rule-ok(reasonable)
void unknown_rule() {}

}  // namespace fixture
