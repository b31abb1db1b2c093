// Comment- and string-aware C++ tokenizer for wcle_lint.
//
// This is deliberately not a C++ parser: the lint rules (see rules.hpp) are
// lexical patterns over a token stream, which is enough to recognize banned
// identifiers and template-argument shapes without a libclang dependency.
// The lexer's job is to make that sound: nothing inside a comment, string
// literal (including raw strings), or character literal ever reaches the
// token stream, and every token knows its line/column and whether it sits
// on a preprocessor line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wcle_lint {

enum class TokKind : std::uint8_t {
  kIdent,   ///< identifier or keyword
  kNumber,  ///< numeric literal (pp-number)
  kString,  ///< string literal, contents dropped
  kChar,    ///< character literal, contents dropped
  kPunct,   ///< punctuation; "::" and "->" are single tokens
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;        ///< literal tokens carry an empty text
  std::uint32_t line = 0;  ///< 1-based
  std::uint32_t col = 0;   ///< 1-based
  bool pp = false;         ///< token lies on a preprocessor line
};

/// A comment, kept out of the token stream but preserved for directive
/// (suppression) parsing, see linter.hpp.
struct Comment {
  std::string text;        ///< body without the // or /* */ framing
  std::uint32_t line = 0;  ///< line the comment starts on
  bool trailing = false;   ///< code tokens precede it on the same line
  bool block = false;      ///< a /* */ comment (directives only bind in //)
};

/// A quoted `#include "path"` directive. Angle includes are not captured:
/// only intra-project includes participate in the layering rule.
struct IncludeDirective {
  std::string path;        ///< the text between the quotes
  std::uint32_t line = 0;  ///< line of the #include
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<IncludeDirective> includes;
};

/// Tokenizes a C++ source buffer. Never fails: unterminated literals and
/// comments are closed at end-of-file (the rules only need a best-effort
/// stream, and a truncated file should not crash the linter).
LexResult lex(const std::string& source);

}  // namespace wcle_lint
