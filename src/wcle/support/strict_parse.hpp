// Strict whole-string numeric parsing shared by every surface that turns
// user-supplied text into numbers (the spec grammar, the family ':'
// parameters): the value parses iff the entire string is consumed, so
// "12abc", "", and locale surprises are rejected uniformly instead of each
// call site hand-rolling its own stod/stoull-with-used check.
#pragma once

#include <cctype>
#include <cstdint>
#include <optional>
#include <string>

namespace wcle {

/// True if `s` starts like an unsigned number: non-empty, and its first
/// character is neither whitespace nor a sign. std::stoull and std::stod
/// skip leading whitespace and then take a sign (stoull wraps " -1" to
/// 2^64 - 1), and the whole-string check alone sees neither.
inline bool unsigned_text(const std::string& s) {
  return !s.empty() && s[0] != '-' && s[0] != '+' &&
         !std::isspace(static_cast<unsigned char>(s[0]));
}

/// Whole-string unsigned parse; nullopt on empty, whitespace, sign, trailing
/// garbage, or overflow.
inline std::optional<std::uint64_t> strict_u64(const std::string& s) {
  if (!unsigned_text(s)) return std::nullopt;
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(s, &used);
    if (used == s.size()) return v;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

/// Whole-string unsigned double parse; nullopt on empty, whitespace, sign,
/// or trailing garbage.
inline std::optional<double> strict_double(const std::string& s) {
  if (!unsigned_text(s)) return std::nullopt;
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used == s.size()) return v;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

}  // namespace wcle
