#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace coreda::util {

/// Shared helpers for the line-oriented plan-text format used by
/// faults::FaultPlan and sim::ScenarioPlan:
///
///   # comment
///   key = value
///   [keyword NAME]
///   key = value
///
/// Both parsers walk the stream line by line, trim each line, skip blanks
/// and comments, and report malformed input as std::runtime_error carrying
/// the plan kind ("fault plan", "scenario plan"), the 1-based line number
/// and — when the caller tracks it — the 1-based column of the offending
/// token. The helpers here are the single definition of that trim/number
/// parse/diagnostic vocabulary so the two formats cannot drift apart.

/// Strips leading/trailing spaces, tabs and carriage returns.
std::string trim(const std::string& s);

/// Number of leading whitespace characters stripped by trim() — the offset
/// that maps positions inside the trimmed text back to raw-line columns.
std::size_t leading_ws(const std::string& raw) noexcept;

/// Throws std::runtime_error("<context> line <line_no>: <what>").
[[noreturn]] void parse_fail(std::string_view context, std::size_t line_no,
                             const std::string& what);

/// Throws std::runtime_error("<context> line <line_no> col <col>: <what>").
[[noreturn]] void parse_fail(std::string_view context, std::size_t line_no,
                             std::size_t col, const std::string& what);

/// Parses a full-token finite double; diagnostics match the historical
/// FaultPlan messages ("expected a number, got '...'" / "trailing junk in
/// '...'" / "number out of range: '...'"), and "nan" or "inf" is refused
/// ("expected a finite number, got '...'").
double parse_double(std::string_view context, const std::string& v,
                    std::size_t line_no);
/// Column-carrying flavor for parsers that track token positions.
double parse_double(std::string_view context, const std::string& v,
                    std::size_t line_no, std::size_t col);

/// Shortest decimal form of `d` that parses back to exactly the same
/// double, so a plan's save -> parse round trip is lossless for any finite
/// value, not just pretty ones.
std::string format_double(double d);

/// Parses a full-token unsigned integer ("expected an integer, got '...'");
/// a leading sign is refused ("expected an unsigned integer, got '...'").
std::uint64_t parse_u64(std::string_view context, const std::string& v,
                        std::size_t line_no);
std::uint64_t parse_u64(std::string_view context, const std::string& v,
                        std::size_t line_no, std::size_t col);

/// Parses a `[keyword NAME]` section header from a trimmed line that is
/// known to start with '['. Returns the trimmed NAME. Diagnostics match the
/// historical FaultPlan messages: "unterminated section",
/// "expected [<keyword> NAME], got [<header>]", "empty <keyword> name".
std::string parse_section(std::string_view context, const std::string& text,
                          std::string_view keyword, std::size_t line_no);

/// A `key = value` line split into trimmed tokens, with the 1-based column
/// of each token's first character *within the trimmed text* (add
/// leading_ws(raw) to map back to the raw line).
struct KeyValue {
  std::string key;
  std::string value;
  std::size_t key_col = 1;
  std::size_t value_col = 1;
};

/// Splits a trimmed `key = value` line. Throws the historical
/// "expected key = value, got '<text>'" diagnostic when there is no '='.
KeyValue split_key_value(std::string_view context, const std::string& text,
                         std::size_t line_no);

}  // namespace coreda::util
