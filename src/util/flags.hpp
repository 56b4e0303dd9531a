#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace coreda::util {

/// Minimal command-line parser for the CLI tools:
///
///   coreda simulate --adl=Tea-making --severity=0.5 --transcript
///
/// Grammar: the first non-flag token is the command; `--key=value` sets a
/// value, `--key` alone sets "true"; remaining non-flag tokens are
/// positional arguments. Unknown flags are kept (the command validates its
/// own set); `--` ends flag parsing.
class Flags {
 public:
  /// Parses argv (argv[0] is skipped).
  static Flags parse(int argc, const char* const* argv);

  /// Parses a pre-split token list (for tests).
  static Flags parse(const std::vector<std::string>& tokens);

  const std::string& command() const noexcept { return command_; }
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  bool has(const std::string& key) const noexcept {
    return values_.count(key) > 0;
  }

  /// String value of `key`, or `fallback` when absent.
  std::string get(const std::string& key,
                  const std::string& fallback = "") const;

  /// Typed accessors; throw std::invalid_argument when present but
  /// unparsable.
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// A count: get_int that also throws std::invalid_argument on a negative
  /// value, instead of letting a cast wrap it to 2^64 - n.
  std::size_t get_count(const std::string& key, std::size_t fallback) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  /// Every flag key that was supplied (for unknown-flag validation).
  std::vector<std::string> keys() const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace coreda::util
