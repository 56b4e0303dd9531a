#include "util/flags.hpp"

#include <stdexcept>

namespace coreda::util {

Flags Flags::parse(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  return parse(tokens);
}

Flags Flags::parse(const std::vector<std::string>& tokens) {
  Flags flags;
  bool flags_done = false;
  for (const std::string& token : tokens) {
    if (!flags_done && token == "--") {
      flags_done = true;
      continue;
    }
    if (!flags_done && token.rfind("--", 0) == 0) {
      const std::string body = token.substr(2);
      const auto eq = body.find('=');
      if (eq == std::string::npos) {
        flags.values_[body] = "true";
      } else {
        flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      }
      continue;
    }
    if (flags.command_.empty()) {
      flags.command_ = token;
    } else {
      flags.positional_.push_back(token);
    }
  }
  return flags;
}

std::string Flags::get(const std::string& key,
                       const std::string& fallback) const {
  const auto it = values_.find(key);
  return it != values_.end() ? it->second : fallback;
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(key);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + key + " expects a number, got '" +
                                it->second + "'");
  }
}

std::int64_t Flags::get_int(const std::string& key,
                            std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(key);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + key +
                                " expects an integer, got '" + it->second +
                                "'");
  }
}

std::size_t Flags::get_count(const std::string& key,
                             std::size_t fallback) const {
  if (!has(key)) return fallback;
  const std::int64_t value = get_int(key, 0);
  if (value < 0) {
    throw std::invalid_argument("flag --" + key +
                                " expects a count >= 0, got '" + get(key) +
                                "'");
  }
  return static_cast<std::size_t>(value);
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1" || it->second == "yes") {
    return true;
  }
  if (it->second == "false" || it->second == "0" || it->second == "no") {
    return false;
  }
  throw std::invalid_argument("flag --" + key + " expects a boolean, got '" +
                              it->second + "'");
}

std::vector<std::string> Flags::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

}  // namespace coreda::util
