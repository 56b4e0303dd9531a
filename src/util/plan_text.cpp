#include "util/plan_text.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace coreda::util {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::size_t leading_ws(const std::string& raw) noexcept {
  const std::size_t b = raw.find_first_not_of(" \t\r");
  return b == std::string::npos ? raw.size() : b;
}

void parse_fail(std::string_view context, std::size_t line_no,
                const std::string& what) {
  std::ostringstream msg;
  msg << context << " line " << line_no << ": " << what;
  throw std::runtime_error(msg.str());
}

void parse_fail(std::string_view context, std::size_t line_no,
                std::size_t col, const std::string& what) {
  std::ostringstream msg;
  msg << context << " line " << line_no << " col " << col << ": " << what;
  throw std::runtime_error(msg.str());
}

namespace {

/// One implementation behind the col-less and col-carrying diagnostics.
[[noreturn]] void fail_at(std::string_view context, std::size_t line_no,
                          std::size_t col, const std::string& what) {
  if (col == 0) parse_fail(context, line_no, what);
  parse_fail(context, line_no, col, what);
}

double parse_double_at(std::string_view context, const std::string& v,
                       std::size_t line_no, std::size_t col) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos != v.size()) {
      fail_at(context, line_no, col, "trailing junk in '" + v + "'");
    }
    // stod reads "nan" and "inf", which pass every range check after it.
    if (!std::isfinite(d)) {
      fail_at(context, line_no, col,
              "expected a finite number, got '" + v + "'");
    }
    return d;
  } catch (const std::invalid_argument&) {
    fail_at(context, line_no, col, "expected a number, got '" + v + "'");
  } catch (const std::out_of_range&) {
    fail_at(context, line_no, col, "number out of range: '" + v + "'");
  }
}

std::uint64_t parse_u64_at(std::string_view context, const std::string& v,
                           std::size_t line_no, std::size_t col) {
  // stoull accepts a sign and negates in unsigned arithmetic: "-1" would
  // read as 2⁶⁴ − 1.
  if (!v.empty() && (v.front() == '-' || v.front() == '+')) {
    fail_at(context, line_no, col,
            "expected an unsigned integer, got '" + v + "'");
  }
  try {
    std::size_t pos = 0;
    const unsigned long long u = std::stoull(v, &pos);
    if (pos != v.size()) {
      fail_at(context, line_no, col, "trailing junk in '" + v + "'");
    }
    return static_cast<std::uint64_t>(u);
  } catch (const std::invalid_argument&) {
    fail_at(context, line_no, col, "expected an integer, got '" + v + "'");
  } catch (const std::out_of_range&) {
    fail_at(context, line_no, col, "integer out of range: '" + v + "'");
  }
}

}  // namespace

double parse_double(std::string_view context, const std::string& v,
                    std::size_t line_no) {
  return parse_double_at(context, v, line_no, 0);
}

double parse_double(std::string_view context, const std::string& v,
                    std::size_t line_no, std::size_t col) {
  return parse_double_at(context, v, line_no, col);
}

std::string format_double(double d) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d);
  return std::string(buf, end);
}

std::uint64_t parse_u64(std::string_view context, const std::string& v,
                        std::size_t line_no) {
  return parse_u64_at(context, v, line_no, 0);
}

std::uint64_t parse_u64(std::string_view context, const std::string& v,
                        std::size_t line_no, std::size_t col) {
  return parse_u64_at(context, v, line_no, col);
}

std::string parse_section(std::string_view context, const std::string& text,
                          std::string_view keyword, std::size_t line_no) {
  if (text.back() != ']') parse_fail(context, line_no, "unterminated section");
  const std::string header = trim(text.substr(1, text.size() - 2));
  const std::string prefix = std::string(keyword) + " ";
  if (header.rfind(prefix, 0) != 0) {
    parse_fail(context, line_no,
               "expected [" + std::string(keyword) + " NAME], got [" + header +
                   "]");
  }
  const std::string name = trim(header.substr(prefix.size()));
  if (name.empty()) {
    parse_fail(context, line_no, "empty " + std::string(keyword) + " name");
  }
  return name;
}

KeyValue split_key_value(std::string_view context, const std::string& text,
                         std::size_t line_no) {
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos) {
    parse_fail(context, line_no, "expected key = value, got '" + text + "'");
  }
  KeyValue kv;
  kv.key = trim(text.substr(0, eq));
  kv.value = trim(text.substr(eq + 1));
  kv.key_col = text.find_first_not_of(" \t\r") + 1;
  const std::size_t vpos = text.find_first_not_of(" \t\r", eq + 1);
  kv.value_col = (vpos == std::string::npos ? text.size() : vpos) + 1;
  return kv;
}

}  // namespace coreda::util
