#include "sim/scenario_dsl.hpp"

#include <istream>
#include <ostream>
#include <string_view>

#include "util/plan_text.hpp"

namespace coreda::sim {
namespace {

constexpr std::string_view kContext = "scenario plan";

bool parse_bool(const std::string& v, std::size_t line_no, std::size_t col) {
  if (v == "true") return true;
  if (v == "false") return false;
  util::parse_fail(kContext, line_no, col,
                   "expected true|false, got '" + v + "'");
}

double parse_unit_interval(const std::string& v, std::size_t line_no,
                           std::size_t col, const std::string& key) {
  const double d = util::parse_double(kContext, v, line_no, col);
  if (d < 0.0 || d > 1.0) {
    util::parse_fail(kContext, line_no, col,
                     key + " must be in [0, 1], got '" + v + "'");
  }
  return d;
}

double parse_at_most(const std::string& v, std::size_t line_no,
                     std::size_t col, const std::string& key, double max) {
  const double d = util::parse_double(kContext, v, line_no, col);
  if (d > max) {
    util::parse_fail(kContext, line_no, col,
                     key + " must be <= " + util::format_double(max) +
                         ", got '" + v + "'");
  }
  return d;
}

/// A count in [min, max].
std::uint64_t parse_count(const std::string& v, std::size_t line_no,
                          std::size_t col, const std::string& key,
                          std::uint64_t min, std::uint64_t max) {
  const std::uint64_t n = util::parse_u64(kContext, v, line_no, col);
  if (n < min) {
    util::parse_fail(kContext, line_no, col,
                     key + " must be >= " + std::to_string(min));
  }
  if (n > max) {
    util::parse_fail(kContext, line_no, col,
                     key + " must be <= " + std::to_string(max) + ", got '" +
                         v + "'");
  }
  return n;
}

}  // namespace

ScenarioPlan ScenarioPlan::parse(std::istream& in) {
  ScenarioPlan plan;
  ScenarioPart* current = nullptr;
  std::size_t part_line = 0;  // header line of the part being filled
  std::string line;
  std::size_t line_no = 0;

  const auto finalize_part = [&] {
    if (current != nullptr && current->is_interrupt() &&
        current->pause_s <= 0.0) {
      util::parse_fail(kContext, part_line, 1,
                       "[interrupt] needs pause_s > 0");
    }
  };

  while (std::getline(in, line)) {
    ++line_no;
    const std::string text = util::trim(line);
    if (text.empty() || text[0] == '#') continue;
    const std::size_t lead = util::leading_ws(line);
    if (text.front() == '[') {
      finalize_part();
      if (text.back() != ']') {
        util::parse_fail(kContext, line_no, lead + 1, "unterminated section");
      }
      const std::string header = util::trim(text.substr(1, text.size() - 2));
      if (header == "interrupt") {
        plan.parts.emplace_back();
      } else if (header.rfind("segment ", 0) == 0) {
        // trim() already guarantees the tail is non-empty: a nameless
        // "[segment ]" loses its trailing space and lands in the
        // expected-ADL diagnostic below, as FaultPlan's sections do.
        plan.parts.emplace_back();
        plan.parts.back().adl = util::trim(header.substr(8));
      } else {
        util::parse_fail(
            kContext, line_no, lead + 1,
            "expected [segment ADL] or [interrupt], got [" + header + "]");
      }
      current = &plan.parts.back();
      part_line = line_no;
      continue;
    }
    if (text.find('=') == std::string::npos) {
      util::parse_fail(kContext, line_no, lead + 1,
                       "expected key = value, got '" + text + "'");
    }
    const util::KeyValue kv = util::split_key_value(kContext, text, line_no);
    const std::string& key = kv.key;
    const std::string& value = kv.value;
    const std::size_t vcol = lead + kv.value_col;
    const std::size_t kcol = lead + kv.key_col;
    if (current == nullptr) {
      if (key == "seed") {
        plan.seed = util::parse_u64(kContext, value, line_no, vcol);
      } else if (key == "users") {
        plan.users = parse_count(value, line_no, vcol, "users", 1, kMaxUsers);
      } else if (key == "rounds") {
        plan.rounds =
            parse_count(value, line_no, vcol, "rounds", 1, kMaxRounds);
      } else if (key == "severity") {
        plan.severity =
            parse_unit_interval(value, line_no, vcol, "severity");
      } else if (key == "severity_drift") {
        plan.severity_drift =
            parse_unit_interval(value, line_no, vcol, "severity_drift");
      } else if (key == "compliance_decay") {
        plan.compliance_decay =
            parse_unit_interval(value, line_no, vcol, "compliance_decay");
      } else if (key == "arrivals") {
        if (value != "all" && value != "roundrobin") {
          util::parse_fail(kContext, line_no, vcol,
                           "arrivals must be all|roundrobin, got '" + value +
                               "'");
        }
        plan.arrivals = value;
      } else if (key == "active") {
        plan.active = parse_count(value, line_no, vcol, "active", 0, kMaxUsers);
      } else if (key == "hint") {
        plan.hint = value;
      } else if (key == "max_minutes") {
        plan.max_minutes = parse_at_most(value, line_no, vcol, "max_minutes",
                                         kMaxMinutes);
        if (plan.max_minutes <= 0.0) {
          util::parse_fail(kContext, line_no, vcol, "max_minutes must be > 0");
        }
      } else {
        util::parse_fail(kContext, line_no, kcol,
                         "unknown top-level key '" + key + "'");
      }
      continue;
    }
    if (current->is_interrupt()) {
      if (key == "pause_s") {
        current->pause_s = parse_at_most(value, line_no, vcol, "pause_s",
                                         kMaxPauseSeconds);
      } else {
        util::parse_fail(kContext, line_no, kcol,
                         "unknown interrupt key '" + key + "'");
      }
      continue;
    }
    if (key == "steps") {
      current->steps = parse_count(value, line_no, vcol, "steps", 0, kMaxSteps);
    } else if (key == "resume") {
      current->resume = parse_bool(value, line_no, vcol);
      if (current->resume) {
        bool seen_before = false;
        for (std::size_t i = 0; i + 1 < plan.parts.size(); ++i) {
          if (plan.parts[i].adl == current->adl) seen_before = true;
        }
        if (!seen_before) {
          util::parse_fail(kContext, line_no, vcol,
                           "resume of '" + current->adl +
                               "' without an earlier segment");
        }
      }
    } else if (key == "freeze") {
      current->freeze = parse_count(value, line_no, vcol, "freeze", 0,
                                    kMaxForcedDecisions);
    } else if (key == "wrong_tool") {
      current->wrong_tool = parse_count(value, line_no, vcol, "wrong_tool", 0,
                                        kMaxForcedDecisions);
    } else {
      util::parse_fail(kContext, line_no, kcol,
                       "unknown segment key '" + key + "'");
    }
  }
  finalize_part();
  bool any_segment = false;
  for (const ScenarioPart& part : plan.parts) {
    if (!part.is_interrupt()) any_segment = true;
  }
  if (!any_segment) {
    util::parse_fail(kContext, line_no + 1, "plan has no [segment] sections");
  }
  return plan;
}

void ScenarioPlan::save(std::ostream& out) const {
  out << "# coreda scenario plan v1\n";
  out << "seed = " << seed << '\n';
  out << "users = " << users << '\n';
  out << "rounds = " << rounds << '\n';
  out << "severity = " << util::format_double(severity) << '\n';
  if (severity_drift != 0.0) {
    out << "severity_drift = " << util::format_double(severity_drift) << '\n';
  }
  if (compliance_decay != 0.0) {
    out << "compliance_decay = " << util::format_double(compliance_decay)
        << '\n';
  }
  out << "arrivals = " << arrivals << '\n';
  if (active != 0) out << "active = " << active << '\n';
  if (!hint.empty()) out << "hint = " << hint << '\n';
  out << "max_minutes = " << util::format_double(max_minutes) << '\n';
  for (const ScenarioPart& part : parts) {
    if (part.is_interrupt()) {
      out << "\n[interrupt]\n";
      out << "pause_s = " << util::format_double(part.pause_s) << '\n';
      continue;
    }
    out << "\n[segment " << part.adl << "]\n";
    if (part.steps != 0) out << "steps = " << part.steps << '\n';
    if (part.resume) out << "resume = true\n";
    if (part.freeze != 0) out << "freeze = " << part.freeze << '\n';
    if (part.wrong_tool != 0) out << "wrong_tool = " << part.wrong_tool << '\n';
  }
}

}  // namespace coreda::sim
