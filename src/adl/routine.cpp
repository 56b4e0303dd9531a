#include "adl/routine.hpp"

#include <algorithm>
#include <stdexcept>

namespace coreda::adl {

AdlRoutine::AdlRoutine(std::string name, std::vector<AdlStep> steps)
    : name_(std::move(name)), steps_(std::move(steps)) {
  if (steps_.empty()) {
    throw std::invalid_argument("AdlRoutine '" + name_ + "' has no steps");
  }
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (steps_[i].tool == kNoTool) {
      throw std::invalid_argument("AdlRoutine '" + name_ +
                                  "': step uses reserved tool id 0");
    }
    for (std::size_t j = i + 1; j < steps_.size(); ++j) {
      if (steps_[i].tool == steps_[j].tool) {
        throw std::invalid_argument(
            "AdlRoutine '" + name_ + "': tool id " +
            std::to_string(steps_[i].tool) +
            " appears twice; StepIDs would alias");
      }
    }
  }
}

std::optional<std::size_t> AdlRoutine::index_of_tool(
    ToolId tool) const noexcept {
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (steps_[i].tool == tool) return i;
  }
  return std::nullopt;
}

StepId AdlRoutine::next_after(ToolId tool) const noexcept {
  const auto idx = index_of_tool(tool);
  if (!idx || *idx + 1 >= steps_.size()) return kIdleStep;
  return steps_[*idx + 1].step_id();
}

bool AdlRoutine::is_terminal(ToolId tool) const noexcept {
  return steps_.back().tool == tool;
}

Adl::Adl(std::string name, std::vector<AdlRoutine> routines)
    : name_(std::move(name)), routines_(std::move(routines)) {
  if (routines_.empty()) {
    throw std::invalid_argument("Adl '" + name_ + "' has no routines");
  }
}

std::vector<ToolId> Adl::tools() const {
  std::size_t steps = 0;
  for (const AdlRoutine& r : routines_) steps += r.steps().size();
  std::vector<ToolId> out;
  out.reserve(steps);  // a bound on the distinct tools: one allocation
  for (const AdlRoutine& r : routines_) {
    for (const AdlStep& s : r.steps()) {
      if (std::find(out.begin(), out.end(), s.tool) == out.end()) {
        out.push_back(s.tool);
      }
    }
  }
  return out;
}

bool Adl::uses(ToolId tool) const noexcept {
  return std::any_of(routines_.begin(), routines_.end(),
                     [tool](const AdlRoutine& r) {
                       return r.index_of_tool(tool).has_value();
                     });
}

}  // namespace coreda::adl
