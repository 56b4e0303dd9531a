#include "planning/codec.hpp"

#include <algorithm>
#include <stdexcept>

namespace coreda::planning {

std::string to_string(RemindingLevel level) {
  return level == RemindingLevel::kMinimal ? "minimal" : "specific";
}

StateCodec::StateCodec(std::vector<adl::StepId> step_ids) {
  symbols_.reserve(step_ids.size() + 1);
  symbols_.push_back(adl::kIdleStep);
  for (adl::StepId id : step_ids) {
    if (id == adl::kIdleStep) {
      throw std::invalid_argument("StateCodec: StepId 0 is implicit");
    }
    if (std::find(symbols_.begin(), symbols_.end(), id) != symbols_.end()) {
      throw std::invalid_argument("StateCodec: duplicate StepId " +
                                  std::to_string(id));
    }
    symbols_.push_back(id);
  }
}

std::optional<std::size_t> StateCodec::symbol_index(
    adl::StepId id) const noexcept {
  const auto it = std::find(symbols_.begin(), symbols_.end(), id);
  if (it == symbols_.end()) return std::nullopt;
  return static_cast<std::size_t>(it - symbols_.begin());
}

std::optional<rl::StateId> StateCodec::encode(
    PlannerState state) const noexcept {
  const auto prev = symbol_index(state.prev);
  const auto cur = symbol_index(state.cur);
  if (!prev || !cur) return std::nullopt;
  return static_cast<rl::StateId>(*prev * symbols_.size() + *cur);
}

PlannerState StateCodec::decode(rl::StateId id) const {
  if (id >= num_states()) {
    throw std::out_of_range("StateCodec: state id out of range");
  }
  return PlannerState{symbols_[id / symbols_.size()],
                      symbols_[id % symbols_.size()]};
}

ActionCodec::ActionCodec(std::vector<adl::ToolId> tool_ids)
    : tools_(std::move(tool_ids)) {
  if (tools_.empty()) {
    throw std::invalid_argument("ActionCodec: no tools");
  }
  for (std::size_t i = 0; i < tools_.size(); ++i) {
    if (tools_[i] == adl::kNoTool) {
      throw std::invalid_argument("ActionCodec: tool id 0 is reserved");
    }
    for (std::size_t j = i + 1; j < tools_.size(); ++j) {
      if (tools_[i] == tools_[j]) {
        throw std::invalid_argument("ActionCodec: duplicate tool id " +
                                    std::to_string(tools_[i]));
      }
    }
  }
}

std::optional<rl::ActionId> ActionCodec::encode(
    PlannerAction action) const noexcept {
  const auto it = std::find(tools_.begin(), tools_.end(), action.tool);
  if (it == tools_.end()) return std::nullopt;
  const auto tool_index = static_cast<std::size_t>(it - tools_.begin());
  return static_cast<rl::ActionId>(
      tool_index * 2 + (action.level == RemindingLevel::kMinimal ? 0 : 1));
}

PlannerAction ActionCodec::decode(rl::ActionId id) const {
  if (id >= num_actions()) {
    throw std::out_of_range("ActionCodec: action id out of range");
  }
  return PlannerAction{tools_[id / 2], (id % 2) == 0
                                           ? RemindingLevel::kMinimal
                                           : RemindingLevel::kSpecific};
}

}  // namespace coreda::planning
