#pragma once

#include <optional>
#include <string>
#include <vector>

#include "adl/tool.hpp"
#include "adl/types.hpp"

namespace coreda::adl {

/// One step of an ADL: a named action carried out with one primary tool.
/// The StepId of a step equals the ToolId of its primary tool (paper §2.1).
struct AdlStep {
  std::string name;
  ToolId tool = kNoTool;

  StepId step_id() const noexcept { return tool; }
};

/// An ordered routine for completing one ADL — e.g. the four tea-making
/// steps of the paper's Figure 1. A routine visits each tool at most once
/// (the StepID doubles as the step identity, so repeated tools would alias).
class AdlRoutine {
 public:
  /// Validates and stores the steps. Throws std::invalid_argument if the
  /// routine is empty, uses tool id 0, or repeats a tool.
  AdlRoutine(std::string name, std::vector<AdlStep> steps);

  const std::string& name() const noexcept { return name_; }
  const std::vector<AdlStep>& steps() const noexcept { return steps_; }
  std::size_t size() const noexcept { return steps_.size(); }
  const AdlStep& step(std::size_t index) const { return steps_.at(index); }

  /// Index of the step whose primary tool is `tool`, if any.
  std::optional<std::size_t> index_of_tool(ToolId tool) const noexcept;

  /// StepId of the step following the one using `tool`; kIdleStep when
  /// `tool` is the terminal step or not part of the routine.
  StepId next_after(ToolId tool) const noexcept;

  bool is_terminal(ToolId tool) const noexcept;
  StepId first_step() const noexcept { return steps_.front().step_id(); }
  StepId last_step() const noexcept { return steps_.back().step_id(); }

 private:
  std::string name_;
  std::vector<AdlStep> steps_;
};

/// An ADL together with one or more acceptable routines.
///
/// The paper's prototype learns a single routine per ADL and lists
/// multi-routine support as future work; we carry the general shape so the
/// extension experiment (A5, dressing with two routines) is expressible.
class Adl {
 public:
  Adl(std::string name, std::vector<AdlRoutine> routines);

  const std::string& name() const noexcept { return name_; }
  const std::vector<AdlRoutine>& routines() const noexcept {
    return routines_;
  }
  const AdlRoutine& primary_routine() const noexcept { return routines_[0]; }
  bool multi_routine() const noexcept { return routines_.size() > 1; }

  /// Every tool used by any routine of this ADL, in first-seen order.
  std::vector<ToolId> tools() const;

  /// Whether `tool` is in tools(), without building the list.
  bool uses(ToolId tool) const noexcept;

 private:
  std::string name_;
  std::vector<AdlRoutine> routines_;
};

}  // namespace coreda::adl
