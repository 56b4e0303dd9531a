#include "sensors/world.hpp"

#include <algorithm>

namespace coreda::sensors {

void ManipulationWorld::provision(std::size_t tool_capacity) {
  if (history_.size() < tool_capacity) history_.resize(tool_capacity);
  for (std::vector<Episode>& episodes : history_) {
    if (episodes.capacity() < kEpisodeReserve) {
      episodes.reserve(kEpisodeReserve);
    }
  }
}

void ManipulationWorld::begin(adl::ToolId tool, sim::TimePoint start,
                              sim::Duration duration, sim::Duration ramp) {
  if (tool >= history_.size()) history_.resize(tool + 1);
  std::vector<Episode>& episodes = history_[tool];
  // Pruning against kHistoryRetention keeps at most a handful of episodes
  // per tool live; pre-size once so steady-state begin() never reallocates.
  if (episodes.capacity() < kEpisodeReserve) episodes.reserve(kEpisodeReserve);
  if (!episodes.empty()) {
    // A new manipulation supersedes whatever was in progress: the previous
    // episode stops being the answer from `start` onward, but stays on
    // record for retroactive queries about earlier instants.
    Episode& last = episodes.back();
    if (last.end > start) last.end = start;
  }
  // Retroactive queries only reach back kHistoryRetention; forget older
  // episodes so long sessions stay bounded.
  const sim::TimePoint horizon = start - kHistoryRetention;
  std::erase_if(episodes,
                [horizon](const Episode& ep) { return ep.end < horizon; });
  episodes.push_back(
      Episode{start, start + duration, UsageEnvelope(duration, ramp)});
}

void ManipulationWorld::end(adl::ToolId tool, sim::TimePoint now) {
  if (tool >= history_.size() || history_[tool].empty()) return;
  Episode& last = history_[tool].back();
  if (last.end > now) last.end = now;
}

double ManipulationWorld::episode_activation(const Episode& ep,
                                             sim::TimePoint at) {
  if (at < ep.start || at > ep.end) return 0.0;
  return ep.envelope.activation(at - ep.start);
}

double ManipulationWorld::activation(adl::ToolId tool,
                                     sim::TimePoint at) const {
  const std::vector<Episode>* episodes = find(tool);
  if (episodes == nullptr) return 0.0;
  // Newest-first: at an instant shared by a superseded episode's clipped
  // end and its successor's start, the successor is what a live reader saw.
  for (auto ep = episodes->rbegin(); ep != episodes->rend(); ++ep) {
    if (at >= ep->start) return episode_activation(*ep, at);
  }
  return 0.0;
}

void ManipulationWorld::activation_block(adl::ToolId tool,
                                         sim::TimePoint first,
                                         sim::Duration step,
                                         std::size_t count,
                                         double* out) const {
  const std::vector<Episode>* episodes = find(tool);
  if (episodes == nullptr || episodes->empty()) {
    std::fill(out, out + count, 0.0);
    return;
  }
  sim::TimePoint at = first;
  for (std::size_t i = 0; i < count; ++i, at = at + step) {
    double value = 0.0;
    for (auto ep = episodes->rbegin(); ep != episodes->rend(); ++ep) {
      if (at >= ep->start) {
        value = episode_activation(*ep, at);
        break;
      }
    }
    out[i] = value;
  }
}

bool ManipulationWorld::in_use(adl::ToolId tool, sim::TimePoint at) const {
  const std::vector<Episode>* episodes = find(tool);
  if (episodes == nullptr) return false;
  for (auto ep = episodes->rbegin(); ep != episodes->rend(); ++ep) {
    if (at >= ep->start) return at <= ep->end;
  }
  return false;
}

bool ManipulationWorld::idle_over(adl::ToolId tool, sim::TimePoint first,
                                  sim::TimePoint last) const noexcept {
  const std::vector<Episode>* episodes = find(tool);
  if (episodes == nullptr) return true;
  return std::none_of(episodes->begin(), episodes->end(),
                      [&](const Episode& ep) {
                        return ep.start <= last && ep.end >= first;
                      });
}

void ManipulationWorld::garbage_collect(sim::TimePoint now) {
  // Keep the retention window even here so a collect racing a batched
  // firmware wake can't drop episodes the wake still needs to read back.
  const sim::TimePoint horizon = now - kHistoryRetention;
  for (std::vector<Episode>& episodes : history_) {
    std::erase_if(episodes,
                  [horizon](const Episode& ep) { return ep.end < horizon; });
  }
}

void ManipulationWorld::reset() noexcept {
  for (std::vector<Episode>& episodes : history_) episodes.clear();
}

}  // namespace coreda::sensors
