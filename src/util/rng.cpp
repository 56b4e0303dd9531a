#include "util/rng.hpp"

#include <cmath>

namespace coreda::util {

Rng::Rng(std::uint64_t seed) noexcept {
  // Successive splitmix64 steps from `seed`.
  for (std::size_t i = 0; i < state_.size(); ++i) {
    state_[i] = mix64(seed + 0x9e3779b97f4a7c15ULL * i);
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::exponential(double mean) noexcept {
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return -mean * std::log(u);
}

std::size_t Rng::pick_index(std::size_t size) noexcept {
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

std::size_t Rng::pick_weighted(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;  // numeric tail: last positive-weight bucket
}

Rng Rng::fork() noexcept { return Rng((*this)()); }

}  // namespace coreda::util
