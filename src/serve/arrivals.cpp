#include "serve/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace coreda::serve {

ZipfianArrivals::ZipfianArrivals(std::size_t n, double exponent,
                                 std::uint64_t seed)
    : exponent_(exponent), rng_(seed) {
  exec::TrialRunner runner(0);  // its pool starts only for two+ chunks
  build_cdf(n, runner);
}

ZipfianArrivals::ZipfianArrivals(std::size_t n, double exponent,
                                 std::uint64_t seed, exec::TrialRunner& runner)
    : exponent_(exponent), rng_(seed) {
  build_cdf(n, runner);
}

void ZipfianArrivals::build_cdf(std::size_t n, exec::TrialRunner& runner) {
  if (n == 0) {
    throw std::invalid_argument("ZipfianArrivals: n must be >= 1");
  }
  if (!(exponent_ > 0.0)) {
    throw std::invalid_argument("ZipfianArrivals: exponent must be > 0");
  }
  cdf_.resize(n);
  // One trial per chunk; a one-trial run stays on this thread.
  const auto chunk_terms = [this, n](exec::TrialContext& ctx) -> char {
    const std::size_t end = std::min(n, (ctx.index + 1) * kTermChunk);
    for (std::size_t i = ctx.index * kTermChunk; i < end; ++i) {
      cdf_[i] = 1.0 / std::pow(static_cast<double>(i + 1), exponent_);
    }
    return 0;  // the terms land in cdf_ (disjoint per trial)
  };
  runner.run((n - 1) / kTermChunk + 1, 0, chunk_terms);
  double total = 0.0;
  for (double& c : cdf_) {
    total += c;
    c = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding leaving the tail unreachable
}

std::size_t ZipfianArrivals::next() noexcept {
  const double u = rng_.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace coreda::serve
