#include "util/simd.hpp"

#include <cstdlib>

namespace coreda::util {

bool lane_simd_allowed() noexcept {
  const char* env = std::getenv("COREDA_LANE_SIMD");
  return env == nullptr || env[0] != '0' || env[1] != '\0';
}

}  // namespace coreda::util
