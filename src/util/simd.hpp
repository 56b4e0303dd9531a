#pragma once

namespace coreda::util {

/// Whether explicit SIMD kernels may run: false when the environment
/// variable COREDA_LANE_SIMD is "0". Each kernel family pairs this with
/// its own CPU probe (rl's lane kernels need AVX2, the sensors' idle lanes
/// AVX-512F/DQ) and caches the result once per process; the override lets
/// the equivalence tests run the scalar paths on SIMD hardware.
bool lane_simd_allowed() noexcept;

}  // namespace coreda::util
