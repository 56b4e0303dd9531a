// Bit-exactness of the lane kernels against straight-line scalar models.
//
// On AVX2 hardware the dispatched kernels run the vector path, so these
// tests are the cross-path proof that SIMD == scalar to the bit (the ±0 and
// no-FMA hazards the kernels were written around). On non-AVX2 hardware (or
// under COREDA_LANE_SIMD=0) they degenerate to scalar self-consistency —
// still useful as a semantics pin. Comparisons are on bit patterns, never
// operator==, so a sign-flipped zero cannot hide.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "rl/lane_kernels.hpp"
#include "util/rng.hpp"

namespace coreda::rl {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i]), bits(want[i]))
        << what << " diverges at [" << i << "]: got " << got[i] << " want "
        << want[i];
  }
}

/// Random row mixing magnitudes, exact ties, and both zero signs.
std::vector<double> random_row(util::Rng& rng, std::size_t n) {
  std::vector<double> row(n);
  for (double& v : row) {
    const double r = rng.uniform();
    if (r < 0.1) {
      v = 0.0;
    } else if (r < 0.2) {
      v = -0.0;
    } else if (r < 0.3) {
      v = row[0];  // manufacture exact ties
    } else {
      v = (rng.uniform() - 0.5) * 2000.0;
    }
  }
  return row;
}

TEST(LaneKernels, RowMaxMatchesMaxElementBitwise) {
  util::Rng rng(2024);
  for (std::size_t n = 1; n <= 12; ++n) {
    for (int rep = 0; rep < 200; ++rep) {
      const std::vector<double> row = random_row(rng, n);
      const double want = *std::max_element(row.begin(), row.end());
      const double got = kern::row_max(row.data(), n);
      EXPECT_EQ(bits(got), bits(want)) << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(LaneKernels, RowMaxZeroSignTies) {
  // The AVX2 reduction may surface the wrong zero from a {+0.0, -0.0} tie;
  // the kernel must re-derive the first-max scan's answer.
  const std::vector<std::vector<double>> rows = {
      {-0.0, 0.0, -1.0, -2.0}, {0.0, -0.0, -0.0, 0.0},
      {-1.0, -0.0, 0.0, -0.0, -5.0}, {-0.0, -0.0, -0.0, -0.0},
      {0.0, 0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0}};
  for (const auto& row : rows) {
    const double want = *std::max_element(row.begin(), row.end());
    EXPECT_EQ(bits(kern::row_max(row.data(), row.size())), bits(want));
  }
}

TEST(LaneKernels, RowStatsGivenMaxMatchesScalar) {
  // The tie mask compares exactly (±0.0 tie) and the tolerance count uses
  // >=, on rows of ties, both zero signs and near-ties inside 1e-12.
  util::Rng rng(7);
  for (std::size_t n = 1; n <= 12; ++n) {
    for (int rep = 0; rep < 200; ++rep) {
      std::vector<double> row = random_row(rng, n);
      if (rng.bernoulli(0.3)) row[rng.pick_index(n)] = 1000.0;
      if (rng.bernoulli(0.3)) row[rng.pick_index(n)] = 1000.0 - 5e-13;
      const double max = *std::max_element(row.begin(), row.end());
      std::uint64_t mask = 0;
      std::uint32_t near = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (row[i] == max) mask |= std::uint64_t{1} << i;
        if (row[i] >= max - 1e-12) ++near;
      }
      const kern::RowStats st =
          kern::row_stats_given_max(row.data(), max, 1e-12, n);
      EXPECT_EQ(bits(st.max), bits(max));
      EXPECT_EQ(st.tie_mask, mask) << "n=" << n << " rep=" << rep;
      EXPECT_EQ(st.near_count, near) << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(LaneKernels, CfUpdateMatchesScalarBitwise) {
  util::Rng rng(11);
  for (std::size_t n = 1; n <= 12; ++n) {
    for (int rep = 0; rep < 200; ++rep) {
      const std::vector<double> start = random_row(rng, n);
      std::vector<double> rewards = random_row(rng, n);
      const double bootstrap = (rng.uniform() - 0.5) * 1800.0;
      const double alpha = 0.1;
      const std::size_t taken = rng.pick_index(n);

      std::vector<double> want = start;
      for (std::size_t a = 0; a < n; ++a) {
        if (a == taken) continue;
        const double target = rewards[a] + bootstrap;
        const double delta = target - want[a];
        want[a] += alpha * delta;
      }

      std::vector<double> got = start;
      kern::cf_update(got.data(), rewards.data(), bootstrap, alpha, taken, n);
      expect_same_bits(got, want, "cf_update");
    }
  }
}

TEST(LaneKernels, CfUpdateTerminalPreservesNegativeZeroRewards) {
  util::Rng rng(13);
  for (std::size_t n = 1; n <= 12; ++n) {
    for (int rep = 0; rep < 200; ++rep) {
      const std::vector<double> start = random_row(rng, n);
      std::vector<double> rewards = random_row(rng, n);
      if (n > 1) rewards[rng.pick_index(n)] = -0.0;
      const double alpha = 0.1;
      const std::size_t taken = rng.pick_index(n);

      std::vector<double> want = start;
      for (std::size_t a = 0; a < n; ++a) {
        if (a == taken) continue;
        const double delta = rewards[a] - want[a];
        want[a] += alpha * delta;
      }

      std::vector<double> got = start;
      kern::cf_update_terminal(got.data(), rewards.data(), alpha, taken, n);
      expect_same_bits(got, want, "cf_update_terminal");
    }
  }
}

TEST(LaneKernels, CfUpdateLeavesTakenCellUntouchedBitwise) {
  // row[taken] must come through with its exact bits — including -0.0,
  // which an add-zero-delta implementation would flip to +0.0.
  for (std::size_t taken = 0; taken < 8; ++taken) {
    std::vector<double> row(8, 1.0);
    row[taken] = -0.0;
    std::vector<double> rewards(8, 5.0);
    kern::cf_update(row.data(), rewards.data(), 2.0, 0.1, taken, 8);
    EXPECT_EQ(bits(row[taken]), bits(-0.0)) << "taken=" << taken;
    std::vector<double> row2(8, 1.0);
    row2[taken] = -0.0;
    kern::cf_update_terminal(row2.data(), rewards.data(), 0.1, taken, 8);
    EXPECT_EQ(bits(row2[taken]), bits(-0.0)) << "taken=" << taken;
  }
}

TEST(LaneKernels, SimdFlagIsStable) {
  const bool first = kern::simd_enabled();
  EXPECT_EQ(kern::simd_enabled(), first);  // decided once per process
}

}  // namespace
}  // namespace coreda::rl
