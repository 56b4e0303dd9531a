// Seeded mutation fuzzing of the plan-text parsers (ctest label `fuzz`):
// sim::ScenarioPlan over the committed corpus plans
// (tests/scenarios/*.scenario) and faults::FaultPlan over the saved text of
// FaultPlan::standard_chaos. A fixed seed and a fixed budget of mutated
// inputs per seed text replay the same inputs on every run. Each input
// takes one to three mutations:
//
//   * a byte flip (one bit of one byte);
//   * a deleted line, or a duplicated one;
//   * a number replaced by an edge value: 0, -1, 2^64 - 1, 2^64, 1e308,
//     nan, a 40-digit string, or the smallest normal double (its
//     six-digit form underflows, so a save that rounds cannot parse back).
//
// Every input either throws std::runtime_error or parses into a plan that
// is inside every bound the parser states (ScenarioPlan's kMax* constants,
// its unit intervals and positive durations; FaultPlan's unit-interval
// rates and probabilities, its kMaxDelayUs and ordered epoch windows) and
// whose save -> parse -> save is a fixed point. Plans are
// parsed only, never run. tools/run_asan.sh runs this under ASan+UBSan
// with the rest of the suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/faults.hpp"
#include "sim/scenario_dsl.hpp"
#include "util/rng.hpp"

namespace coreda {
namespace {

constexpr int kMutationsPerSeed = 2000;

const char* const kEdgeValues[] = {
    "0",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "1e308",
    "nan",
    "1234567890123456789012345678901234567890",
    "2.2250738585072014e-308",
};

/// [begin, end) of every maximal run of number characters holding a digit.
std::vector<std::pair<std::size_t, std::size_t>> number_tokens(
    const std::string& text) {
  const auto numeric = [](char c) {
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
  };
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < text.size();) {
    if (!numeric(text[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    bool digit = false;
    while (j < text.size() && numeric(text[j])) {
      digit = digit || (text[j] >= '0' && text[j] <= '9');
      ++j;
    }
    if (digit) out.emplace_back(i, j);
    i = j;
  }
  return out;
}

/// [begin, end) of every line, its newline included.
std::vector<std::pair<std::size_t, std::size_t>> lines_of(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t b = 0; b < text.size();) {
    const std::size_t nl = text.find('\n', b);
    const std::size_t e = nl == std::string::npos ? text.size() : nl + 1;
    out.emplace_back(b, e);
    b = e;
  }
  return out;
}

void mutate_once(std::string& text, util::Rng& rng) {
  switch (rng.pick_index(4)) {
    case 0:
      if (!text.empty()) {
        text[rng.pick_index(text.size())] ^=
            static_cast<char>(1u << rng.pick_index(8));
      }
      return;
    case 1:
    case 2: {
      const auto lines = lines_of(text);
      if (lines.empty()) return;
      const auto [b, e] = lines[rng.pick_index(lines.size())];
      if (rng.pick_index(2) == 0) {
        text.erase(b, e - b);
      } else {
        text.insert(b, text.substr(b, e - b));
      }
      return;
    }
    default: {
      const auto tokens = number_tokens(text);
      if (tokens.empty()) return;
      const auto [b, e] = tokens[rng.pick_index(tokens.size())];
      text.replace(b, e - b,
                   kEdgeValues[rng.pick_index(std::size(kEdgeValues))]);
      return;
    }
  }
}

std::string mutated(const std::string& seed, util::Rng& rng) {
  std::string text = seed;
  const std::size_t n = 1 + rng.pick_index(3);
  for (std::size_t i = 0; i < n; ++i) mutate_once(text, rng);
  return text;
}

void expect_in_bounds(const sim::ScenarioPlan& p) {
  using Plan = sim::ScenarioPlan;
  EXPECT_GE(p.users, 1u);
  EXPECT_LE(p.users, Plan::kMaxUsers);
  EXPECT_GE(p.rounds, 1u);
  EXPECT_LE(p.rounds, Plan::kMaxRounds);
  EXPECT_LE(p.active, Plan::kMaxUsers);
  for (const double d : {p.severity, p.severity_drift, p.compliance_decay}) {
    EXPECT_TRUE(d >= 0.0 && d <= 1.0) << d;
  }
  EXPECT_TRUE(p.arrivals == "all" || p.arrivals == "roundrobin");
  EXPECT_TRUE(p.max_minutes > 0.0 && p.max_minutes <= Plan::kMaxMinutes)
      << p.max_minutes;
  bool any_segment = false;
  for (const sim::ScenarioPart& part : p.parts) {
    if (part.is_interrupt()) {
      EXPECT_TRUE(part.pause_s > 0.0 && part.pause_s <= Plan::kMaxPauseSeconds)
          << part.pause_s;
      continue;
    }
    any_segment = true;
    EXPECT_LE(part.steps, Plan::kMaxSteps);
    EXPECT_LE(part.freeze, Plan::kMaxForcedDecisions);
    EXPECT_LE(part.wrong_tool, Plan::kMaxForcedDecisions);
  }
  EXPECT_TRUE(any_segment);
}

void expect_in_bounds(const faults::FaultPlan& p) {
  for (const auto& [name, site] : p.sites) {
    for (const double d : {site.rate, site.burst.p_enter, site.burst.p_exit,
                           site.burst.loss_in_good, site.burst.loss_in_bad}) {
      EXPECT_TRUE(d >= 0.0 && d <= 1.0) << name << ": " << d;
    }
    EXPECT_LE(site.delay_us, faults::FaultPlan::kMaxDelayUs) << name;
    EXPECT_LE(site.epoch_begin, site.epoch_end) << name;
  }
}

template <typename Plan>
std::string saved(const Plan& plan) {
  std::ostringstream out;
  plan.save(out);
  return out.str();
}

/// Parses every mutated input, counting the ones that parse in `parsed`.
template <typename Plan>
void fuzz(const std::string& seed, util::Rng& rng, int& parsed) {
  for (int i = 0; i < kMutationsPerSeed; ++i) {
    const std::string input = mutated(seed, rng);
    Plan plan;
    try {
      std::istringstream in(input);
      plan = Plan::parse(in);
    } catch (const std::runtime_error&) {
      continue;
    }
    ++parsed;
    SCOPED_TRACE(testing::Message() << "input:\n" << input);
    expect_in_bounds(plan);
    const std::string first = saved(plan);
    std::istringstream in(first);
    Plan back;
    ASSERT_NO_THROW(back = Plan::parse(in)) << first;
    EXPECT_EQ(saved(back), first);
    if (testing::Test::HasFailure()) return;
  }
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(PlanTextFuzz, ScenarioCorpusMutationsThrowOrStayInBounds) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(COREDA_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scenario") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  util::Rng rng(20261019);
  int parsed = 0;
  for (const auto& file : files) {
    SCOPED_TRACE(file.filename().string());
    fuzz<sim::ScenarioPlan>(read_file(file), rng, parsed);
    if (HasFailure()) return;
  }
  // Both outcomes are reached: the mutations are neither all fatal nor
  // all harmless.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutationsPerSeed * static_cast<int>(files.size()));
}

TEST(PlanTextFuzz, StandardChaosMutationsThrowOrStayInBounds) {
  util::Rng rng(20261020);
  int parsed = 0;
  fuzz<faults::FaultPlan>(saved(faults::FaultPlan::standard_chaos(1, 6)), rng,
                          parsed);
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutationsPerSeed);
}

}  // namespace
}  // namespace coreda
