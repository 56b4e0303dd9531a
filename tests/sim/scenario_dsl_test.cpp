// Parser tests for the scenario DSL.
//
// Diagnostics are goldened: every malformed-plan case below renders
// "input -> thrown message" into one text blob compared byte-for-byte
// against tests/sim/data/scenario_diagnostics.golden. Regenerate with
// COREDA_UPDATE_GOLDEN=1 (the test then rewrites the file and fails once,
// so a stale golden can never silently pass).
//
// The valid side is covered by a seeded parse→print→parse property test
// over randomized plans (the policy_fuzz_test idiom): canonical save()
// output must parse back to an identical plan, including doubles that
// have no short decimal form.
#include "sim/scenario_dsl.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace coreda::sim {
namespace {

std::string diagnostic_of(const std::string& plan_text) {
  std::istringstream in(plan_text);
  try {
    (void)ScenarioPlan::parse(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "<no throw>";
}

struct MalformedCase {
  const char* name;
  const char* text;
};

// One entry per parse_fail site in scenario_dsl.cpp (plus the shared
// number diagnostics, which gain a column here that FaultPlan's do not
// have).
const MalformedCase kMalformed[] = {
    {"unterminated-section", "seed = 1\n[segment Tea-making\n"},
    {"empty-segment-name", "[segment  ]\n"},
    {"unknown-section", "[chapter One]\n"},
    {"missing-equals", "seed = 1\nusers 4\n"},
    {"unknown-top-level-key", "speed = 3\n"},
    {"unknown-interrupt-key", "[interrupt]\nsteps = 2\n"},
    {"unknown-segment-key", "[segment Tea-making]\npause_s = 9\n"},
    {"not-a-number", "severity = warm\n"},
    {"number-trailing-junk", "max_minutes = 12q\n"},
    {"not-an-integer", "users = many\n"},
    {"integer-trailing-junk", "rounds = 3z\n"},
    {"number-out-of-range", "severity = 1e999\n"},
    {"users-zero", "users = 0\n"},
    {"rounds-zero", "rounds = 0\n"},
    {"severity-out-of-unit", "severity = 1.5\n"},
    {"severity-drift-out-of-unit", "severity_drift = -0.1\n"},
    {"compliance-decay-out-of-unit", "compliance_decay = 2\n"},
    {"bad-arrivals-mode", "arrivals = poisson\n"},
    {"max-minutes-nonpositive", "max_minutes = 0\n"},
    {"bad-bool", "[segment Tea-making]\nresume = yes\n"},
    {"resume-without-earlier-segment",
     "[segment Tea-making]\nresume = true\n"},
    {"interrupt-without-pause", "[segment Tea-making]\n\n[interrupt]\n"},
    {"no-segments", "seed = 1\n\n[interrupt]\npause_s = 10\n"},
    {"indented-error-keeps-raw-column", "    severity = hot\n"},
    // Counts take no sign (stoull would read -1 as 2^64 - 1), numbers
    // must be finite, and pauses, deadlines and forced decisions are
    // bounded (ScenarioPlan's kMax* constants).
    {"users-negative", "users = -1\n"},
    {"seed-plus-sign", "seed = +5\n"},
    {"wrong-tool-negative", "[segment Tea-making]\nwrong_tool = -1\n"},
    {"severity-nan", "severity = nan\n"},
    {"max-minutes-inf", "max_minutes = inf\n"},
    {"max-minutes-above-a-day", "max_minutes = 1440.5\n"},
    {"pause-above-a-day",
     "[segment Tea-making]\n\n[interrupt]\npause_s = 1e300\n"},
    {"pause-nan", "[segment Tea-making]\n\n[interrupt]\npause_s = nan\n"},
    {"freeze-above-bound", "[segment Tea-making]\nfreeze = 101\n"},
    {"wrong-tool-above-bound",
     "[segment Tea-making]\nwrong_tool = 18446744073709551615\n"},
    // Users, rounds, active and steps are bounded too: a run would add
    // users to its store one by one, and a resumed segment's step target
    // would wrap.
    {"users-above-bound", "users = 18446744073709551615\n"},
    {"users-past-user-id", "users = 4294967296\n"},
    {"rounds-above-bound", "rounds = 1001\n"},
    {"active-above-bound", "arrivals = roundrobin\nactive = 10001\n"},
    {"steps-above-bound",
     "[segment Tea-making]\nsteps = 2\n[segment Tea-making]\nresume = "
     "true\nsteps = 18446744073709551615\n"},
};

std::string render_diagnostics() {
  std::ostringstream out;
  out << "# scenario DSL diagnostics golden — every malformed-plan case and\n"
      << "# the exact message (with line/column) the parser throws for it.\n";
  for (const MalformedCase& c : kMalformed) {
    out << "\n=== " << c.name << "\n" << c.text << "--- diagnostic\n"
        << diagnostic_of(c.text) << "\n";
  }
  return out.str();
}

TEST(ScenarioDslGolden, EveryMalformedPlanDiagnosticMatchesGolden) {
  const std::string golden_path =
      std::string(COREDA_SIM_DATA_DIR) + "/scenario_diagnostics.golden";
  const std::string actual = render_diagnostics();
  if (std::getenv("COREDA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << actual;
    FAIL() << "golden rewritten (" << golden_path
           << "); rerun without COREDA_UPDATE_GOLDEN";
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden: " << golden_path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str());
}

TEST(ScenarioDslGolden, EveryMalformedCaseActuallyThrows) {
  for (const MalformedCase& c : kMalformed) {
    EXPECT_NE(diagnostic_of(c.text), "<no throw>") << c.name;
  }
}

// ---------------------------------------------------------------------------
// Round-trip property test.

ScenarioPlan random_plan(util::Rng& rng) {
  static const char* kAdls[] = {"Tea-making", "Tooth-brushing",
                                "Hand-washing", "Dressing"};
  ScenarioPlan plan;
  plan.seed = rng();
  plan.users = 1 + rng.pick_index(20);
  plan.rounds = 1 + rng.pick_index(5);
  plan.severity = rng.uniform();
  plan.severity_drift = rng.bernoulli(0.5) ? rng.uniform() : 0.0;
  plan.compliance_decay = rng.bernoulli(0.5) ? rng.uniform() : 0.0;
  plan.arrivals = rng.bernoulli(0.5) ? "all" : "roundrobin";
  plan.active = rng.bernoulli(0.5) ? rng.pick_index(8) : 0;
  plan.hint = rng.bernoulli(0.3) ? kAdls[rng.pick_index(4)] : "";
  plan.max_minutes = 1.0 + rng.uniform() * 120.0;
  const std::size_t n_parts = 1 + rng.pick_index(6);
  for (std::size_t i = 0; i < n_parts; ++i) {
    ScenarioPart part;
    if (i > 0 && rng.bernoulli(0.25)) {
      part.pause_s = 0.001 + rng.uniform() * 300.0;
    } else {
      part.adl = kAdls[rng.pick_index(4)];
      part.steps = rng.bernoulli(0.5) ? rng.pick_index(7) : 0;
      part.freeze = rng.bernoulli(0.3) ? 1 + rng.pick_index(2) : 0;
      part.wrong_tool = rng.bernoulli(0.3) ? 1 + rng.pick_index(2) : 0;
      if (rng.bernoulli(0.4)) {
        for (const ScenarioPart& earlier : plan.parts) {
          if (earlier.adl == part.adl) {
            part.resume = true;
            break;
          }
        }
      }
    }
    plan.parts.push_back(std::move(part));
  }
  // Guarantee at least one segment (an all-interrupt draw is invalid).
  bool any_segment = false;
  for (const ScenarioPart& part : plan.parts) {
    if (!part.is_interrupt()) any_segment = true;
  }
  if (!any_segment) {
    plan.parts.front() = ScenarioPart{};
    plan.parts.front().adl = kAdls[0];
  }
  return plan;
}

TEST(ScenarioDslRoundTrip, ParsePrintParseIsIdentityOverRandomPlans) {
  util::Rng rng(20260809);
  for (int i = 0; i < 200; ++i) {
    const ScenarioPlan plan = random_plan(rng);
    std::stringstream text;
    plan.save(text);
    ScenarioPlan back;
    ASSERT_NO_THROW(back = ScenarioPlan::parse(text)) << text.str();
    EXPECT_EQ(back, plan) << "iteration " << i << "\n" << text.str();
    // save() is canonical: printing the reparsed plan reproduces the text.
    std::ostringstream again;
    back.save(again);
    EXPECT_EQ(again.str(), text.str()) << "iteration " << i;
  }
}

TEST(ScenarioDslRoundTrip, DefaultsSurviveMinimalPlan) {
  std::istringstream in("[segment Tea-making]\n");
  const ScenarioPlan plan = ScenarioPlan::parse(in);
  EXPECT_EQ(plan.seed, 1u);
  EXPECT_EQ(plan.users, 1u);
  EXPECT_EQ(plan.rounds, 1u);
  EXPECT_EQ(plan.arrivals, "all");
  ASSERT_EQ(plan.parts.size(), 1u);
  EXPECT_EQ(plan.parts[0].adl, "Tea-making");
  EXPECT_EQ(plan.parts[0].steps, 0u);
  EXPECT_FALSE(plan.parts[0].resume);
}

TEST(ScenarioDslRoundTrip, BoundsAreInclusive) {
  std::istringstream in(
      "users = 10000\n"
      "rounds = 1000\n"
      "arrivals = roundrobin\n"
      "active = 10000\n"
      "max_minutes = 1440\n"
      "[segment Tea-making]\n"
      "steps = 100\n"
      "freeze = 100\n"
      "wrong_tool = 100\n"
      "[interrupt]\n"
      "pause_s = 86400\n");
  const ScenarioPlan plan = ScenarioPlan::parse(in);
  EXPECT_EQ(plan.users, ScenarioPlan::kMaxUsers);
  EXPECT_EQ(plan.rounds, ScenarioPlan::kMaxRounds);
  EXPECT_EQ(plan.active, ScenarioPlan::kMaxUsers);
  EXPECT_EQ(plan.max_minutes, ScenarioPlan::kMaxMinutes);
  ASSERT_EQ(plan.parts.size(), 2u);
  EXPECT_EQ(plan.parts[0].steps, ScenarioPlan::kMaxSteps);
  EXPECT_EQ(plan.parts[0].freeze, ScenarioPlan::kMaxForcedDecisions);
  EXPECT_EQ(plan.parts[0].wrong_tool, ScenarioPlan::kMaxForcedDecisions);
  EXPECT_EQ(plan.parts[1].pause_s, ScenarioPlan::kMaxPauseSeconds);
}

TEST(ScenarioDslRoundTrip, CommentsAndBlankLinesAreSkipped) {
  std::istringstream in(
      "# header comment\n"
      "seed = 7\n"
      "\n"
      "  [segment Tea-making]\n"
      "  # indented comment\n"
      "  steps = 2\n");
  const ScenarioPlan plan = ScenarioPlan::parse(in);
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.parts.size(), 1u);
  EXPECT_EQ(plan.parts[0].steps, 2u);
}

}  // namespace
}  // namespace coreda::sim
