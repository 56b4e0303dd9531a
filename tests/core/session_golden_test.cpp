// Absolute session outcomes of both deployment kinds, exact-gated: one line
// per session, compared byte-for-byte against data/sessions.golden.
//
//   * single-ADL run_session_inplace sessions on a warm deployment
//     (Tea-making, Tooth-brushing and Hand-washing at severities 0.0-0.6)
//     in five variants: plain, a forced-decision setup, a lossy radio,
//     learn_from_sessions on, and escalate_reprompts off;
//   * whole-home run_session sessions, every ADL at severities 0.0-0.6
//     with and without a schedule hint, plus two wrong hints. These lines
//     carry no step count or observed-steps hash: the golden predates the
//     merged SessionResult, and whole-home results had neither then.
//
// Regenerate with COREDA_UPDATE_GOLDEN=1 (the test rewrites the file and
// fails once, so a stale golden can never silently pass).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/home.hpp"
#include "trace/dataset.hpp"

namespace coreda::core {
namespace {

using Kind = patient::PatientEvent::Kind;

std::uint64_t steps_hash(const std::vector<adl::StepId>& steps) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (adl::StepId s : steps) {
    h ^= s;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string prompts(const SessionResult& r) {
  std::ostringstream os;
  os << r.prompts_total << '/' << r.prompts_idle << '/'
     << r.prompts_wrong_tool << '/' << r.prompts_minimal << '/'
     << r.prompts_specific;
  return os.str();
}

struct Variant {
  const char* name;
  std::function<void(SystemConfig&)> configure;
  std::function<void(patient::PatientActor&)> setup;
};

std::string single_adl_sessions(const adl::AdlLibrary& library) {
  const std::vector<Variant> variants = {
      {"plain", [](SystemConfig&) {}, {}},
      {"forced", [](SystemConfig&) {},
       [](patient::PatientActor& actor) {
         actor.force_next_decision(Kind::kStartedStep);
         actor.force_next_decision(Kind::kWrongTool);
         actor.force_next_decision(Kind::kFroze);
       }},
      {"lossy",
       [](SystemConfig& c) { c.radio.loss_probability = 0.3; }, {}},
      {"learning", [](SystemConfig& c) { c.learn_from_sessions = true; }, {}},
      {"no-escalation",
       [](SystemConfig& c) { c.escalate_reprompts = false; }, {}},
  };
  const adl::Adl* adls[] = {&library.tea_making(), &library.tooth_brushing(),
                            &library.hand_washing()};
  std::ostringstream os;
  std::uint64_t seed = 500;
  for (const Variant& v : variants) {
    for (const adl::Adl* adl : adls) {
      SystemConfig config;
      config.seed = ++seed;
      v.configure(config);
      HomeDeployment system(library, *adl, config);
      trace::DatasetBuilder datasets(
          library, patient::PatientProfile::with_severity("T", 0.0),
          seed + 1000);
      system.pretrain(datasets.clean_training_set(*adl, 120));
      SessionResult r;
      for (double severity : {0.0, 0.2, 0.4, 0.6}) {
        system.run_session_inplace(
            patient::PatientProfile::with_severity("T", severity),
            sim::Duration::minutes(15.0), v.setup, r);
        os << "single " << v.name << ' ' << adl->name() << " sev=" << severity
           << " completed=" << r.completed
           << " elapsed_us=" << r.elapsed.total_micros()
           << " steps=" << r.steps_completed
           << " prompts=" << prompts(r)
           << " praises=" << r.praises << " observed=" << std::hex
           << steps_hash(r.observed_steps) << std::dec << '\n';
      }
    }
  }
  return os.str();
}

std::string whole_home_sessions(const adl::AdlLibrary& library) {
  SystemConfig config;
  config.seed = 77;
  HomeDeployment home(library, config);
  home.pretrain(120, 78);
  std::ostringstream os;
  const auto run = [&](const std::string& adl, double severity,
                       const std::string& hint) {
    const auto r = home.run_session(
        adl, patient::PatientProfile::with_severity("R", severity),
        sim::Duration::minutes(30.0), hint);
    os << "home " << adl << " hint=" << (hint.empty() ? "-" : hint)
       << " sev=" << severity << " completed=" << r.completed
       << " elapsed_us=" << r.elapsed.total_micros()
       << " prompts=" << prompts(r)
       << " praises=" << r.praises << " recognized="
       << (r.recognized_adl.empty() ? "-" : r.recognized_adl)
       << " after=" << r.steps_to_recognition
       << " recoveries=" << r.wrong_tool_recoveries << '\n';
  };
  for (const adl::Adl& adl : library.adls()) {
    for (double severity : {0.0, 0.3, 0.6}) {
      run(adl.name(), severity, "");
      run(adl.name(), severity, adl.name());
    }
  }
  run("Tea-making", 0.3, "Tooth-brushing");
  run("Hand-washing", 0.3, "Dressing");
  return os.str();
}

TEST(SessionGolden, OutcomesMatchGolden) {
  const adl::AdlLibrary library;
  const std::string report =
      single_adl_sessions(library) + whole_home_sessions(library);

  const std::string golden_path =
      std::string(COREDA_CORE_GOLDEN_DIR) + "/sessions.golden";
  if (std::getenv("COREDA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << report;
    FAIL() << "golden rewritten (" << golden_path
           << "); rerun without COREDA_UPDATE_GOLDEN";
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden: " << golden_path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(report, expected.str());
}

}  // namespace
}  // namespace coreda::core
