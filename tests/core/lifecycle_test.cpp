// Regression tests for session lifecycle: a session that hits its deadline
// leaves the patient actor's scheduled callbacks in the queue; destroying
// the actor (next session, or system teardown) must cancel them — this
// once crashed as a use-after-free when many timed-out sessions ran
// back-to-back on one system.

#include <gtest/gtest.h>

#include <memory>

#include "core/home.hpp"
#include "trace/dataset.hpp"

namespace coreda::core {
namespace {

using Kind = patient::PatientEvent::Kind;

struct LifecycleFixture : ::testing::Test {
  adl::AdlLibrary library;
};

TEST_F(LifecycleFixture, ManyTimedOutSessionsBackToBack) {
  HomeDeployment system(library, library.tea_making(), SystemConfig{});
  trace::DatasetBuilder datasets(
      library, patient::PatientProfile::with_severity("T", 0.0), 1);
  system.pretrain(datasets.clean_training_set(library.tea_making(), 60));

  // Non-compliant and slow: most short sessions time out mid-action,
  // leaving the actor's next scheduled event pending at teardown.
  patient::PatientProfile profile =
      patient::PatientProfile::with_severity("T", 1.0);
  profile.comply_minimal = 0.1;
  profile.comply_specific = 0.1;

  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    completed +=
        system.run_session(profile, sim::Duration::minutes(2.0)).completed;
  }
  // The point is surviving 40 teardown/restart cycles; completion under
  // these settings is incidental.
  EXPECT_LE(completed, 40);
}

TEST_F(LifecycleFixture, SystemDestructionWithPendingActorEvents) {
  auto system = std::make_unique<HomeDeployment>(
      library, library.tea_making(), SystemConfig{});
  patient::PatientProfile profile =
      patient::PatientProfile::with_severity("T", 0.0);
  // Time out almost immediately: the actor's first think event is pending.
  system->run_session(profile, sim::Duration::seconds(1.0));
  system.reset();  // must not fire dangling callbacks
}

TEST_F(LifecycleFixture, FrozenTimeoutThenNormalSession) {
  HomeDeployment system(library, library.tea_making(), SystemConfig{});
  trace::DatasetBuilder datasets(
      library, patient::PatientProfile::with_severity("T", 0.0), 2);
  system.pretrain(datasets.clean_training_set(library.tea_making(), 60));

  patient::PatientProfile stubborn =
      patient::PatientProfile::with_severity("T", 0.0);
  stubborn.comply_minimal = 0.0;
  stubborn.comply_specific = 0.0;
  system.run_session(stubborn, sim::Duration::minutes(2.0),
                     [](patient::PatientActor& actor) {
                       actor.force_next_decision(Kind::kFroze);
                     });

  patient::PatientProfile fine =
      patient::PatientProfile::with_severity("T", 0.0);
  fine.comply_minimal = 1.0;
  fine.comply_specific = 1.0;
  const SessionResult result =
      system.run_session(fine, sim::Duration::minutes(15.0));
  EXPECT_TRUE(result.completed);
}

}  // namespace
}  // namespace coreda::core
