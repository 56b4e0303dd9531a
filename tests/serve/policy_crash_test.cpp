// Crash injection for the PolicyStore append path. A stage or a flush
// appends one segment record whose magic is written last, so the window
// that matters is between the completed record body and the magic
// publish. The segment
// store's pre_publish_site() hook throws right there, simulating a crash
// with a fully written but unpublished record in the mapping:
//
//   * the committed record is untouched — a reader (warm restart) still
//     loads the previous version;
//   * the entry stays dirty, so the next flush retries and publishes
//     cleanly once the "crash" stops;
//   * garbage past the valid prefix from a dead writer is never read, and
//     the next append overwrites it;
//   * the destructor's best-effort flush survives a throwing hook.

#include "serve/policy_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "adl/library.hpp"

namespace coreda::serve {
namespace {

namespace T = adl::tools;
namespace fs = std::filesystem;

struct PolicyCrashFixture : ::testing::Test {
  adl::AdlLibrary library;

  planning::RoutineLearner trained(std::uint64_t seed = 5) {
    planning::RoutineLearner learner(library.tea_making(), util::Rng(seed));
    const std::vector<adl::StepId> steps{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
    for (int i = 0; i < 80; ++i) learner.train_episode(steps);
    return learner;
  }

  std::string fresh_dir(const char* name) {
    const std::string dir = ::testing::TempDir() + "/coreda_crash_" + name;
    fs::remove_all(dir);
    return dir;
  }

  static SegmentStoreParams on_disk(const std::string& dir) {
    SegmentStoreParams params;
    params.dir = dir;
    return params;
  }

  /// The version a restarting reader recovers for user 0 of `dir`.
  std::optional<std::uint64_t> committed_version(
      const planning::RoutineLearner& donor, const std::string& dir) {
    PolicyStore reader(donor, on_disk(dir));
    return reader.restore(reader.add_user());
  }
};

TEST_F(PolicyCrashFixture, CrashBeforePublishKeepsCommittedSnapshotReadable) {
  planning::RoutineLearner donor = trained();
  const std::string dir = fresh_dir("window");
  PolicyStore store(donor, on_disk(dir));
  const UserId u = store.add_user();

  store.stage(u, donor.q());  // clean flush: version 2 committed
  ASSERT_EQ(committed_version(donor, dir), std::optional<std::uint64_t>{2});

  // Arm the crash: the next flush dies after the record body is fully
  // written, before its magic publishes it.
  store.segments()->pre_publish_site().set_hook([](const std::string&) {
    throw std::runtime_error("injected crash before publish");
  });
  EXPECT_THROW(store.stage(u, donor.q()), std::runtime_error);
  EXPECT_EQ(store.version(u), 3u);  // the in-memory entry did advance
  EXPECT_EQ(store.segments()->latest_version(u),
            std::optional<std::uint64_t>{2});

  // A reader restarting against the same directory sees version 2 — never
  // the unpublished record.
  EXPECT_EQ(committed_version(donor, dir), std::optional<std::uint64_t>{2});

  // Crash over: the entry is still dirty, so an explicit flush retries and
  // publishes version 3 over the crash debris.
  store.segments()->pre_publish_site().set_hook(nullptr);
  store.flush(u);
  EXPECT_EQ(committed_version(donor, dir), std::optional<std::uint64_t>{3});
  EXPECT_EQ(store.segments()->appends(), 2u);  // the crash published none
  EXPECT_EQ(SegmentStore::inspect(dir).corrupt_records, 0u);
}

TEST_F(PolicyCrashFixture, GarbagePastTheTailIsNeverReadAndGetsReplaced) {
  planning::RoutineLearner donor = trained();
  const std::string dir = fresh_dir("debris");
  std::uint64_t tail = 0;
  {
    PolicyStore store(donor, on_disk(dir));
    store.stage(store.add_user(), donor.q());  // version 2
    tail = 40 + store.segments()->appended_bytes();
  }
  // A later writer died mid-append: garbage right after the committed
  // record, with no magic that could make it look published.
  {
    std::fstream f(dir + "/seg-w0-000000.seg",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(tail));
    f << "half a record, then the power went";
  }
  EXPECT_EQ(SegmentStore::inspect(dir).corrupt_records, 1u);

  // restore() reads only the valid prefix — the debris is invisible...
  PolicyStore store(donor, on_disk(dir));
  const UserId u = store.add_user();
  EXPECT_EQ(store.restore(u), std::optional<std::uint64_t>{2});

  // ...and the next flush appends over it.
  store.stage(u, donor.q());
  EXPECT_EQ(committed_version(donor, dir), std::optional<std::uint64_t>{3});
  EXPECT_EQ(SegmentStore::inspect(dir).corrupt_records, 0u);
}

TEST_F(PolicyCrashFixture, DestructorFlushSwallowsInjectedCrash) {
  planning::RoutineLearner donor = trained();
  const std::string dir = fresh_dir("dtor");
  {
    PolicyStore store(donor, on_disk(dir));
    const UserId u = store.add_user();
    store.segments()->pre_publish_site().set_hook([](const std::string&) {
      throw std::runtime_error("injected crash in every append");
    });
    // The crashed append keeps the entry dirty until destruction.
    EXPECT_THROW(store.stage(u, donor.q()), std::runtime_error);
  }  // ~PolicyStore retries, crashes again and must swallow the failure

  // Nothing was published: a restart finds no record for the user.
  EXPECT_EQ(committed_version(donor, dir), std::nullopt);
  EXPECT_EQ(SegmentStore::inspect(dir).records, 0u);
}

}  // namespace
}  // namespace coreda::serve
