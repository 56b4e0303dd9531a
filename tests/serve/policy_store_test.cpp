// PolicyStore robustness: the v2 table record (the bundle entry codec)
// round-trips byte-identically and rejects truncated / bit-flipped /
// wrong-ADL input with the destination untouched; the store's versions are
// monotonic per write-back, disk writes are wear-batched, restarts restore
// from the segment store, and the store directory stays inspectable
// without a learner.

#include "serve/policy_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "adl/library.hpp"
#include "planning/serialize.hpp"

namespace coreda::serve {
namespace {

namespace T = adl::tools;
namespace fs = std::filesystem;

struct PolicyStoreFixture : ::testing::Test {
  adl::AdlLibrary library;

  planning::RoutineLearner trained(std::uint64_t seed = 5) {
    planning::RoutineLearner learner(library.tea_making(), util::Rng(seed));
    const std::vector<adl::StepId> steps{T::kTeaBox, T::kElectricPot,
                                         T::kKettle, T::kTeaCup};
    for (int i = 0; i < 80; ++i) learner.train_episode(steps);
    return learner;
  }

  std::string fresh_dir(const char* name) {
    const std::string dir = ::testing::TempDir() + "/coreda_store_" + name;
    fs::remove_all(dir);
    return dir;
  }

  static PolicyStoreParams on_disk(const std::string& dir,
                                   std::size_t flush_every = 8) {
    PolicyStoreParams params;
    params.flush_every = flush_every;
    params.segments.dir = dir;
    return params;
  }

  std::string v2_bytes(const planning::RoutineLearner& learner,
                       std::uint64_t version = 7) {
    std::ostringstream out(std::ios::binary);
    planning::save_policy_v2(out, learner.state_codec().symbols(),
                             learner.action_codec().tools(), learner.q(),
                             version);
    return out.str();
  }

  /// Decodes `bytes` into `q` under `learner`'s vocabularies.
  static std::uint64_t load_v2(const std::string& bytes,
                               const planning::RoutineLearner& learner,
                               rl::QTable& q) {
    std::istringstream in(bytes, std::ios::binary);
    return planning::load_policy_v2(in, learner.state_codec().symbols(),
                                    learner.action_codec().tools(), q);
  }
};

TEST_F(PolicyStoreFixture, V2RoundTripIsByteIdentical) {
  planning::RoutineLearner source = trained();
  const std::string first = v2_bytes(source, 7);

  planning::RoutineLearner restored(library.tea_making(), util::Rng(99));
  rl::QTable q = restored.q();
  EXPECT_EQ(load_v2(first, restored, q), 7u);
  restored.import_q(q);

  // Byte equality of the re-serialized record implies bit equality of
  // every Q value — stronger than EXPECT_DOUBLE_EQ per cell.
  EXPECT_EQ(v2_bytes(restored, 7), first);
}

TEST_F(PolicyStoreFixture, V2TruncationRejectedEverywhereLearnerUnchanged) {
  planning::RoutineLearner source = trained();
  const std::string bytes = v2_bytes(source);

  // Chop at several depths: inside the magic, the header, the vocab, the Q
  // block, and inside the trailing checksum.
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{20}, std::size_t{60}, bytes.size() / 2,
        bytes.size() - 3}) {
    planning::RoutineLearner victim(library.tea_making(), util::Rng(2));
    rl::QTable q = victim.q();
    EXPECT_THROW(load_v2(bytes.substr(0, keep), victim, q),
                 std::runtime_error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
    EXPECT_DOUBLE_EQ(q.get(1, 1), victim.q().get(1, 1));
  }
}

TEST_F(PolicyStoreFixture, V2BitFlipRejectedByChecksum) {
  planning::RoutineLearner source = trained();
  std::string bytes = v2_bytes(source);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit deep in the Q block

  planning::RoutineLearner victim(library.tea_making(), util::Rng(2));
  rl::QTable q = victim.q();
  EXPECT_THROW(load_v2(bytes, victim, q), std::runtime_error);
  EXPECT_DOUBLE_EQ(q.get(0, 0), victim.q().get(0, 0));
}

TEST_F(PolicyStoreFixture, V2WrongAdlRejected) {
  planning::RoutineLearner source = trained();
  planning::RoutineLearner other(library.tooth_brushing(), util::Rng(9));
  rl::QTable q = other.q();
  EXPECT_THROW(load_v2(v2_bytes(source), other, q), std::runtime_error);
}

TEST_F(PolicyStoreFixture, V2GarbageRejected) {
  planning::RoutineLearner victim(library.tea_making(), util::Rng(2));
  rl::QTable q = victim.q();
  EXPECT_THROW(load_v2("CRDAPOLX plus whatever follows", victim, q),
               std::runtime_error);
}

TEST_F(PolicyStoreFixture, InspectReadsHeaderWithoutLearner) {
  planning::RoutineLearner source = trained();
  const std::string dir = fresh_dir("inspect");
  {
    PolicyStore store(source, on_disk(dir, 1));
    const UserId u = store.add_user("tanaka");
    for (int i = 0; i < 41; ++i) store.stage(u, source.q());  // version 42
  }
  const SegmentStore::Info info = SegmentStore::inspect(dir);
  EXPECT_TRUE(info.meta_ok);
  EXPECT_EQ(info.max_version, 42u);
  EXPECT_EQ(info.users, 1u);
  EXPECT_EQ(info.num_states, source.q().num_states());
  EXPECT_EQ(info.num_actions, source.q().num_actions());
  EXPECT_EQ(info.num_steps, source.state_codec().symbols().size());
  EXPECT_EQ(info.num_tools, source.action_codec().tools().size());
}

TEST_F(PolicyStoreFixture, InspectFlagsBadChecksumWithoutThrowing) {
  planning::RoutineLearner source = trained();
  const std::string dir = fresh_dir("inspect_bad");
  {
    PolicyStore store(source, on_disk(dir, 1));
    store.stage(store.add_user("tanaka"), source.q());
  }
  {
    // Flip a byte deep in the only record's Q block (the record starts
    // right after the 40-byte segment header).
    std::fstream f(dir + "/seg-w0-000000.seg",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40 + 100);
    f.put('\x7f');
  }
  SegmentStore::Info info;
  ASSERT_NO_THROW(info = SegmentStore::inspect(dir));
  EXPECT_TRUE(info.meta_ok);
  EXPECT_EQ(info.records, 0u);
  EXPECT_EQ(info.corrupt_records, 1u);
}

TEST_F(PolicyStoreFixture, StoreVersionsAreMonotonicPerWriteBack) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);  // memory-only
  const UserId u = store.add_user("tanaka");
  EXPECT_EQ(store.version(u), 1u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::uint64_t before = store.version(u);
    store.stage(u, donor.q());
    EXPECT_EQ(store.version(u), before + 1);
  }
  EXPECT_EQ(store.version(u), 11u);
  EXPECT_EQ(store.staged_writes(), 10u);
  EXPECT_EQ(store.disk_writes(), 0u);  // memory-only: no wear at all
  EXPECT_EQ(store.segments(), nullptr);
}

TEST_F(PolicyStoreFixture, WearBatchingWritesEveryNthStage) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor, on_disk(fresh_dir("wear"), 4));
  const UserId u = store.add_user("tanaka");

  for (int i = 0; i < 10; ++i) store.stage(u, donor.q());
  // Stages 4 and 8 hit the batch boundary; 10 staged writes cost 2 disk
  // writes — the EEPROM-style wear reduction.
  EXPECT_EQ(store.staged_writes(), 10u);
  EXPECT_EQ(store.disk_writes(), 2u);
  EXPECT_EQ(store.segments()->appends(), 2u);
  EXPECT_EQ(store.segments()->latest_version(u),
            std::optional<std::uint64_t>{9});

  store.flush_all();  // the 2 unflushed stages go out now
  EXPECT_EQ(store.disk_writes(), 3u);
  store.flush_all();  // nothing dirty: no extra wear
  EXPECT_EQ(store.disk_writes(), 3u);
  EXPECT_EQ(store.segments()->latest_version(u),
            std::optional<std::uint64_t>{11});
}

TEST_F(PolicyStoreFixture, AtomicWritePublishesNoTempFiles) {
  planning::RoutineLearner donor = trained();
  const std::string dir = fresh_dir("atomic");
  PolicyStore store(donor, on_disk(dir, 1));  // every stage persists
  const UserId u = store.add_user("tanaka");
  store.stage(u, donor.q());

  // store.meta publishes by tmp+rename; records publish in place by
  // writing their magic last — nothing else is ever left behind.
  std::size_t segments = 0;
  for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
    const std::string name = de.path().filename().string();
    EXPECT_NE(de.path().extension(), ".tmp") << name;
    if (de.path().extension() == ".seg") ++segments;
  }
  EXPECT_EQ(segments, 1u);
  EXPECT_TRUE(fs::exists(dir + "/store.meta"));

  const SegmentStore::Info info = SegmentStore::inspect(dir);
  EXPECT_EQ(info.corrupt_records, 0u);
  EXPECT_EQ(info.records, 1u);
  EXPECT_EQ(info.max_version, 2u);  // initial 1 + one stage
}

TEST_F(PolicyStoreFixture, RestoreResumesVersionAndValuesAfterRestart) {
  planning::RoutineLearner donor = trained();
  const std::string dir = fresh_dir("restart");
  {
    // flush_every=100 forces the dtor flush to do the persisting.
    PolicyStore store(donor, on_disk(dir, 100));
    const UserId u = store.add_user("tanaka");
    for (int i = 0; i < 5; ++i) store.stage(u, donor.q());
    EXPECT_EQ(store.version(u), 6u);
    EXPECT_EQ(store.disk_writes(), 0u);
  }  // ~PolicyStore flushes

  planning::RoutineLearner blank(library.tea_making(), util::Rng(1));
  PolicyStore store(blank, on_disk(dir));  // warm restart, untrained ref
  const UserId u = store.add_user("tanaka");
  const auto version = store.restore(u);
  ASSERT_TRUE(version.has_value());
  EXPECT_EQ(*version, 6u);
  EXPECT_EQ(store.version(u), 6u);
  for (rl::StateId s = 0; s < donor.q().num_states(); ++s) {
    for (rl::ActionId a = 0; a < donor.q().num_actions(); ++a) {
      EXPECT_DOUBLE_EQ(store.q(u).get(s, a), donor.q().get(s, a));
    }
  }
}

TEST_F(PolicyStoreFixture, RestoreWithoutSnapshotReturnsNullopt) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor, on_disk(fresh_dir("empty")));
  const UserId u = store.add_user("nobody");
  EXPECT_EQ(store.restore(u), std::nullopt);
  EXPECT_EQ(store.version(u), 1u);

  PolicyStore memory_only(donor);
  const UserId m = memory_only.add_user("nobody");
  EXPECT_EQ(memory_only.restore(m), std::nullopt);
}

TEST_F(PolicyStoreFixture, StoreRejectsMismatchedShapesAndUnknownUsers) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  EXPECT_THROW(store.add_user("x", rl::QTable(2, 2)),
               std::invalid_argument);
  const UserId u = store.add_user("ok");
  EXPECT_THROW(store.stage(u, rl::QTable(2, 2)), std::invalid_argument);
  EXPECT_THROW(store.q(u + 1), std::out_of_range);
  EXPECT_THROW((void)PolicyStore(donor, PolicyStoreParams{0}),
               std::invalid_argument);
  // A store directory created for one ADL refuses another ADL's schema.
  const std::string dir = fresh_dir("schema");
  { PolicyStore tea(donor, on_disk(dir)); }
  planning::RoutineLearner brush(library.tooth_brushing(), util::Rng(1));
  EXPECT_THROW((void)PolicyStore(brush, on_disk(dir)), std::runtime_error);
}

}  // namespace
}  // namespace coreda::serve
