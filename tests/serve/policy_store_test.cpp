// PolicyStore robustness: a table's v2 record (the segment store's
// CRDAREC2 anchor) round-trips byte-identically and rejects truncated /
// bit-flipped / wrong-ADL / garbage input with the entry untouched; the
// store's versions are monotonic per write-back, disk writes are
// wear-batched, restarts restore from the segment store, the store
// directory stays inspectable without a learner, and registering users one
// at a time grows the durable index geometrically. (A whole home's policy
// set is covered by policy_set_test.cpp.)

#include "serve/policy_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "adl/library.hpp"
#include "util/wire.hpp"

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

  /// The bytes of the first record in `dir`'s first segment.
  static std::string first_record(const std::string& dir) {
    std::ifstream in(dir + "/seg-w0-000000.seg", std::ios::binary);
    const std::string seg{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
    const auto* len = reinterpret_cast<const unsigned char*>(seg.data() + 48);
    return seg.substr(40, util::wire::load_u64(len));
  }

  /// Overwrites `bytes` at `off` of `dir`'s first segment in place (a live
  /// store's MAP_SHARED mapping sees it at once).
  static void overwrite(const std::string& dir, std::size_t off,
                        const std::string& bytes) {
    std::fstream f(dir + "/seg-w0-000000.seg",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(off));
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
};

TEST_F(PolicyStoreFixture, V2RoundTripIsByteIdentical) {
  planning::RoutineLearner source = trained();
  const std::string first = fresh_dir("v2_first");
  const std::string second = fresh_dir("v2_second");
  {
    PolicyStore store(source, on_disk(first, 1));
    store.stage(store.add_user("tanaka"), source.q());
  }

  // Restore into an untrained learner's store, then store it again.
  planning::RoutineLearner blank(library.tea_making(), util::Rng(99));
  PolicyStore restored(blank, on_disk(first));
  const UserId u = restored.add_user("tanaka");
  ASSERT_EQ(restored.restore(u), std::optional<std::uint64_t>{2});
  {
    PolicyStore again(blank, on_disk(second, 1));
    const UserId v = again.add_user("tanaka");
    again.stage(v, restored.q(u));
  }
  // Byte equality of the re-written record implies bit equality of every
  // Q value — stronger than EXPECT_DOUBLE_EQ per cell.
  EXPECT_EQ(first_record(second), first_record(first));
  EXPECT_EQ(first_record(first).size(),
            8 * (6 + source.q().num_states() * source.q().num_actions()));
}

TEST_F(PolicyStoreFixture, V2TruncationRejectedEverywhereLearnerUnchanged) {
  planning::RoutineLearner source = trained();
  const std::string dir = fresh_dir("v2_truncation");
  PolicyStore store(source, on_disk(dir, 1));
  const UserId u = store.add_user("tanaka");
  planning::RoutineLearner other = trained(9);
  store.stage(u, other.q());
  const std::string record = first_record(dir);

  // Cut the record at several depths — inside the magic, the header, the
  // Q block, and inside the trailing checksum — as a write that stopped
  // there leaves it: every byte past the cut reads zero.
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{20}, std::size_t{60}, record.size() / 2,
        record.size() - 3}) {
    overwrite(dir, 40 + keep, std::string(record.size() - keep, '\0'));
    EXPECT_THROW(store.restore(u), std::runtime_error)
        << "kept " << keep << " of " << record.size() << " bytes";
    EXPECT_DOUBLE_EQ(store.q(u).get(1, 1), other.q().get(1, 1));
    overwrite(dir, 40, record);
  }
  EXPECT_EQ(store.restore(u), std::optional<std::uint64_t>{2});
}

TEST_F(PolicyStoreFixture, V2BitFlipRejectedByChecksum) {
  planning::RoutineLearner source = trained();
  const std::string dir = fresh_dir("v2_flip");
  PolicyStore store(source, on_disk(dir, 1));
  const UserId u = store.add_user("tanaka");
  store.stage(u, source.q());
  std::string record = first_record(dir);
  record[record.size() / 2] ^= 0x40;  // flip one bit deep in the Q block
  overwrite(dir, 40, record);
  EXPECT_THROW(store.restore(u), std::runtime_error);
  EXPECT_DOUBLE_EQ(store.q(u).get(0, 0), source.q().get(0, 0));
}

TEST_F(PolicyStoreFixture, V2WrongAdlRejected) {
  planning::RoutineLearner source = trained();
  const std::string dir = fresh_dir("v2_wrong_adl");
  {
    PolicyStore store(source, on_disk(dir, 1));
    store.stage(store.add_user("tanaka"), source.q());
  }
  planning::RoutineLearner other(library.tooth_brushing(), util::Rng(9));
  EXPECT_THROW((void)PolicyStore(other, on_disk(dir)), std::runtime_error);
}

TEST_F(PolicyStoreFixture, V2GarbageRejected) {
  const std::string dir = fresh_dir("v2_garbage");
  fs::create_directories(dir);
  std::ofstream(dir + "/store.meta") << "CRDASTRX plus whatever follows";
  planning::RoutineLearner victim(library.tea_making(), util::Rng(2));
  EXPECT_THROW((void)PolicyStore(victim, on_disk(dir)), std::runtime_error);
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
  EXPECT_EQ(info.table.num_states, source.q().num_states());
  EXPECT_EQ(info.table.num_actions, source.q().num_actions());
  EXPECT_EQ(info.table.steps, source.state_codec().symbols());
  EXPECT_EQ(info.table.tools, source.action_codec().tools());
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

TEST_F(PolicyStoreFixture, RegisteringUsersOneByOneGrowsTheIndexGeometrically) {
  // A durable store reserves index room per registration; each lane's slab
  // must grow geometrically, or n registrations rehash n times (O(n^2)).
  planning::RoutineLearner donor = trained();
  PolicyStoreParams params = on_disk(fresh_dir("registration"));
  params.segments.writers = 4;
  PolicyStore store(donor, params);
  constexpr std::size_t kUsers = std::size_t{1} << 15;
  std::size_t changes = 0;
  std::size_t bytes = store.segments()->index_slab_bytes();
  for (std::size_t u = 0; u < kUsers; ++u) {
    store.add_user("u" + std::to_string(u));
    const std::size_t now = store.segments()->index_slab_bytes();
    changes += now != bytes ? 1 : 0;
    bytes = now;
  }
  // Each of the 4 lanes doubles from 16 slots to about 8,192 keys: about
  // 10 growths per lane, never one per user.
  EXPECT_GE(changes, 4u);
  EXPECT_LE(changes, 4u * 2 * 15);
  // Every registered user still appends.
  store.stage(static_cast<UserId>(kUsers - 1), donor.q());
  store.flush_all();
  EXPECT_EQ(store.segments()->latest_version(kUsers - 1),
            std::optional<std::uint64_t>{2});
}

}  // namespace
}  // namespace coreda::serve
