// PolicyStore robustness: a table's v2 record (the segment store's
// CRDAREC2 anchor) round-trips byte-identically and rejects truncated /
// bit-flipped / wrong-ADL / garbage input with the entry untouched; the
// store's versions are monotonic per stage, a stage appends one record at
// once and a crashed append stays dirty until a flush retries it,
// restarts restore from the segment store, the store directory stays
// inspectable without a learner, and registering users one at a time
// grows the durable index geometrically.

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

  static SegmentStoreParams on_disk(const std::string& dir) {
    SegmentStoreParams params;
    params.dir = dir;
    return params;
  }

  /// Makes every later append of `store` crash before it publishes, or
  /// (`crash` false) publish again.
  static void crash_appends(PolicyStore& store, bool crash) {
    store.segments()->pre_publish_site().set_hook(
        [crash](const std::string&) {
          if (crash) throw std::runtime_error("injected crash");
        });
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
    PolicyStore store(source, on_disk(first));
    store.stage(store.add_user(), source.q());
  }

  // Restore into an untrained learner's store, then store it again.
  planning::RoutineLearner blank(library.tea_making(), util::Rng(99));
  PolicyStore restored(blank, on_disk(first));
  const UserId u = restored.add_user();
  ASSERT_EQ(restored.restore(u), std::optional<std::uint64_t>{2});
  {
    PolicyStore again(blank, on_disk(second));
    const UserId v = again.add_user();
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
  PolicyStore store(source, on_disk(dir));
  const UserId u = store.add_user();
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
  PolicyStore store(source, on_disk(dir));
  const UserId u = store.add_user();
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
    PolicyStore store(source, on_disk(dir));
    store.stage(store.add_user(), source.q());
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
    PolicyStore store(source, on_disk(dir));
    const UserId u = store.add_user();
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
    PolicyStore store(source, on_disk(dir));
    store.stage(store.add_user(), source.q());
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
  const UserId u = store.add_user();
  EXPECT_EQ(store.version(u), 1u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::uint64_t before = store.version(u);
    store.stage(u, donor.q());
    EXPECT_EQ(store.version(u), before + 1);
  }
  EXPECT_EQ(store.version(u), 11u);
  EXPECT_EQ(store.segments(), nullptr);  // memory-only: nothing on disk
}

TEST_F(PolicyStoreFixture, StageAppendsAtOnceAndACrashedAppendStaysDirty) {
  planning::RoutineLearner donor = trained();
  const std::string dir = fresh_dir("dirty");
  {
    PolicyStore store(donor, on_disk(dir));
    const UserId u = store.add_user();
    EXPECT_EQ(store.segments()->appends(), 0u);  // registering writes nothing
    store.stage(u, donor.q());
    EXPECT_EQ(store.segments()->appends(), 1u);  // one record, at once
    EXPECT_EQ(store.segments()->latest_version(u),
              std::optional<std::uint64_t>{2});
    store.flush_all();  // nothing dirty: nothing appended
    EXPECT_EQ(store.segments()->appends(), 1u);

    // A crashed append keeps version 3 in memory and leaves it dirty...
    crash_appends(store, true);
    EXPECT_THROW(store.stage(u, donor.q()), std::runtime_error);
    EXPECT_EQ(store.version(u), 3u);
    EXPECT_THROW(store.flush_all(), std::runtime_error);  // still crashing
    EXPECT_EQ(store.segments()->appends(), 1u);
    // ...so flush_all() retries it once the crashes stop.
    crash_appends(store, false);
    store.flush_all();
    EXPECT_EQ(store.segments()->appends(), 2u);
    EXPECT_EQ(store.segments()->latest_version(u),
              std::optional<std::uint64_t>{3});

    // And the destructor retries an entry still dirty at teardown.
    crash_appends(store, true);
    EXPECT_THROW(store.stage(u, donor.q()), std::runtime_error);
    crash_appends(store, false);
    EXPECT_EQ(store.segments()->latest_version(u),
              std::optional<std::uint64_t>{3});
  }
  EXPECT_EQ(SegmentStore::inspect(dir).max_version, 4u);
}

TEST_F(PolicyStoreFixture, AtomicWritePublishesNoTempFiles) {
  planning::RoutineLearner donor = trained();
  const std::string dir = fresh_dir("atomic");
  PolicyStore store(donor, on_disk(dir));  // every stage persists
  const UserId u = store.add_user();
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
    PolicyStore store(donor, on_disk(dir));
    const UserId u = store.add_user();
    for (int i = 0; i < 4; ++i) store.stage(u, donor.q());
    // A crashed append leaves version 6 dirty, so the dtor flush does the
    // persisting.
    crash_appends(store, true);
    EXPECT_THROW(store.stage(u, donor.q()), std::runtime_error);
    crash_appends(store, false);
    EXPECT_EQ(store.version(u), 6u);
    EXPECT_EQ(store.segments()->latest_version(u),
              std::optional<std::uint64_t>{5});
  }  // ~PolicyStore flushes

  planning::RoutineLearner blank(library.tea_making(), util::Rng(1));
  PolicyStore store(blank, on_disk(dir));  // warm restart, untrained ref
  const UserId u = store.add_user();
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
  const UserId u = store.add_user();
  EXPECT_EQ(store.restore(u), std::nullopt);
  EXPECT_EQ(store.version(u), 1u);

  PolicyStore memory_only(donor);
  const UserId m = memory_only.add_user();
  EXPECT_EQ(memory_only.restore(m), std::nullopt);
}

TEST_F(PolicyStoreFixture, StoreRejectsMismatchedShapesAndUnknownUsers) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor);
  EXPECT_THROW(store.add_user(rl::QTable(2, 2)),
               std::invalid_argument);
  const UserId u = store.add_user();
  EXPECT_THROW(store.stage(u, rl::QTable(2, 2)), std::invalid_argument);
  EXPECT_THROW(store.q(u + 1), std::out_of_range);
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
  SegmentStoreParams params = on_disk(fresh_dir("registration"));
  params.writers = 4;
  PolicyStore store(donor, params);
  constexpr std::size_t kUsers = std::size_t{1} << 15;
  std::size_t changes = 0;
  std::size_t bytes = store.segments()->index_slab_bytes();
  for (std::size_t u = 0; u < kUsers; ++u) {
    store.add_user();
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
  EXPECT_EQ(store.segments()->latest_version(kUsers - 1),
            std::optional<std::uint64_t>{2});
}

}  // namespace
}  // namespace coreda::serve
