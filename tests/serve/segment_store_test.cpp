// The segment store's contract:
//
//   * append/load round-trips are bit-exact, latest version wins, and a
//     reopen rebuilds the index to exactly the pre-shutdown view;
//   * the exhaustive corruption sweep (policy_fuzz_test's) — a one-byte
//     flip at EVERY offset of a committed record is caught by the record
//     checksum: an open store's load() throws with the destination table
//     untouched, and a reopening store falls back to the newest *valid*
//     record for that user;
//   * a crafted record length near 2^64 cannot wrap a bounds check: the
//     scan, load and inspect all stop at the record instead of reading
//     past the mapping;
//   * crash injection between the record write and the magic publish
//     (policy_crash_test's window): the append aborts, the index keeps the
//     previous version, the half-written slot is invisible to a restart
//     and gets overwritten by the retry;
//   * compaction preserves every user's latest version and actually
//     returns disk space (segment files are unlinked) when each segment
//     stays partly live;
//   * inspect and open agree on a delta whose parent offset is forged off
//     the 8-byte grid under a re-sealed checksum;
//   * the segment life cycle: a sweep that rewrites every user reclaims
//     each superseded segment with no compaction and reopens scanning one
//     copy; a segment emptied while the writer holds a spare is unlinked,
//     and so is every segment a compaction retires but the spare; a crash before the scrub, mid-scrub, after the header write or
//     after the rename of a recycled roll reopens with every committed
//     version; a recycled segment's bytes equal a fresh one's after the
//     same appends; a leftover spare is ignored by open and inspect;
//   * a store.meta of another format version — a format-1 or format-2
//     store exactly as an older build wrote it (FNV-1a / one-table
//     checksum64 layout), or a valid-trailer meta claiming version 7 — is
//     refused by open (naming the format, never
//     as a checksum mismatch) and by inspect / `coreda policy inspect`
//     (exit 2), and nothing in the directory is created or rewritten;
//   * a segment-backed PolicyStore serves the ServeEngine exactly like a
//     memory-only one, appends nothing for a drain with no retrain due and
//     exactly one record per staged retrain, restores after a restart,
//     keeps its committed version through a crashed stage, and the engine
//     refuses a store whose writer lanes do not match its slots.

#include "serve/segment_store.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <vector>

#include "adl/library.hpp"
#include "serve/chaos.hpp"
#include "serve/engine.hpp"
#include "tools/cli_commands.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace coreda::serve {
namespace {

namespace fs = std::filesystem;

// Format constants (segment_store.hpp): a 6x5 table gives a v2 anchor of
// 8 * (6 + 30) = 288 bytes after the 40-byte segment header. The tables in
// this suite differ in every row, so a changed-row delta (352 bytes here)
// is never profitable and every append lands as an anchor — the fixed
// record arithmetic below stays exact. segment_delta_test.cpp covers the
// delta chains.
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kRecordBytes = 288;

bool bit_equal(const rl::QTable& a, const rl::QTable& b) {
  if (a.num_states() != b.num_states() ||
      a.num_actions() != b.num_actions()) {
    return false;
  }
  for (rl::StateId s = 0; s < a.num_states(); ++s) {
    const std::span<const double> ra = a.row(s);
    const std::span<const double> rb = b.row(s);
    if (std::memcmp(ra.data(), rb.data(), ra.size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

struct SegmentStoreFixture : ::testing::Test {
  static constexpr std::size_t kStates = 6;
  static constexpr std::size_t kActions = 5;

  std::vector<adl::StepId> steps = [] {
    std::vector<adl::StepId> v(kStates);
    for (std::size_t i = 0; i < kStates; ++i) {
      v[i] = static_cast<adl::StepId>(i + 1);
    }
    return v;
  }();
  std::vector<adl::ToolId> tools = [] {
    std::vector<adl::ToolId> v(kActions);
    for (std::size_t i = 0; i < kActions; ++i) {
      v[i] = static_cast<adl::ToolId>(100 + i);
    }
    return v;
  }();

  std::string fresh_dir(const char* name) {
    const std::string dir = ::testing::TempDir() + "/coreda_seg_" + name;
    fs::remove_all(dir);
    return dir;
  }

  SegmentStoreParams small_params(const std::string& dir) {
    SegmentStoreParams p;
    p.dir = dir;
    return p;
  }

  rl::QTable table(std::uint64_t seed) {
    rl::QTable q(kStates, kActions);
    util::Rng rng(seed);
    for (rl::StateId s = 0; s < kStates; ++s) {
      for (rl::ActionId a = 0; a < kActions; ++a) {
        q.set(s, a, rng.uniform(-1e3, 1e3));
      }
    }
    return q;
  }

  std::unique_ptr<SegmentStore> open(const SegmentStoreParams& p) {
    return std::make_unique<SegmentStore>(steps, tools, kStates, kActions, p);
  }

  std::size_t segment_files(const std::string& dir) {
    std::size_t n = 0;
    for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
      if (de.path().extension() == ".seg") ++n;
    }
    return n;
  }
};

TEST_F(SegmentStoreFixture, AppendLoadRoundTripsAndLatestVersionWins) {
  const std::string dir = fresh_dir("roundtrip");
  auto store = open(small_params(dir));
  store->reserve_users(3);

  const rl::QTable q1 = table(1), q2 = table(2), q3 = table(3);
  store->append(0, q1, 1);
  store->append(1, q2, 1);
  store->append(0, q3, 2);  // supersedes user 0's first record

  EXPECT_EQ(store->latest_version(0), std::optional<std::uint64_t>{2});
  EXPECT_EQ(store->latest_version(1), std::optional<std::uint64_t>{1});
  EXPECT_EQ(store->latest_version(2), std::nullopt);

  rl::QTable out(kStates, kActions);
  EXPECT_EQ(store->load(0, out), std::optional<std::uint64_t>{2});
  EXPECT_TRUE(bit_equal(out, q3));
  EXPECT_EQ(store->load(1, out), std::optional<std::uint64_t>{1});
  EXPECT_TRUE(bit_equal(out, q2));
  EXPECT_EQ(store->load(2, out), std::nullopt);
  EXPECT_TRUE(bit_equal(out, q2));  // a miss never touches the destination

  EXPECT_EQ(store->appends(), 3u);
  EXPECT_EQ(store->live_records(), 2u);
  EXPECT_EQ(store->dead_records(), 1u);
}

TEST_F(SegmentStoreFixture, ReopenRebuildsTheIndexIdentically) {
  const std::string dir = fresh_dir("reopen");
  std::vector<rl::QTable> latest;
  {
    auto store = open(small_params(dir));
    store->reserve_users(8);
    for (std::uint64_t u = 0; u < 8; ++u) {
      for (std::uint64_t v = 1; v <= u % 3 + 1; ++v) {
        store->append(u, table(10 * u + v), v);
      }
      latest.push_back(table(10 * u + (u % 3 + 1)));
    }
  }  // destructor unmaps everything

  auto reopened = open(small_params(dir));
  rl::QTable out(kStates, kActions);
  for (std::uint64_t u = 0; u < 8; ++u) {
    ASSERT_EQ(reopened->load(u, out), std::optional<std::uint64_t>{u % 3 + 1})
        << "user " << u;
    EXPECT_TRUE(bit_equal(out, latest[u])) << "user " << u;
  }
  EXPECT_EQ(reopened->live_records(), 8u);
  // Appending after the reopen lands after the scanned tail, never on top
  // of an existing record.
  const std::uint64_t dead_before = reopened->dead_records();
  reopened->append(0, table(777), 9);
  EXPECT_EQ(reopened->latest_version(0), std::optional<std::uint64_t>{9});
  EXPECT_EQ(reopened->dead_records(), dead_before + 1);
}

TEST_F(SegmentStoreFixture, ReopenRejectsASchemaMismatch) {
  const std::string dir = fresh_dir("schema");
  { open(small_params(dir)); }
  SegmentStoreParams p = small_params(dir);
  EXPECT_THROW(SegmentStore(steps, tools, kStates + 1, kActions, p),
               std::runtime_error);
  std::vector<adl::ToolId> other_tools = tools;
  other_tools.back() = 999;
  EXPECT_THROW(SegmentStore(steps, other_tools, kStates, kActions, p),
               std::runtime_error);
}

TEST_F(SegmentStoreFixture, EveryOneByteFlipInACommittedRecordIsRejected) {
  const std::string dir = fresh_dir("sweep");
  const rl::QTable v1 = table(41), v2 = table(42);
  auto store = open(small_params(dir));
  store->reserve_users(1);
  store->append(0, v1, 1);
  store->append(0, v2, 2);
  // Both records live in writer 0's first segment: v1 at slot 0, v2 at
  // slot 1.
  const std::string seg_path = dir + "/seg-w0-000000.seg";
  ASSERT_TRUE(fs::exists(seg_path));
  const std::size_t rec_off = kHeaderBytes + 1 * kRecordBytes;

  const auto flip = [&](std::size_t offset) {
    std::fstream f(seg_path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(byte ^ 0x5A));
    f.flush();
  };

  rl::QTable out(kStates, kActions);
  ASSERT_EQ(store->load(0, out), std::optional<std::uint64_t>{2});
  for (std::size_t i = 0; i < kRecordBytes; ++i) {
    flip(rec_off + i);
    // The open store's index points at the now-corrupt v2 record: the load
    // must throw and leave the destination untouched (MAP_SHARED makes the
    // file flip visible through the mapping immediately).
    rl::QTable victim(kStates, kActions, 7.5);
    const rl::QTable before = victim;
    EXPECT_THROW(store->load(0, victim), std::runtime_error)
        << "offset " << i;
    EXPECT_TRUE(bit_equal(victim, before)) << "offset " << i;
    // A restarting reader scans past the bad record and falls back to the
    // newest valid one: version 1.
    {
      auto reader = open(small_params(dir));
      rl::QTable fallback(kStates, kActions);
      ASSERT_EQ(reader->load(0, fallback), std::optional<std::uint64_t>{1})
          << "offset " << i;
      EXPECT_TRUE(bit_equal(fallback, v1)) << "offset " << i;
    }
    flip(rec_off + i);  // restore
  }
  // Control: with every byte restored the record validates again.
  EXPECT_EQ(store->load(0, out), std::optional<std::uint64_t>{2});
  EXPECT_TRUE(bit_equal(out, v2));
}

TEST_F(SegmentStoreFixture, CraftedLengthNearTwoToThe64IsRejected) {
  const std::string dir = fresh_dir("huge_len");
  auto store = open(small_params(dir));
  store->reserve_users(1);
  store->append(0, table(61), 1);
  {
    // The segment's first record claims a length of 2^64 - 8: a multiple
    // of 8 and above the minimum, and `offset + len` wraps below the file
    // size. A bounds check written as a sum would pass it on to a
    // checksum over ~2^64 bytes.
    std::fstream f(dir + "/seg-w0-000000.seg",
                   std::ios::binary | std::ios::in | std::ios::out);
    unsigned char len[8];
    util::wire::store_u64(len, 0xFFFF'FFFF'FFFF'FFF8ULL);
    f.seekp(static_cast<std::streamoff>(kHeaderBytes + 8));
    f.write(reinterpret_cast<const char*>(len), 8);
  }
  // The open store's index still points at the record (the mapping shows
  // the rewrite at once): load refuses it.
  rl::QTable out(kStates, kActions);
  EXPECT_THROW(store->load(0, out), std::runtime_error);
  store.reset();

  auto reopened = open(small_params(dir));
  EXPECT_EQ(reopened->scanned_records(), 0u);
  EXPECT_EQ(reopened->latest_version(0), std::nullopt);
  EXPECT_EQ(reopened->live_records(), 0u);

  const SegmentStore::Info info = SegmentStore::inspect(dir);
  EXPECT_EQ(info.records, 0u);
  EXPECT_EQ(info.corrupt_records, 1u);
}

TEST_F(SegmentStoreFixture, CrashBetweenAppendAndPublishLeavesStoreOnOld) {
  const std::string dir = fresh_dir("crash");
  const rl::QTable v1 = table(51), v2 = table(52);
  auto store = open(small_params(dir));
  store->reserve_users(1);
  store->append(0, v1, 1);

  store->pre_publish_site().set_hook([](const std::string&) {
    throw std::runtime_error("injected crash before the magic publish");
  });
  EXPECT_THROW(store->append(0, v2, 2), std::runtime_error);
  // The tail did not advance and the index still serves version 1.
  EXPECT_EQ(store->latest_version(0), std::optional<std::uint64_t>{1});
  rl::QTable out(kStates, kActions);
  EXPECT_EQ(store->load(0, out), std::optional<std::uint64_t>{1});
  EXPECT_TRUE(bit_equal(out, v1));
  EXPECT_EQ(store->appends(), 1u);

  // A restart over the crashed store sees only the committed record — the
  // half-written slot has no magic and is invisible to the scan.
  {
    auto reader = open(small_params(dir));
    EXPECT_EQ(reader->latest_version(0), std::optional<std::uint64_t>{1});
    EXPECT_EQ(reader->live_records(), 1u);
    EXPECT_EQ(reader->dead_records(), 0u);
  }

  // Crash over: the retry overwrites the abandoned slot and publishes.
  store->pre_publish_site().set_hook(nullptr);
  store->append(0, v2, 2);
  EXPECT_EQ(store->load(0, out), std::optional<std::uint64_t>{2});
  EXPECT_TRUE(bit_equal(out, v2));
  EXPECT_EQ(store->live_records(), 1u);
  EXPECT_EQ(store->dead_records(), 1u);  // v1, superseded
}

TEST_F(SegmentStoreFixture, CompactionKeepsLatestVersionsAndUnlinksSegments) {
  const std::string dir = fresh_dir("compact");
  SegmentStoreParams p = small_params(dir);
  p.segment_bytes = kHeaderBytes + 4 * kRecordBytes;  // 4 records per segment
  p.compact_min_records = 8;
  p.compact_dead_ratio = 0.5;
  auto store = open(p);
  store->reserve_users(3 + 16);

  // 3 users x 16 versions, plus one pin per round: user 3 + v is written
  // once, in round v, and never again. Each round fills exactly one
  // segment and the pin keeps it partly live, so no append ever empties
  // a segment — only compaction can return the space of the dead
  // records, and the dead ratio crosses 0.5 over and over.
  const auto pin_table = [&](std::uint64_t pin) { return table(900 + pin); };
  for (std::uint64_t v = 1; v <= 16; ++v) {
    for (std::uint64_t u = 0; u < 3; ++u) {
      store->append(u, table(100 * u + v), v);
    }
    store->append(2 + v, pin_table(2 + v), 1);
  }
  EXPECT_EQ(store->compactions(), 3u);
  EXPECT_EQ(store->reclaimed_segments(), 0u);
  EXPECT_EQ(store->live_records(), 3u + 16u);
  // Without compaction 64 appends at 4 records/segment would be 16
  // segments. Each compaction packed the live records into fresh segments
  // and unlinked the old ones, leaving 9: the live set grows by a pin per
  // round, so it alone needs 5 of them.
  EXPECT_EQ(store->num_segments(), 9u);
  EXPECT_EQ(segment_files(dir), store->num_segments());
  // Of the segments a compaction retires, the first becomes the spare and
  // the rest are unlinked, and the rounds after the last compaction
  // rolled onto that spare: the directory holds the live segments and
  // store.meta, nothing else.
  EXPECT_FALSE(fs::exists(dir + "/seg-w0.spare"));
  EXPECT_EQ(static_cast<std::size_t>(std::distance(
                fs::directory_iterator(dir), fs::directory_iterator())),
            store->num_segments() + 1);

  rl::QTable out(kStates, kActions);
  const auto expect_all = [&](const SegmentStore& s) {
    for (std::uint64_t u = 0; u < 3; ++u) {
      ASSERT_EQ(s.load(u, out), std::optional<std::uint64_t>{16});
      EXPECT_TRUE(bit_equal(out, table(100 * u + 16))) << "user " << u;
    }
    for (std::uint64_t pin = 3; pin < 3 + 16; ++pin) {
      ASSERT_EQ(s.load(pin, out), std::optional<std::uint64_t>{1});
      EXPECT_TRUE(bit_equal(out, pin_table(pin))) << "pin " << pin;
    }
  };
  expect_all(*store);

  // The compacted layout survives a restart bit-for-bit.
  store.reset();
  auto reopened = open(p);
  expect_all(*reopened);
}

TEST_F(SegmentStoreFixture, InspectSummarizesAStoreDirectory) {
  const std::string dir = fresh_dir("inspect");
  {
    auto store = open(small_params(dir));
    store->reserve_users(4);
    store->append(0, table(1), 1);
    store->append(0, table(2), 2);
    store->append(3, table(3), 5);
  }
  ASSERT_TRUE(SegmentStore::is_store_dir(dir));
  EXPECT_FALSE(SegmentStore::is_store_dir(::testing::TempDir()));

  const SegmentStore::Info info = SegmentStore::inspect(dir);
  EXPECT_TRUE(info.meta_ok);
  EXPECT_EQ(info.table.num_states, kStates);
  EXPECT_EQ(info.table.num_actions, kActions);
  EXPECT_EQ(info.records, 3u);
  EXPECT_EQ(info.anchors, 3u);  // full-row changes: deltas never profitable
  EXPECT_EQ(info.deltas, 0u);
  EXPECT_EQ(info.corrupt_records, 0u);
  EXPECT_EQ(info.users, 2u);
  EXPECT_EQ(info.live_records, 2u);
  EXPECT_EQ(info.max_version, 5u);
  EXPECT_DOUBLE_EQ(info.mean_chain_length, 1.0);
  ASSERT_EQ(info.segment_details.size(), info.segments);
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Every file in `dir` with its bytes: a restore point to prove a refused
/// open or inspect created and rewrote nothing.
std::map<std::string, std::vector<unsigned char>> snapshot(
    const std::string& dir) {
  std::map<std::string, std::vector<unsigned char>> files;
  for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
    files[de.path().filename().string()] = read_file(de.path().string());
  }
  return files;
}

/// `coreda policy inspect --in=dir`: exit code and stdout.
std::pair<int, std::string> cli_inspect(const std::string& dir) {
  std::ostringstream out, err;
  const int code = cli::run_command(
      util::Flags::parse({"policy", "inspect", "--in=" + dir}), out, err);
  return {code, out.str()};
}

TEST_F(SegmentStoreFixture, FormatOneStoreIsRefusedByVersionNotAsCorruption) {
  const std::string dir = fresh_dir("format1");
  {
    auto store = open(small_params(dir));
    store->reserve_users(2);
    store->append(0, table(71), 1);
    store->append(1, table(72), 3);
  }
  // Rewrite store.meta exactly as format 1 wrote it: same layout, version
  // field 1, FNV-1a 64 over every preceding byte as the trailer.
  const std::string meta_path = dir + "/store.meta";
  std::vector<unsigned char> meta = read_file(meta_path);
  ASSERT_EQ(util::wire::load_u64(meta.data() + 8), kMetaFormatVersion);
  util::wire::store_u64(meta.data() + 8, 1);
  std::uint64_t fnv = 1469598103934665603ULL;
  for (std::size_t i = 0; i + 8 < meta.size(); ++i) {
    fnv ^= meta[i];
    fnv *= 1099511628211ULL;
  }
  util::wire::store_u64(meta.data() + meta.size() - 8, fnv);
  write_file(meta_path, meta);
  const auto before = snapshot(dir);

  try {
    open(small_params(dir));
    ADD_FAILURE() << "a format-1 store opened";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("format 1"), std::string::npos) << what;
    EXPECT_EQ(what.find("checksum"), std::string::npos) << what;
  }
  const SegmentStore::Info info = SegmentStore::inspect(dir);
  EXPECT_FALSE(info.meta_ok);
  EXPECT_EQ(info.meta_format, 1u);
  EXPECT_EQ(info.records, 0u);  // records are not scanned under a bad meta
  const auto [code, out] = cli_inspect(dir);
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("store v1"), std::string::npos) << out;
  EXPECT_NE(out.find("meta: MISMATCH"), std::string::npos) << out;
  EXPECT_EQ(snapshot(dir), before);
}

TEST_F(SegmentStoreFixture, FormatTwoStoreIsRefusedByVersion) {
  const std::string dir = fresh_dir("format2");
  {
    auto store = open(small_params(dir));
    store->reserve_users(1);
    store->append(0, table(61), 1);
  }
  // Rewrite store.meta exactly as format 2 wrote it — one table: magic,
  // version 2, step/tool counts, shape, segment bytes, vocabularies and a
  // checksum64 trailer. Its segment bytes are format 3's one-table bytes,
  // so only the version field can refuse it.
  const std::string meta_path = dir + "/store.meta";
  std::vector<unsigned char> meta(64);
  std::memcpy(meta.data(), kStoreMetaMagic, 8);
  const std::uint64_t header[] = {
      2, steps.size(), tools.size(), kStates, kActions, std::uint64_t{1} << 20};
  for (std::size_t i = 0; i < 6; ++i) {
    util::wire::store_u64(meta.data() + 8 + 8 * i, header[i]);
  }
  for (const adl::StepId id : steps) {
    meta.resize(meta.size() + 8);
    util::wire::store_u64(meta.data() + meta.size() - 8, id);
  }
  for (const adl::ToolId id : tools) {
    meta.resize(meta.size() + 8);
    util::wire::store_u64(meta.data() + meta.size() - 8, id);
  }
  meta.resize(meta.size() + 8);
  util::wire::store_u64(meta.data() + meta.size() - 8,
                        util::wire::checksum64(meta.data(), meta.size() - 8));
  write_file(meta_path, meta);
  const auto before = snapshot(dir);

  try {
    open(small_params(dir));
    ADD_FAILURE() << "a format-2 store opened";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("format 2"), std::string::npos) << what;
    EXPECT_EQ(what.find("checksum"), std::string::npos) << what;
  }
  const SegmentStore::Info info = SegmentStore::inspect(dir);
  EXPECT_FALSE(info.meta_ok);
  EXPECT_EQ(info.meta_format, 2u);
  EXPECT_EQ(info.records, 0u);
  const auto [code, out] = cli_inspect(dir);
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("store v2"), std::string::npos) << out;
  EXPECT_EQ(snapshot(dir), before);
}

TEST_F(SegmentStoreFixture, MetaClaimingAnotherVersionIsRefusedEverywhere) {
  const std::string dir = fresh_dir("format7");
  {
    auto store = open(small_params(dir));
    store->reserve_users(1);
    store->append(0, table(81), 1);
  }
  ASSERT_TRUE(SegmentStore::inspect(dir).meta_ok);
  const auto [ok_code, ok_out] = cli_inspect(dir);
  ASSERT_EQ(ok_code, 0);
  EXPECT_NE(ok_out.find("store v3"), std::string::npos) << ok_out;
  // Version 7 under a trailer that is valid for the new bytes: only the
  // version field can refuse it.
  const std::string meta_path = dir + "/store.meta";
  std::vector<unsigned char> meta = read_file(meta_path);
  util::wire::store_u64(meta.data() + 8, 7);
  util::wire::store_u64(meta.data() + meta.size() - 8,
                        util::wire::checksum64(meta.data(), meta.size() - 8));
  write_file(meta_path, meta);
  const auto before = snapshot(dir);

  EXPECT_THROW(open(small_params(dir)), std::runtime_error);
  const SegmentStore::Info info = SegmentStore::inspect(dir);
  EXPECT_FALSE(info.meta_ok);
  EXPECT_EQ(info.meta_format, 7u);
  EXPECT_EQ(cli_inspect(dir).first, 2);
  EXPECT_EQ(snapshot(dir), before);
}

TEST_F(SegmentStoreFixture, InspectAndOpenAgreeOnAMisalignedDeltaParent) {
  const std::string dir = fresh_dir("misaligned_parent");
  {
    auto store = open(small_params(dir));
    store->reserve_users(1);
    rl::QTable q = table(91);
    store->append(0, q, 1);  // anchor at 40
    q.set(2, 0, 12.5);
    store->append(0, q, 2);  // one-row delta at 328, parent_off 40
    ASSERT_EQ(store->delta_records_written(), 1u);
  }
  // Move the delta's parent_off by 4 bytes and re-seal its checksum: a
  // forgery only the structural checks can stop.
  const std::string seg_path = dir + "/seg-w0-000000.seg";
  std::vector<unsigned char> seg = read_file(seg_path);
  unsigned char* rec = seg.data() + kHeaderBytes + kRecordBytes;
  const std::uint64_t len = util::wire::load_u64(rec + 8);
  ASSERT_EQ(util::wire::load_u64(rec + 40), kHeaderBytes);
  util::wire::store_u64(rec + 40, kHeaderBytes + 4);
  util::wire::store_u64(rec + len - 8,
                        util::wire::checksum64(rec + 8, len - 16));
  write_file(seg_path, seg);

  auto reopened = open(small_params(dir));
  EXPECT_EQ(reopened->latest_version(0), std::optional<std::uint64_t>{1});
  EXPECT_EQ(reopened->scanned_records(), 1u);
  const SegmentStore::Info info = SegmentStore::inspect(dir);
  EXPECT_EQ(info.records, reopened->scanned_records());
  EXPECT_EQ(info.corrupt_records, 1u);
  EXPECT_EQ(info.max_version, 1u);
}

// ---------------------------------------------------------------------------
// Segment life cycle: reclaim -> spare -> recycled roll.
// ---------------------------------------------------------------------------

/// Copies every file of `dir` into a fresh `image`: the directory exactly
/// as a crash at this instant would leave it (the mappings are MAP_SHARED,
/// so file reads see every store already made).
void copy_dir(const std::string& dir, const std::string& image) {
  fs::remove_all(image);
  fs::create_directories(image);
  for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
    fs::copy_file(de.path(), image + "/" + de.path().filename().string());
  }
}

ino_t inode(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

TEST_F(SegmentStoreFixture, SweepThatRewritesEveryUserReclaimsWithoutCopying) {
  const std::string dir = fresh_dir("sweep_reclaim");
  SegmentStoreParams p = small_params(dir);
  p.segment_bytes = kHeaderBytes + 4 * kRecordBytes;  // 4 records per segment
  p.compact_min_records = 8;
  constexpr std::uint64_t kUsers = 40;  // 10 segments per sweep
  auto store = open(p);
  store->reserve_users(kUsers);
  // Sweep v rewrites every user in order, as a nightly retrain does, and
  // empties each segment of sweep v - 1 as it passes it. Copying live
  // records would have compacted during sweep 2, when half the records
  // were dead.
  for (std::uint64_t v = 1; v <= 5; ++v) {
    for (std::uint64_t u = 0; u < kUsers; ++u) {
      store->append(u, table(1000 * v + u), v);
    }
  }
  EXPECT_EQ(store->compactions(), 0u);
  EXPECT_EQ(store->reclaimed_segments(), 4u * 10u);
  EXPECT_EQ(store->num_segments(), 10u);
  EXPECT_EQ(segment_files(dir), 10u);
  EXPECT_EQ(store->live_records(), kUsers);
  EXPECT_EQ(store->dead_records(), 0u);
  EXPECT_TRUE(fs::exists(dir + "/seg-w0.spare"));

  rl::QTable out(kStates, kActions);
  const auto expect_latest = [&](const SegmentStore& s) {
    for (std::uint64_t u = 0; u < kUsers; ++u) {
      ASSERT_EQ(s.load(u, out), std::optional<std::uint64_t>{5});
      EXPECT_TRUE(bit_equal(out, table(5000 + u))) << "user " << u;
    }
  };
  expect_latest(*store);
  store.reset();
  EXPECT_FALSE(fs::exists(dir + "/seg-w0.spare"));  // closed with the store
  auto reopened = open(p);
  EXPECT_EQ(reopened->scanned_records(), kUsers);  // one copy to scan
  expect_latest(*reopened);
}

TEST_F(SegmentStoreFixture, ASegmentEmptiedWhileTheSpareIsHeldIsUnlinked) {
  const std::string dir = fresh_dir("extra_spare");
  SegmentStoreParams p = small_params(dir);
  p.segment_bytes = kHeaderBytes + 4 * kRecordBytes;
  auto store = open(p);
  store->reserve_users(4);
  // Segment 0 ends with users 0 and 1 live, segment 1 with users 2 and 3.
  for (std::uint64_t u : {0, 1}) store->append(u, table(10 + u), 1);
  for (std::uint64_t u : {0, 1}) store->append(u, table(20 + u), 2);
  for (std::uint64_t u : {2, 3}) store->append(u, table(10 + u), 1);
  for (std::uint64_t u : {2, 3}) store->append(u, table(20 + u), 2);
  ASSERT_EQ(store->num_segments(), 2u);
  // Version 3 of all four fits segment 2 with no roll in between: user 1
  // empties segment 0 into the spare, then user 3 empties segment 1 while
  // the spare is held, so segment 1 is unlinked.
  for (std::uint64_t u : {0, 2, 1, 3}) store->append(u, table(30 + u), 3);
  EXPECT_EQ(store->reclaimed_segments(), 2u);
  EXPECT_EQ(store->num_segments(), 1u);
  EXPECT_FALSE(fs::exists(dir + "/seg-w0-000000.seg"));
  EXPECT_FALSE(fs::exists(dir + "/seg-w0-000001.seg"));
  EXPECT_EQ(util::wire::load_u64(read_file(dir + "/seg-w0.spare").data() + 16),
            0u);  // the spare is segment 0
  rl::QTable out(kStates, kActions);
  for (std::uint64_t u = 0; u < 4; ++u) {
    ASSERT_EQ(store->load(u, out), std::optional<std::uint64_t>{3});
    EXPECT_TRUE(bit_equal(out, table(30 + u))) << "user " << u;
  }
}

TEST_F(SegmentStoreFixture, CrashAtEveryRecycleStepKeepsEveryCommittedVersion) {
  constexpr std::uint64_t kUsers = 8;
  // The recycle seam fires four times per recycled roll: before the
  // scrub, mid-scrub, after the header write, after the rename.
  for (int step = 0; step < 4; ++step) {
    SCOPED_TRACE("crash at recycle step " + std::to_string(step));
    const std::string dir =
        fresh_dir(("recycle_crash" + std::to_string(step)).c_str());
    const std::string image = dir + "_image";
    SegmentStoreParams p = small_params(dir);
    p.segment_bytes = kHeaderBytes + 4 * kRecordBytes;
    auto store = open(p);
    store->reserve_users(kUsers);
    // Two sweeps: segments 0 and 1, then 2 and 3 (the recycled 0); the
    // last append empties segment 1 into the spare, and the tail is full.
    for (std::uint64_t v = 1; v <= 2; ++v) {
      for (std::uint64_t u = 0; u < kUsers; ++u) {
        store->append(u, table(1000 * v + u), v);
      }
    }
    ASSERT_EQ(store->reclaimed_segments(), 2u);
    ASSERT_TRUE(fs::exists(dir + "/seg-w0.spare"));

    int calls = 0;
    store->recycle_site().set_hook([&](const std::string&) {
      if (calls++ != step) return;
      copy_dir(dir, image);
      throw std::runtime_error("injected crash mid-recycle");
    });
    EXPECT_THROW(store->append(0, table(3000), 3), std::runtime_error);
    EXPECT_EQ(calls, step + 1);
    EXPECT_EQ(store->latest_version(0), std::optional<std::uint64_t>{2});

    // The crash image reopens cleanly with every committed version; the
    // spare never counts. After the rename it is a valid empty segment.
    rl::QTable out(kStates, kActions);
    {
      auto reader = open(small_params(image));
      for (std::uint64_t u = 0; u < kUsers; ++u) {
        ASSERT_EQ(reader->load(u, out), std::optional<std::uint64_t>{2})
            << "user " << u;
        EXPECT_TRUE(bit_equal(out, table(2000 + u))) << "user " << u;
      }
      EXPECT_EQ(reader->scanned_records(), kUsers);
      EXPECT_EQ(reader->num_segments(), step < 3 ? 2u : 3u);
    }
    EXPECT_EQ(fs::exists(image + "/seg-w0.spare"), step < 3);
    const SegmentStore::Info info = SegmentStore::inspect(image);
    EXPECT_EQ(info.records, kUsers);
    EXPECT_EQ(info.corrupt_records, 0u);
    EXPECT_EQ(info.max_version, 2u);
    EXPECT_EQ(info.segments, segment_files(image));

    // Crash over: the retry rolls (or, after the rename, appends to the
    // empty tail) and commits; a restart agrees.
    store->recycle_site().set_hook(nullptr);
    store->append(0, table(3000), 3);
    ASSERT_EQ(store->load(0, out), std::optional<std::uint64_t>{3});
    EXPECT_TRUE(bit_equal(out, table(3000)));
    store.reset();
    auto reopened = open(p);
    ASSERT_EQ(reopened->load(0, out), std::optional<std::uint64_t>{3});
    for (std::uint64_t u = 1; u < kUsers; ++u) {
      ASSERT_EQ(reopened->load(u, out), std::optional<std::uint64_t>{2})
          << "user " << u;
      EXPECT_TRUE(bit_equal(out, table(2000 + u))) << "user " << u;
    }
    fs::remove_all(image);
  }
}

TEST_F(SegmentStoreFixture, RecycledSegmentBytesEqualAFreshSegment) {
  std::vector<unsigned char> bytes[2];
  for (int recycled = 0; recycled < 2; ++recycled) {
    SCOPED_TRACE(recycled ? "recycled" : "fresh");
    const std::string dir =
        fresh_dir(recycled ? "recycled_bytes" : "fresh_bytes");
    SegmentStoreParams p = small_params(dir);
    p.segment_bytes = kHeaderBytes + 4 * kRecordBytes;
    auto store = open(p);
    store->reserve_users(4);
    // Sweep 1 fills segment 0; sweep 2 fills segment 1 and empties
    // segment 0 into the spare, whose previous life is a full segment.
    for (std::uint64_t v = 1; v <= 2; ++v) {
      for (std::uint64_t u = 0; u < 4; ++u) {
        store->append(u, table(10 * v + u), v);
      }
    }
    const std::string spare = dir + "/seg-w0.spare";
    ASSERT_TRUE(fs::exists(spare));
    const ino_t spare_inode = inode(spare);
    // A spare whose file is gone is dropped, and the roll creates a fresh
    // file under the same name instead.
    if (!recycled) fs::remove(spare);
    // The new life is one record, shorter than the old one.
    store->append(0, table(77), 3);
    const std::string seg2 = dir + "/seg-w0-000002.seg";
    if (recycled) {
      EXPECT_EQ(inode(seg2), spare_inode);
    }
    EXPECT_FALSE(fs::exists(spare));
    EXPECT_EQ(store->num_segments(), 2u);
    bytes[recycled] = read_file(seg2);
  }
  EXPECT_EQ(bytes[0].size(), kHeaderBytes + 4 * kRecordBytes);
  EXPECT_TRUE(bytes[1] == bytes[0]);
}

TEST_F(SegmentStoreFixture, LeftoverSpareIsIgnoredByOpenAndInspect) {
  const std::string dir = fresh_dir("leftover_spare");
  const std::string spare = dir + "/seg-w0.spare";
  SegmentStoreParams p = small_params(dir);
  p.segment_bytes = kHeaderBytes + 4 * kRecordBytes;
  std::vector<unsigned char> leftover;
  {
    auto store = open(p);
    store->reserve_users(4);
    for (std::uint64_t v = 1; v <= 2; ++v) {
      for (std::uint64_t u = 0; u < 4; ++u) {
        store->append(u, table(10 * v + u), v);
      }
    }
    leftover = read_file(spare);  // segment 0, emptied by sweep 2
  }
  EXPECT_FALSE(fs::exists(spare));  // the spare goes with the store
  // A crash at close would have left it: put it back with its previous
  // life intact, a valid header and four checksummed records.
  write_file(spare, leftover);

  const SegmentStore::Info info = SegmentStore::inspect(dir);
  EXPECT_EQ(info.segments, 1u);
  EXPECT_EQ(info.records, 4u);
  EXPECT_EQ(info.max_version, 2u);
  auto store = open(p);
  EXPECT_EQ(store->num_segments(), 1u);
  EXPECT_EQ(store->scanned_records(), 4u);
  rl::QTable out(kStates, kActions);
  for (std::uint64_t u = 0; u < 4; ++u) {
    ASSERT_EQ(store->load(u, out), std::optional<std::uint64_t>{2});
    EXPECT_TRUE(bit_equal(out, table(20 + u))) << "user " << u;
  }
  // Ignored, not removed: a live store on the same directory may own it.
  EXPECT_EQ(read_file(spare), leftover);

  // Sweep 3 empties segment 1, and its reclaim renames over the leftover.
  store->reserve_users(4);
  for (std::uint64_t u = 0; u < 4; ++u) store->append(u, table(30 + u), 3);
  EXPECT_EQ(store->reclaimed_segments(), 1u);
  EXPECT_EQ(util::wire::load_u64(read_file(spare).data() + 16), 1u);  // seq
  store.reset();
  EXPECT_FALSE(fs::exists(spare));
}

// ---------------------------------------------------------------------------
// PolicyStore over a SegmentStore: the serving tier's persistence path.
// ---------------------------------------------------------------------------

namespace T = adl::tools;

struct SegmentPolicyFixture : ::testing::Test {
  adl::AdlLibrary library;

  planning::RoutineLearner trained(std::uint64_t seed = 5) {
    planning::RoutineLearner learner(library.tea_making(), util::Rng(seed));
    const std::vector<adl::StepId> routine{T::kTeaBox, T::kElectricPot,
                                           T::kKettle, T::kTeaCup};
    for (int i = 0; i < 80; ++i) learner.train_episode(routine);
    return learner;
  }

  std::string fresh_dir(const char* name) {
    const std::string dir = ::testing::TempDir() + "/coreda_segpol_" + name;
    fs::remove_all(dir);
    return dir;
  }

  static SegmentStoreParams on_disk(const std::string& dir,
                                    std::size_t writers = 1) {
    SegmentStoreParams params;
    params.dir = dir;
    params.writers = writers;
    return params;
  }
};

TEST_F(SegmentPolicyFixture, ServeEngineDrainsIdenticallyOverEitherBackend) {
  planning::RoutineLearner donor = trained();
  PolicyStore memory_store(donor);
  PolicyStore seg_store(donor, on_disk(fresh_dir("segments"), 3));

  ServeEngineParams engine_params;
  engine_params.pool.slots = 3;
  ServeEngine memory_engine(library, library.tea_making(), memory_store,
                            engine_params);
  ServeEngine seg_engine(library, library.tea_making(), seg_store,
                         engine_params);
  for (int u = 0; u < 9; ++u) {
    const patient::PatientProfile profile =
        patient::PatientProfile::with_severity("user" + std::to_string(u),
                                               0.1 * u / 9.0 + 0.2);
    memory_engine.add_user(profile);
    seg_engine.add_user(profile);
  }
  for (int round = 0; round < 4; ++round) {
    for (UserId u = 0; u < 9; ++u) {
      memory_engine.enqueue(u, 2);
      seg_engine.enqueue(u, 2);
    }
  }
  exec::TrialRunner runner(3);
  const ServeReport memory_report = memory_engine.drain(runner);
  const ServeReport seg_report = seg_engine.drain(runner);

  EXPECT_EQ(memory_report.sessions, seg_report.sessions);
  EXPECT_EQ(memory_report.checksum, seg_report.checksum);
  EXPECT_EQ(memory_report.prompts, seg_report.prompts);
  EXPECT_EQ(memory_report.pool_hits, seg_report.pool_hits);
  EXPECT_EQ(memory_report.retrain.jobs, seg_report.retrain.jobs);
  // Only a staged retrain appends; sessions write nothing.
  EXPECT_EQ(seg_store.segments()->appends(), seg_report.retrain.jobs);
  for (UserId u = 0; u < 9; ++u) {
    EXPECT_EQ(memory_store.version(u), seg_store.version(u)) << "user " << u;
  }
}

TEST_F(SegmentPolicyFixture, DrainWithNoRetrainDueAppendsNoRecord) {
  planning::RoutineLearner donor = trained();
  const std::string dir = fresh_dir("read_only");
  PolicyStore store(donor, on_disk(dir, 2));
  ServeEngineParams params;
  params.pool.slots = 2;
  ServeEngine engine(library, library.tea_making(), store, params);
  for (int u = 0; u < 6; ++u) {
    engine.add_user(patient::PatientProfile::with_severity("U", 0.2));
  }
  exec::TrialRunner runner(2);
  ServeReport report;
  for (int round = 0; round < 3; ++round) {
    for (UserId u = 0; u < 6; ++u) engine.enqueue(u, 2);
    report = engine.drain(runner);
  }
  EXPECT_EQ(report.sessions, 36u);
  EXPECT_EQ(report.retrain.jobs, 0u);
  EXPECT_EQ(store.segments()->appends(), 0u);
  for (UserId u = 0; u < 6; ++u) EXPECT_EQ(store.version(u), 1u) << u;
  store.flush_all();  // nothing is dirty, so nothing lands
  EXPECT_EQ(SegmentStore::inspect(dir).records, 0u);
}

TEST_F(SegmentPolicyFixture, DrainAppendsOneRecordPerStagedRetrain) {
  ChaosServeParams p;
  p.users = 8;
  p.drifted = 2;
  p.slots = 2;
  p.chaos_rounds = 0;
  p.tail_rounds = 8;
  p.dir = fresh_dir("retrain_appends");
  ChaosServeSoak soak(p, faults::FaultPlan{});
  exec::TrialRunner runner(2);
  const ChaosServeResult result = soak.run(runner);
  const PolicyStore& store = soak.engine().store();
  const std::uint64_t jobs = result.report.retrain.jobs;
  ASSERT_GE(jobs, 2u);
  EXPECT_EQ(result.report.retrain.aborted, 0u);  // an empty plan
  EXPECT_EQ(store.segments()->appends(), jobs);
  std::uint64_t staged = 0;
  for (UserId u = 0; u < p.users; ++u) {
    staged += store.version(u) - 1;
    EXPECT_EQ(store.segments()->latest_version(u).has_value(),
              store.version(u) > 1)
        << "user " << u;
  }
  EXPECT_EQ(staged, jobs);
  EXPECT_EQ(result.reopen_mismatches, 0u);
}

TEST_F(SegmentPolicyFixture, ServeEngineRejectsAWriterCountOtherThanItsSlots) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor, on_disk(fresh_dir("writers"), 2));
  ServeEngineParams params;
  params.pool.slots = 3;
  const adl::Adl& tea = library.tea_making();
  EXPECT_THROW((void)ServeEngine(library, tea, store, params),
               std::invalid_argument);
  params.pool.slots = 2;
  EXPECT_NO_THROW((void)ServeEngine(library, tea, store, params));
  // A memory-only store has no writer lanes to match.
  PolicyStore memory_store(donor);
  params.pool.slots = 3;
  EXPECT_NO_THROW((void)ServeEngine(library, tea, memory_store, params));
}

TEST_F(SegmentPolicyFixture, RestoreReadsTheNewestFlushedRecordAfterRestart) {
  planning::RoutineLearner donor = trained();
  const std::string dir = fresh_dir("restore");
  rl::QTable staged_q = donor.q();
  staged_q.set(0, 0, 1234.5);
  {
    PolicyStore store(donor, on_disk(dir));
    const UserId u = store.add_user();
    store.stage(u, donor.q());  // version 2, appended at once
    store.stage(u, staged_q);   // version 3, a one-row delta
  }
  planning::RoutineLearner same_donor = trained();
  PolicyStore reader(same_donor, on_disk(dir));
  const UserId u = reader.add_user();
  EXPECT_EQ(reader.restore(u), std::optional<std::uint64_t>{3});
  EXPECT_TRUE(bit_equal(reader.q(u), staged_q));
  // An unknown user restores to nothing and keeps the reference table.
  const UserId fresh = reader.add_user();
  EXPECT_EQ(reader.restore(fresh), std::nullopt);
  EXPECT_TRUE(bit_equal(reader.q(fresh), same_donor.q()));
}

TEST_F(SegmentPolicyFixture, CrashInjectedStageKeepsCommittedVersionReadable) {
  planning::RoutineLearner donor = trained();
  PolicyStore store(donor, on_disk(fresh_dir("crash")));
  const UserId u = store.add_user();
  store.stage(u, donor.q());  // version 2 committed
  SegmentStore& segments = *store.segments();
  ASSERT_EQ(segments.latest_version(u), std::optional<std::uint64_t>{2});

  segments.pre_publish_site().set_hook([](const std::string&) {
    throw std::runtime_error("injected crash before the magic publish");
  });
  EXPECT_THROW(store.stage(u, donor.q()), std::runtime_error);
  EXPECT_EQ(store.version(u), 3u);  // the in-memory entry did advance
  EXPECT_EQ(segments.latest_version(u), std::optional<std::uint64_t>{2});

  // Crash over: the dirty entry flushes on the next attempt.
  segments.pre_publish_site().set_hook(nullptr);
  store.flush(u);
  EXPECT_EQ(segments.latest_version(u), std::optional<std::uint64_t>{3});
  EXPECT_EQ(segments.appends(), 2u);  // the crashed attempt published none
}

}  // namespace
}  // namespace coreda::serve
