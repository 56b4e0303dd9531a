// A user's policy set — one Q table per ADL of a whole home — persisted as
// ONE SegmentStore record:
//
//   * every table round-trips bit for bit, as an anchor and through deltas
//     whose changed rows sit in tables of different widths, on either side
//     of a table boundary, and again after a reopen;
//   * a flipped byte anywhere in a record, or a record cut short, rejects
//     the whole set: restore throws and no table of the entry changes, and
//     a reopen serves the previous set;
//   * a store reopened with missing, extra or reordered ADLs, or another
//     vocabulary, is refused, and the refusal writes nothing;
//   * a crash at each append seam — the publish of an anchor or a delta,
//     and each step of a recycled segment roll — leaves the previous set
//     loadable, live and after a restart;
//   * a one-table store writes the segment bytes store format 2 wrote.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <vector>

#include "adl/library.hpp"
#include "core/home.hpp"
#include "serve/policy_store.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace coreda::serve {
namespace {

namespace fs = std::filesystem;
namespace wire = util::wire;

constexpr std::size_t kHeaderBytes = 40;

bool bit_equal(const rl::QTable& a, const rl::QTable& b) {
  if (a.num_states() != b.num_states() ||
      a.num_actions() != b.num_actions()) {
    return false;
  }
  for (rl::StateId s = 0; s < a.num_states(); ++s) {
    if (std::memcmp(a.row(s).data(), b.row(s).data(),
                    a.row(s).size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

bool bit_equal(std::span<const rl::QTable> a, std::span<const rl::QTable> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (!bit_equal(a[t], b[t])) return false;
  }
  return true;
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

/// Overwrites one byte of a file in place: a live store's MAP_SHARED
/// mapping sees it at once, as it would see bit rot.
void poke(const std::string& path, std::size_t off, unsigned char byte) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(off));
  f.put(static_cast<char>(byte));
}

/// Every file of `dir` with its bytes.
std::map<std::string, std::vector<unsigned char>> snapshot(
    const std::string& dir) {
  std::map<std::string, std::vector<unsigned char>> files;
  for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
    files[de.path().filename().string()] = read_file(de.path().string());
  }
  return files;
}

struct PolicySetStoreFixture : ::testing::Test {
  adl::AdlLibrary library;
  /// A whole home: its four untrained planners give the set's shapes and
  /// vocabularies (Hand-washing's table is 16 x 6, the others 25 x 8).
  core::HomeDeployment home{library};

  std::string fresh_dir(const char* name) {
    const std::string dir = ::testing::TempDir() + "/coreda_set_" + name;
    fs::remove_all(dir);
    return dir;
  }

  static PolicyStoreParams on_disk(const std::string& dir) {
    PolicyStoreParams params;
    params.flush_every = 1;  // every stage appends a record
    params.segments.dir = dir;
    return params;
  }

  std::vector<TableSchema> schema() const {
    std::vector<TableSchema> tables;
    for (const adl::Adl& adl : home.adls()) {
      const planning::RoutineLearner& l = home.learner(adl.name());
      tables.push_back(TableSchema{l.state_codec().symbols(),
                                   l.action_codec().tools(),
                                   l.q().num_states(), l.q().num_actions()});
    }
    return tables;
  }

  /// A set of the home's shapes with adversarial values (signed zeros,
  /// denormals, large magnitudes) drawn from `seed`.
  std::vector<rl::QTable> random_set(std::uint64_t seed) const {
    util::Rng rng(seed);
    std::vector<rl::QTable> set;
    for (const adl::Adl& adl : home.adls()) {
      const rl::QTable& shape = home.learner(adl.name()).q();
      rl::QTable q(shape.num_states(), shape.num_actions());
      for (rl::StateId s = 0; s < q.num_states(); ++s) {
        for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
          const double pick = rng.uniform();
          q.set(s, a,
                pick < 0.1   ? -0.0
                : pick < 0.2 ? 5e-324
                             : rng.uniform(-1e300, 1e300));
        }
      }
      set.push_back(std::move(q));
    }
    return set;
  }

  static std::vector<const rl::QTable*> pointers(
      const std::vector<rl::QTable>& set) {
    std::vector<const rl::QTable*> out;
    for (const rl::QTable& q : set) out.push_back(&q);
    return out;
  }

  /// Changes one row at each side of every table boundary: the last row of
  /// each table and the first row of the next, so a delta carries rows of
  /// widths 8 and 6 back to back.
  static void touch_boundaries(std::vector<rl::QTable>& set, double value) {
    for (rl::QTable& q : set) {
      q.set(0, 0, value);
      q.set(static_cast<rl::StateId>(q.num_states() - 1),
            static_cast<rl::ActionId>(q.num_actions() - 1), -value);
    }
  }
};

TEST_F(PolicySetStoreFixture, EveryTableRoundTripsBitForBit) {
  const std::string dir = fresh_dir("roundtrip");
  std::vector<rl::QTable> a = random_set(1);
  std::vector<rl::QTable> b = random_set(2);
  {
    PolicyStore store(home, on_disk(dir));
    ASSERT_EQ(store.num_tables(), 4u);
    const UserId u0 = store.add_user("A");
    const UserId u1 = store.add_user("B");
    store.stage(u0, pointers(a));  // anchors
    store.stage(u1, pointers(b));
    touch_boundaries(a, 12.5);
    store.stage(u0, pointers(a));  // a delta across every table boundary
    ASSERT_EQ(store.segments()->anchor_records_written(), 2u);
    ASSERT_EQ(store.segments()->delta_records_written(), 1u);
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_TRUE(bit_equal(store.q(u0, t), a[t])) << "table " << t;
    }
  }
  PolicyStore reopened(home, on_disk(dir));
  reopened.add_user("A");
  reopened.add_user("B");
  EXPECT_EQ(reopened.restore_all(), 2u);
  EXPECT_EQ(reopened.rejected_records(), 0u);
  EXPECT_EQ(reopened.version(0), 3u);
  EXPECT_EQ(reopened.version(1), 2u);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_TRUE(bit_equal(reopened.q(0, t), a[t])) << "table " << t;
    EXPECT_TRUE(bit_equal(reopened.q(1, t), b[t])) << "table " << t;
  }
  // The raw store agrees, and refuses a set of the wrong size or shape.
  std::vector<rl::QTable> out = random_set(9);
  EXPECT_EQ(reopened.segments()->load(0, out),
            std::optional<std::uint64_t>{3});
  EXPECT_TRUE(bit_equal(out, a));
  std::vector<rl::QTable> short_set(out.begin(), out.begin() + 3);
  EXPECT_THROW(reopened.segments()->load(0, short_set), std::runtime_error);
  std::swap(out[0], out[2]);  // 25x8 where 16x6 belongs
  EXPECT_THROW(reopened.segments()->append(0, out, 4), std::runtime_error);
  fs::remove_all(dir);
}

TEST_F(PolicySetStoreFixture, FlippedByteAnywhereRejectsTheWholeSet) {
  const std::string dir = fresh_dir("flip");
  std::vector<rl::QTable> set = random_set(3);
  PolicyStore store(home, on_disk(dir));
  const UserId u = store.add_user("A");
  store.stage(u, pointers(set));  // anchor at 40
  touch_boundaries(set, 7.0);
  store.stage(u, pointers(set));  // delta behind it
  const std::string seg = dir + "/seg-w0-000000.seg";
  const std::vector<unsigned char> clean = read_file(seg);
  const std::size_t anchor_len =
      wire::load_u64(clean.data() + kHeaderBytes + 8);
  const std::size_t delta_len =
      wire::load_u64(clean.data() + kHeaderBytes + anchor_len + 8);
  const std::size_t end = kHeaderBytes + anchor_len + delta_len;
  ASSERT_EQ(anchor_len, 8u * (6 + 3 * 25 * 8 + 16 * 6));

  // Every byte of both records: the newest set's chain includes the anchor.
  for (std::size_t off = kHeaderBytes; off < end; ++off) {
    poke(seg, off, clean[off] ^ 0x20);
    EXPECT_THROW(store.restore(u), std::runtime_error) << "offset " << off;
    EXPECT_TRUE(bit_equal(store.q(u, 0), set[0]) &&
                bit_equal(store.q(u, 1), set[1]) &&
                bit_equal(store.q(u, 2), set[2]) &&
                bit_equal(store.q(u, 3), set[3]))
        << "offset " << off;
    poke(seg, off, clean[off]);
  }
  EXPECT_EQ(store.restore(u), std::optional<std::uint64_t>{3});
  fs::remove_all(dir);
}

TEST_F(PolicySetStoreFixture, TruncatedRecordRejectsTheWholeSet) {
  const std::string dir = fresh_dir("truncated");
  const std::vector<rl::QTable> first = random_set(4);
  std::vector<rl::QTable> second = first;
  touch_boundaries(second, -3.0);
  std::size_t delta_off = 0, delta_len = 0;
  const std::string seg = dir + "/seg-w0-000000.seg";
  {
    PolicyStore store(home, on_disk(dir));
    const UserId u = store.add_user("A");
    store.stage(u, pointers(first));
    store.stage(u, pointers(second));
    const std::vector<unsigned char> bytes = read_file(seg);
    delta_off = kHeaderBytes + wire::load_u64(bytes.data() + kHeaderBytes + 8);
    delta_len = wire::load_u64(bytes.data() + delta_off + 8);
    // Live: the newest record loses its second half (a write cut short).
    for (std::size_t i = delta_off + delta_len / 2; i < delta_off + delta_len;
         ++i) {
      poke(seg, i, 0);
    }
    EXPECT_THROW(store.restore(u), std::runtime_error);
    EXPECT_TRUE(bit_equal(store.q(u, 0), second[0]));
    EXPECT_TRUE(bit_equal(store.q(u, 3), second[3]));
  }
  // Reopened, the scan stops at the cut record: the previous set serves.
  {
    PolicyStore reopened(home, on_disk(dir));
    reopened.add_user("A");
    EXPECT_EQ(reopened.restore(0), std::optional<std::uint64_t>{2});
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_TRUE(bit_equal(reopened.q(0, t), first[t])) << "table " << t;
    }
  }
  // A segment file cut inside the anchor, header following the cut: no
  // set survives, and the entry keeps the reference set.
  std::vector<unsigned char> bytes = read_file(seg);
  bytes.resize(kHeaderBytes + 100);
  wire::store_u64(bytes.data() + 24, bytes.size());
  write_file(seg, bytes);
  PolicyStore reopened(home, on_disk(dir));
  reopened.add_user("A");
  EXPECT_EQ(reopened.restore(0), std::nullopt);
  EXPECT_TRUE(bit_equal(reopened.q(0, 2), home.learner("Hand-washing").q()));
  fs::remove_all(dir);
}

/// Writes one set for user 0 into a fresh store at `dir`, then checks that
/// each of `others` is refused over it, that the refusals wrote nothing, and
/// that the home's own list still opens and serves the set.
void expect_adl_lists_refused(const PolicySetStoreFixture& f,
                              const std::string& dir,
                              std::initializer_list<std::vector<TableSchema>>
                                  others) {
  SegmentStoreParams params;
  params.dir = dir;
  {
    SegmentStore store(f.schema(), params);
    store.reserve_users(1);
    store.append(0, f.random_set(5), 1);
  }
  const auto before = snapshot(dir);
  for (const std::vector<TableSchema>& other : others) {
    EXPECT_THROW(SegmentStore(other, params), std::runtime_error);
  }
  EXPECT_EQ(snapshot(dir), before);
  SegmentStore store(f.schema(), params);
  std::vector<rl::QTable> out = f.random_set(6);
  EXPECT_EQ(store.load(0, out), std::optional<std::uint64_t>{1});
  EXPECT_TRUE(bit_equal(out, f.random_set(5)));
}

TEST_F(PolicySetStoreFixture, ReopenWithMissingOrUnknownAdlsIsRefused) {
  const std::string dir = fresh_dir("adl_set");
  std::vector<TableSchema> fewer = schema();
  fewer.pop_back();
  std::vector<TableSchema> more = schema();
  more.push_back(more[1]);
  const std::vector<TableSchema> one{schema()[1]};
  expect_adl_lists_refused(*this, dir, {fewer, more, one});
  // A one-ADL deployment's store over the whole home's directory.
  const auto before = snapshot(dir);
  planning::RoutineLearner tea(library.tea_making(), util::Rng(1));
  PolicyStoreParams one_table;
  one_table.segments.dir = dir;
  EXPECT_THROW(PolicyStore(tea, one_table), std::runtime_error);
  EXPECT_EQ(snapshot(dir), before);
  fs::remove_all(dir);
}

TEST_F(PolicySetStoreFixture, ReopenWithReorderedAdlsIsRefused) {
  // Tables are positional in store.meta: the same ADLs in another order
  // would serve each table's rows under another ADL's vocabulary.
  const std::string dir = fresh_dir("adl_order");
  std::vector<TableSchema> swapped = schema();
  std::swap(swapped[1], swapped[3]);
  std::vector<TableSchema> reversed = schema();
  std::reverse(reversed.begin(), reversed.end());
  expect_adl_lists_refused(*this, dir, {swapped, reversed});
  fs::remove_all(dir);
}

TEST_F(PolicySetStoreFixture, ReopenWithAnotherVocabularyIsRefused) {
  const std::string dir = fresh_dir("vocabulary");
  SegmentStoreParams params;
  params.dir = dir;
  { SegmentStore store(schema(), params); }
  const auto before = snapshot(dir);
  std::vector<TableSchema> tools = schema();
  tools[2].tools[1] = adl::tools::kTowel;  // one tool id of Hand-washing
  std::vector<TableSchema> steps = schema();
  steps[0].steps.back() = adl::tools::kKettle;
  std::vector<TableSchema> shape = schema();
  shape[3].num_actions = 6;
  for (const std::vector<TableSchema>& other : {tools, steps, shape}) {
    EXPECT_THROW(SegmentStore(other, params), std::runtime_error);
  }
  EXPECT_EQ(snapshot(dir), before);
  fs::remove_all(dir);
}

TEST_F(PolicySetStoreFixture, CrashAtEachAppendSeamKeepsThePreviousSet) {
  // One user, a segment of three anchors, a rebase every second record:
  // versions alternate anchor / delta, and every third anchor rolls onto
  // the spare the previous roll reclaimed.
  struct Crash {};
  constexpr std::uint64_t kVersions = 12;
  std::vector<std::vector<rl::QTable>> sets{random_set(10)};
  for (std::uint64_t v = 1; v < kVersions; ++v) {
    sets.push_back(sets.back());
    touch_boundaries(sets.back(), static_cast<double>(v));
  }
  const std::string dir = fresh_dir("crash");
  const std::string image = fresh_dir("crash_image");
  SegmentStoreParams params;
  params.dir = dir;
  params.rebase_every = 2;
  params.segment_bytes = kHeaderBytes + 3 * 8 * (6 + 3 * 25 * 8 + 16 * 6);
  std::size_t crashes = 0, recycle_crashes = 0;
  for (std::uint64_t v = 1; v <= kVersions; ++v) {
    // Seam 0 is the publish; seams 1-4 the steps of a recycled roll.
    for (int seam = 0; seam < 5; ++seam) {
      SCOPED_TRACE("version " + std::to_string(v) + " seam " +
                   std::to_string(seam));
      fs::remove_all(dir);
      SegmentStore store(schema(), params);
      store.reserve_users(1);
      for (std::uint64_t done = 1; done < v; ++done) {
        store.append(0, sets[done - 1], done);
      }
      int recycle_step = 0;
      const auto crash = [](const std::string&) { throw Crash{}; };
      if (seam == 0) {
        store.pre_publish_site().set_hook(crash);
      } else {
        store.recycle_site().set_hook([&](const std::string& path) {
          if (++recycle_step == seam) crash(path);
        });
      }
      try {
        store.append(0, sets[v - 1], v);
        continue;  // this append never reached the seam
      } catch (const Crash&) {
      }
      ++crashes;
      recycle_crashes += seam > 0 ? 1 : 0;
      // Live: the previous set (or nothing before the first).
      std::vector<rl::QTable> out = random_set(99);
      const std::optional<std::uint64_t> expect =
          v == 1 ? std::nullopt : std::optional<std::uint64_t>{v - 1};
      EXPECT_EQ(store.load(0, out), expect);
      if (expect) {
        EXPECT_TRUE(bit_equal(out, sets[v - 2]));
      }
      // Restarted from the directory as the crash left it.
      fs::remove_all(image);
      fs::copy(dir, image);
      SegmentStoreParams reopen = params;
      reopen.dir = image;
      SegmentStore restarted(schema(), reopen);
      EXPECT_EQ(restarted.load(0, out), expect);
      if (expect) {
        EXPECT_TRUE(bit_equal(out, sets[v - 2]));
      }
      // Cleared seams: the same append now lands.
      store.pre_publish_site().set_hook({});
      store.recycle_site().set_hook({});
      store.append(0, sets[v - 1], v);
      EXPECT_EQ(store.load(0, out), std::optional<std::uint64_t>{v});
      EXPECT_TRUE(bit_equal(out, sets[v - 1]));
    }
  }
  EXPECT_EQ(crashes - recycle_crashes, kVersions);  // every publish
  EXPECT_GE(recycle_crashes, 4u);  // all four steps of a recycled roll
  fs::remove_all(dir);
  fs::remove_all(image);
}

TEST_F(PolicySetStoreFixture, OneTableStoreWritesFormatTwoSegmentBytes) {
  // Anchors, deltas, a roll and a reclaimed segment of a one-table store.
  // The digest of the segment files was recorded from the store format 2
  // writer on the same appends: generalizing the record to a set changed
  // no segment byte.
  const std::string dir = fresh_dir("one_table");
  const planning::RoutineLearner& tea = home.learner("Tea-making");
  SegmentStoreParams params;
  params.dir = dir;
  params.segment_bytes = 8192;
  params.rebase_every = 4;
  {
    SegmentStore store(tea.state_codec().symbols(), tea.action_codec().tools(),
                       tea.q().num_states(), tea.q().num_actions(), params);
    store.reserve_users(3);
    util::Rng rng(17);
    std::vector<rl::QTable> q(3, rl::QTable(25, 8));
    for (std::uint64_t v = 1; v <= 8; ++v) {
      for (std::uint64_t u = 0; u < 3; ++u) {
        const std::size_t rows = v == 1 || v == 5 ? 25 : 2;
        for (std::size_t r = 0; r < rows; ++r) {
          const auto s = static_cast<rl::StateId>(rng() % 25);
          for (rl::ActionId a = 0; a < 8; ++a) {
            q[u].set(s, a, rng.uniform(-50.0, 50.0));
          }
        }
        store.append(u, q[u], v);
      }
    }
    ASSERT_EQ(store.delta_records_written(), 18u);
    ASSERT_EQ(store.reclaimed_segments(), 1u);  // a roll emptied seg 0
  }
  std::vector<unsigned char> segments;
  std::size_t files = 0;
  for (const auto& [name, bytes] : snapshot(dir)) {
    if (name == "store.meta") {
      EXPECT_EQ(wire::load_u64(bytes.data() + 8), 3u);  // format 3
      EXPECT_EQ(wire::load_u64(bytes.data() + 24), 1u);  // one table
      continue;
    }
    segments.insert(segments.end(), bytes.begin(), bytes.end());
    ++files;
  }
  EXPECT_EQ(files, 1u);
  EXPECT_EQ(wire::checksum64(segments.data(), segments.size()),
            0xda8875c182bbd15fULL);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace coreda::serve
