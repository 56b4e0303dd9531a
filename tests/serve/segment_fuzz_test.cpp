// Seeded mutation fuzzing of the segment store's scan-on-open (ctest label
// `fuzz`; a fixed budget of 2,000 mutations per corpus, so every run
// replays the same inputs). The mmap path trusts on-disk record lengths,
// parent offsets, row counts, row indices, user ids and the header's
// advisory record count; the record checksum is its last line of defence,
// so the structural checks must stand in front of it. The corpus is a
// two-writer store of an 8 x 4 table (both lanes hold records, so the scan
// verifies the segments on parallel jobs) after full-table sweeps that
// reclaimed and recycled segments, then interleaved anchor/delta chains:
// several segment files per lane, recycled ones among them, plus a
// leftover spare holding a previous life's records (as a crash before a
// recycled roll's scrub leaves it).
//
// Each iteration picks one file and applies one mutation:
//
//   * a byte flip anywhere in the file, header included;
//   * an overwritten record length, parent_off (including a parent moved
//     off the 8-byte grid), parent_version, n_rows, q_count, delta row
//     index (the first, or any row moved to the table's first, last or
//     one-past-last row) or user id,
//     re-sealed with a valid record checksum — a forgery that only the
//     structural checks can stop;
//   * an overwritten advisory record count;
//   * truncation at a random offset, with or without the header's
//     file_bytes following it.
//
// Every reopen either throws std::runtime_error or succeeds. After a
// successful open, load() of every indexed user throws std::runtime_error
// or returns a version no newer than the one committed for that user —
// bit-equal to the table committed at that version unless the mutation was
// a forgery — and the store still accepts and serves a fresh append.
// SegmentStore::inspect reads the same bytes without crashing and counts
// exactly the records open indexed. The spare is never parsed, so a
// mutated spare changes nothing: open serves every committed version.
// tools/run_asan.sh runs this under ASan+UBSan with the rest of the
// suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "serve/segment_store.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace coreda::serve {
namespace {

namespace fs = std::filesystem;
namespace wire = util::wire;

constexpr std::uint64_t kUsers = 5;
constexpr int kMutations = 2000;
constexpr std::size_t kHeaderBytes = 40;
/// Full-table sweeps before the delta chains: enough to empty, reclaim and
/// recycle segments.
constexpr std::uint64_t kSweeps = 10;
/// Writer lanes of the corpus store.
constexpr std::size_t kWriters = 2;

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

bool bit_equal(const rl::QTable& a, const rl::QTable& b) {
  for (rl::StateId s = 0; s < a.num_states(); ++s) {
    if (std::memcmp(a.row(s).data(), b.row(s).data(), a.row(s).size_bytes()) !=
        0) {
      return false;
    }
  }
  return true;
}

struct SegmentScanFuzz : ::testing::Test {
  struct Record {
    std::size_t off;
    std::size_t len;
    bool anchor;
  };
  struct File {
    std::string name;
    std::vector<unsigned char> bytes;
    std::vector<Record> records;  ///< the valid prefix, in order
  };

  /// One directory per test: ctest runs the corpora concurrently.
  std::string dir =
      ::testing::TempDir() + "/coreda_seg_fuzz_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  TableSchema table;
  std::size_t file_bytes = 0;
  /// The table's first and last rows and the row count itself: where a
  /// forged row index does the most harm.
  std::vector<std::uint64_t> boundary_rows;
  std::vector<unsigned char> meta;
  std::vector<File> files;  ///< segment files by name, then the spare
  std::string spare_name;   ///< the spare's file name (its writer's)
  std::size_t records = 0;  ///< valid records across the segment files
  std::vector<std::uint64_t> committed = std::vector<std::uint64_t>(kUsers);
  std::map<std::pair<std::uint64_t, std::uint64_t>, rl::QTable> history;

  SegmentStoreParams params() const {
    SegmentStoreParams p;
    p.dir = dir;
    p.segment_bytes = file_bytes;
    p.rebase_every = 4;
    p.writers = kWriters;
    return p;
  }

  std::unique_ptr<SegmentStore> open() const {
    return std::make_unique<SegmentStore>(table.steps, table.tools,
                                          table.num_states, table.num_actions,
                                          params());
  }

  rl::QTable empty_table() const {
    return rl::QTable(table.num_states, table.num_actions);
  }

  /// Sets every value of row `row`.
  static void set_row(rl::QTable& q, std::uint64_t row, util::Rng& rng) {
    for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
      q.set(static_cast<rl::StateId>(row), a, rng.uniform(-100.0, 100.0));
    }
  }

  /// Writes the corpus for `schema`, with segments of `segment_bytes`:
  /// kSweeps full-table sweeps (all anchors), then user u commits kSweeps
  /// + 1..5+u, each changing one row, so chains run anchor, delta, delta,
  /// delta, anchor, ... interleaved across users.
  void build(TableSchema schema, std::size_t segment_bytes) {
    table = std::move(schema);
    file_bytes = segment_bytes;
    boundary_rows = {0, table.num_states - 1, table.num_states};
    fs::remove_all(dir);
    std::vector<unsigned char> spare_life;
    {
      auto store = open();
      store->reserve_users(kUsers);
      // Before each recycled roll's scrub, keep the spare as it is: the
      // previous life intact.
      int recycle_steps = 0;
      store->recycle_site().set_hook([&](const std::string& path) {
        if (recycle_steps++ % 4 == 0) {
          spare_life = read_file(path);
          spare_name = fs::path(path).filename().string();
        }
      });
      std::vector<rl::QTable> tables(kUsers, empty_table());
      util::Rng rng(2024);
      const auto commit = [&](std::uint64_t u, std::uint64_t version) {
        store->append(u, tables[u], version);
        history.emplace(std::make_pair(u, version), tables[u]);
        committed[u] = version;
      };
      for (std::uint64_t version = 1; version <= kSweeps; ++version) {
        for (std::uint64_t u = 0; u < kUsers; ++u) {
          for (std::uint64_t r = 0; r < table.num_states; ++r) {
            set_row(tables[u], r, rng);
          }
          commit(u, version);
        }
      }
      for (std::uint64_t round = 1; round <= 5 + kUsers - 1; ++round) {
        for (std::uint64_t u = 0; u < kUsers; ++u) {
          if (round > 5 + u) continue;
          set_row(tables[u], rng() % table.num_states, rng);
          commit(u, kSweeps + round);
        }
      }
      ASSERT_GE(recycle_steps / 4, 2);  // recycled rolls
      ASSERT_GE(store->num_segments(), 2u);
      ASSERT_GT(store->delta_records_written(), 0u);
      ASSERT_GT(store->anchor_records_written(), 0u);
    }
    // Closing unlinked the spare; a crash before the last recycled roll's
    // scrub would have left it as captured.
    ASSERT_FALSE(spare_life.empty());
    write_file(dir + "/" + spare_name, spare_life);
    meta = read_file(dir + "/store.meta");
    for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
      const std::string name = de.path().filename().string();
      if (name == "store.meta") continue;
      File f{name, read_file(de.path().string()), {}};
      ASSERT_EQ(f.bytes.size(), file_bytes) << name;
      std::size_t off = kHeaderBytes;
      while (off + 56 <= f.bytes.size() &&
             wire::load_u64(f.bytes.data() + off) != 0) {
        const bool anchor =
            std::memcmp(f.bytes.data() + off, kAnchorMagic, 8) == 0;
        const std::size_t len = wire::load_u64(f.bytes.data() + off + 8);
        f.records.push_back({off, len, anchor});
        off += len;
      }
      ASSERT_FALSE(f.records.empty()) << name;
      if (name != spare_name) records += f.records.size();
      files.push_back(std::move(f));
    }
    std::sort(files.begin(), files.end(),
              [this](const File& a, const File& b) {
                return (a.name == spare_name) != (b.name == spare_name)
                           ? b.name == spare_name
                           : a.name < b.name;
              });
    ASSERT_EQ(files.back().name, spare_name);
    // Every lane holds records, so the scan verifies on parallel jobs.
    for (std::size_t w = 0; w < kWriters; ++w) {
      const std::string lane = "seg-w" + std::to_string(w) + "-";
      ASSERT_TRUE(std::any_of(files.begin(), files.end() - 1,
                              [&lane](const File& f) {
                                return f.name.rfind(lane, 0) == 0;
                              }))
          << lane;
    }
  }

  /// A replacement for a field: boundary values, near misses, and noise.
  static std::uint64_t mutated(std::uint64_t orig, std::size_t used,
                               util::Rng& rng) {
    std::uint64_t v = 0;
    switch (rng() % 8) {
      case 0: v = 0; break;
      case 1: v = orig + 8; break;
      case 2: v = orig - 8; break;
      case 3: v = orig + 1; break;
      case 4: v = orig ^ (std::uint64_t{1} << (rng() % 64)); break;
      case 5: v = 0xFFFF'FFFF'FFFF'FFF8ULL; break;
      case 6: v = (rng() % (used + 64)) & ~std::uint64_t{7}; break;
      default: v = rng(); break;
    }
    return v == orig ? orig ^ 8 : v;
  }

  /// Applies one seeded mutation to `seg`, a copy of file `f`. Returns
  /// true for a forgery: a field rewritten under a re-sealed, valid record
  /// checksum.
  bool mutate(const File& f, std::vector<unsigned char>& seg,
              util::Rng& rng) const {
    const std::vector<Record>& records = f.records;
    const std::size_t used = records.back().off + records.back().len;
    const bool has_delta =
        std::any_of(records.begin(), records.end(),
                    [](const Record& r) { return !r.anchor; });
    // A file without deltas gets its delta forgeries as anchor ones.
    const auto pick = [&](bool want_delta) -> const Record& {
      want_delta = want_delta && has_delta;
      while (true) {
        const Record& r = records[rng() % records.size()];
        if (r.anchor != want_delta) return r;
      }
    };
    const auto reseal = [&seg](const Record& r, std::uint64_t len) {
      if (len >= 16 && len % 8 == 0 && len <= seg.size() - r.off) {
        unsigned char* rec = seg.data() + r.off;
        wire::store_u64(rec + len - 8, wire::checksum64(rec + 8, len - 16));
        return true;
      }
      return false;
    };
    const auto forge = [&](const Record& r, std::size_t field) {
      unsigned char* p = seg.data() + r.off + field;
      wire::store_u64(p, mutated(wire::load_u64(p), used, rng));
      return reseal(r, r.len);
    };
    switch (rng() % 12) {
      case 0:  // byte flip anywhere
        seg[rng() % seg.size()] ^= static_cast<unsigned char>(1 + rng() % 255);
        return false;
      case 1: {  // record length, re-sealed at the claimed end when it fits
        const Record& r = records[rng() % records.size()];
        const std::uint64_t len = mutated(r.len, used, rng);
        wire::store_u64(seg.data() + r.off + 8, len);
        return reseal(r, len);
      }
      case 2: return forge(pick(true), 40);   // delta parent_off
      case 3: return forge(pick(true), 32);   // delta parent_version
      case 4: return forge(pick(true), 48);   // delta n_rows
      case 5: return forge(pick(true), 56);   // delta first row index
      case 6: return forge(pick(false), 32);  // anchor q_count
      case 7: {  // a user id the index cannot hold
        const Record& r = records[rng() % records.size()];
        wire::store_u64(seg.data() + r.off + 16,
                        std::max(rng(), UserIndex::kMaxUsers));
        return reseal(r, r.len);
      }
      case 8:  // advisory record count
        wire::store_u64(seg.data() + 32,
                        mutated(wire::load_u64(seg.data() + 32), used, rng));
        return false;
      case 9: {  // delta parent_off moved 4 bytes off the 8-byte grid
        const Record& r = pick(true);
        unsigned char* p = seg.data() + r.off + 40;
        const std::uint64_t parent = wire::load_u64(p);
        wire::store_u64(p, rng() % 2 == 0 ? parent + 4 : parent - 4);
        return reseal(r, r.len);
      }
      case 10: {  // any delta row index moved to the table's edge
        const Record& r = pick(true);
        const unsigned char* rec = seg.data() + r.off;
        const std::uint64_t n_rows = wire::load_u64(rec + 48);
        if (r.anchor || n_rows == 0) return forge(r, 32);
        std::size_t pos = 56;
        pos += 8 * (1 + table.num_actions) * (rng() % n_rows);
        wire::store_u64(seg.data() + r.off + pos,
                        boundary_rows[rng() % boundary_rows.size()]);
        return reseal(r, r.len);
      }
      default: {  // truncation, sometimes with file_bytes following it
        seg.resize(rng() % seg.size());
        if (seg.size() >= kHeaderBytes && rng() % 2 == 0) {
          wire::store_u64(seg.data() + 24, seg.size());
        }
        return false;
      }
    }
  }

  /// kMutations seeded mutations of the corpus, each checked against the
  /// invariants in the file comment.
  void fuzz() {
    std::size_t refused_opens = 0, refused_loads = 0, served_loads = 0;
    std::size_t spare_mutations = 0;
    for (int i = 0; i < kMutations; ++i) {
      SCOPED_TRACE("mutation " + std::to_string(i));
      util::Rng rng(0xF00D + static_cast<std::uint64_t>(i));
      // A quarter of the mutations hit the spare, the rest a segment.
      const std::size_t target = rng() % 4 == 0
                                     ? files.size() - 1
                                     : rng() % (files.size() - 1);
      const bool on_spare = target == files.size() - 1;
      std::vector<unsigned char> mutated_file = files[target].bytes;
      const bool forged = mutate(files[target], mutated_file, rng);
      fs::remove_all(dir);
      fs::create_directories(dir);
      write_file(dir + "/store.meta", meta);
      for (std::size_t f = 0; f < files.size(); ++f) {
        write_file(dir + "/" + files[f].name,
                   f == target ? mutated_file : files[f].bytes);
      }

      const SegmentStore::Info info = SegmentStore::inspect(dir);
      ASSERT_TRUE(info.meta_ok);
      ASSERT_LE(info.records, records);
      ASSERT_EQ(info.segments, files.size() - 1);

      std::unique_ptr<SegmentStore> store;
      try {
        store = open();
      } catch (const std::runtime_error&) {
        ASSERT_FALSE(on_spare);
        ++refused_opens;
        continue;
      }
      ASSERT_EQ(info.records, store->scanned_records());
      rl::QTable out = empty_table();
      if (on_spare) {
        // The spare is never parsed: every committed version is served.
        ++spare_mutations;
        ASSERT_EQ(store->scanned_records(), records);
        for (std::uint64_t u = 0; u < kUsers; ++u) {
          ASSERT_EQ(store->load(u, out), committed[u]) << "user " << u;
          ASSERT_TRUE(bit_equal(out, history.at({u, committed[u]})));
        }
      }
      for (const std::uint64_t u : store->user_ids()) {
        ASSERT_LT(u, kUsers);
        std::optional<std::uint64_t> v;
        try {
          v = store->load(u, out);
        } catch (const std::runtime_error&) {
          ++refused_loads;
          continue;
        }
        ASSERT_TRUE(v.has_value()) << "user " << u;
        ASSERT_GE(*v, 1u);
        ASSERT_LE(*v, committed[u]) << "user " << u;
        if (!forged) {
          ASSERT_TRUE(bit_equal(out, history.at({u, *v})))
              << "user " << u << " version " << *v;
        }
        ++served_loads;
      }
      // The damaged store still takes a write and serves it back exactly.
      const std::uint64_t u = static_cast<std::uint64_t>(i) % kUsers;
      rl::QTable next = history.at({u, committed[u]});
      next.set(static_cast<rl::StateId>(i % next.num_states()), 0, 0.5 + i);
      store->reserve_users(kUsers);
      store->append(u, next, committed[u] + 1);
      ASSERT_EQ(store->load(u, out),
                std::optional<std::uint64_t>{committed[u] + 1});
      ASSERT_TRUE(bit_equal(out, next));
    }
    // The budget reaches every outcome: refused opens, refused loads (a
    // forgery the scan cannot see), served loads, and spare mutations.
    EXPECT_GT(refused_opens, 0u);
    EXPECT_GT(refused_loads, 0u);
    EXPECT_GT(served_loads, 0u);
    EXPECT_GT(spare_mutations, 0u);
    fs::remove_all(dir);
  }
};

TEST_F(SegmentScanFuzz, SeededMutationsNeverCrashOrInventVersions) {
  // One 8 x 4 table; 13 anchors (304 bytes) to a 4 KiB segment.
  TableSchema schema;
  for (std::size_t i = 0; i < 8; ++i) {
    schema.steps.push_back(static_cast<adl::StepId>(i + 1));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    schema.tools.push_back(static_cast<adl::ToolId>(100 + i));
  }
  schema.num_states = 8;
  schema.num_actions = 4;
  ASSERT_NO_FATAL_FAILURE(build(std::move(schema), 4096));
  ASSERT_GE(records, 30u);
  fuzz();
}

}  // namespace
}  // namespace coreda::serve
