// Seeded mutation fuzzing of the segment store's scan-on-open (ctest label
// `fuzz`; a fixed budget of 2,000 mutations, so every run replays the same
// inputs). The mmap path trusts on-disk record lengths, parent offsets, row
// counts, user ids and the header's advisory record count; the record
// checksum is its last line of defence, so the structural checks must stand
// in front of it. Starting from one segment of interleaved anchor/delta
// chains, each iteration applies one mutation:
//
//   * a byte flip anywhere in the file, header included;
//   * an overwritten record length, parent_off, parent_version, n_rows,
//     q_count, delta row index or user id, re-sealed with a valid record
//     checksum — a forgery that only the structural checks can stop;
//   * an overwritten advisory record count;
//   * truncation at a random offset, with or without the header's
//     file_bytes following it.
//
// Every reopen either throws std::runtime_error or succeeds. After a
// successful open, load() of every indexed user throws std::runtime_error
// or returns a version no newer than the one committed for that user —
// bit-equal to the table committed at that version unless the mutation was
// a forgery — and the store still accepts and serves a fresh append.
// SegmentStore::inspect reads the same bytes without crashing and never
// counts more valid records than the segment held. tools/run_asan.sh runs
// this under ASan+UBSan with the rest of the suite.

#include <gtest/gtest.h>

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

constexpr std::size_t kStates = 8;
constexpr std::size_t kActions = 4;
constexpr std::uint64_t kUsers = 5;
constexpr int kMutations = 2000;
constexpr std::size_t kSegmentFileBytes = 16384;
constexpr std::size_t kHeaderBytes = 40;

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
    if (std::memcmp(a.row(s).data(), b.row(s).data(),
                    a.row(s).size_bytes()) != 0) {
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
  std::string dir = ::testing::TempDir() + "/coreda_seg_fuzz";
  std::vector<unsigned char> meta;
  std::vector<unsigned char> segment;
  std::vector<Record> records;
  std::vector<std::uint64_t> committed = std::vector<std::uint64_t>(kUsers);
  std::map<std::pair<std::uint64_t, std::uint64_t>, rl::QTable> history;

  SegmentStoreParams params() const {
    SegmentStoreParams p;
    p.dir = dir;
    p.segment_bytes = kSegmentFileBytes;
    p.rebase_every = 4;
    return p;
  }

  std::unique_ptr<SegmentStore> open() const {
    return std::make_unique<SegmentStore>(steps, tools, kStates, kActions,
                                          params());
  }

  /// One segment: user u commits versions 1..5+u, each changing one row,
  /// so chains run anchor, delta, delta, delta, anchor, ... interleaved
  /// across users.
  void SetUp() override {
    fs::remove_all(dir);
    {
      auto store = open();
      store->reserve_users(kUsers);
      std::vector<rl::QTable> q(kUsers, rl::QTable(kStates, kActions));
      util::Rng rng(2024);
      for (std::uint64_t round = 1; round <= 5 + kUsers - 1; ++round) {
        for (std::uint64_t u = 0; u < kUsers; ++u) {
          if (round > 5 + u) continue;
          const auto s = static_cast<rl::StateId>(rng() % kStates);
          for (rl::ActionId a = 0; a < kActions; ++a) {
            q[u].set(s, a, rng.uniform(-100.0, 100.0));
          }
          store->append(u, q[u], round);
          history.emplace(std::make_pair(u, round), q[u]);
          committed[u] = round;
        }
      }
      ASSERT_EQ(store->num_segments(), 1u);
      ASSERT_GT(store->delta_records_written(), 0u);
      ASSERT_GT(store->anchor_records_written(), 0u);
    }
    meta = read_file(dir + "/store.meta");
    segment = read_file(dir + "/seg-w0-000000.seg");
    ASSERT_EQ(segment.size(), kSegmentFileBytes);
    std::size_t off = kHeaderBytes;
    while (wire::load_u64(segment.data() + off) != 0) {
      const bool anchor =
          std::memcmp(segment.data() + off, kAnchorMagic, 8) == 0;
      const std::size_t len = wire::load_u64(segment.data() + off + 8);
      records.push_back({off, len, anchor});
      off += len;
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

  /// Applies one seeded mutation to `seg`. Returns true for a forgery: a
  /// field rewritten under a re-sealed, valid record checksum.
  bool mutate(std::vector<unsigned char>& seg, util::Rng& rng) const {
    const std::size_t used = records.back().off + records.back().len;
    const auto pick = [&](bool want_delta) -> const Record& {
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
    switch (rng() % 10) {
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
      default: {  // truncation, sometimes with file_bytes following it
        seg.resize(rng() % seg.size());
        if (seg.size() >= kHeaderBytes && rng() % 2 == 0) {
          wire::store_u64(seg.data() + 24, seg.size());
        }
        return false;
      }
    }
  }
};

TEST_F(SegmentScanFuzz, SeededMutationsNeverCrashOrInventVersions) {
  ASSERT_GE(records.size(), 20u);
  std::size_t refused_opens = 0, refused_loads = 0, served_loads = 0;
  for (int i = 0; i < kMutations; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    util::Rng rng(0xF00D + static_cast<std::uint64_t>(i));
    std::vector<unsigned char> seg = segment;
    const bool forged = mutate(seg, rng);
    fs::remove_all(dir);
    fs::create_directories(dir);
    write_file(dir + "/store.meta", meta);
    write_file(dir + "/seg-w0-000000.seg", seg);

    const SegmentStore::Info info = SegmentStore::inspect(dir);
    ASSERT_TRUE(info.meta_ok);
    ASSERT_LE(info.records, records.size());

    std::unique_ptr<SegmentStore> store;
    try {
      store = open();
    } catch (const std::runtime_error&) {
      ++refused_opens;
      continue;
    }
    rl::QTable out(kStates, kActions);
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
    next.set(static_cast<rl::StateId>(i % kStates), 0, 0.5 + i);
    store->reserve_users(kUsers);
    store->append(u, next, committed[u] + 1);
    ASSERT_EQ(store->load(u, out),
              std::optional<std::uint64_t>{committed[u] + 1});
    ASSERT_TRUE(bit_equal(out, next));
  }
  // The budget reaches every outcome: refused opens, refused loads (a
  // forgery the scan cannot see), and served loads.
  EXPECT_GT(refused_opens, 0u);
  EXPECT_GT(refused_loads, 0u);
  EXPECT_GT(served_loads, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace coreda::serve
