// Fleet bring-up is bit for bit the serial one:
//
//   * the scan-on-open verifies the segments on one job per writer lane,
//     then publishes every record serially. A 4-lane store holding
//     anchors, delta chains, a compaction copy (the equal version seen
//     later must win), a reclaimed segment, a torn tail in one lane and a
//     corrupt record in another reopens to exactly the state the serial
//     scan built: every user's latest version and table bits,
//     scanned_records(), the live/dead split, and the delta/anchor and
//     reclaim choices of the appends that follow. The digests were
//     recorded from the serial scan. The same directory reopened with 2
//     writers (retired segments) and with 8 (records outside their
//     segment's lane) matches its digests too;
//   * registration past a reservation still grows each lane geometrically
//     (the allocation-free path inside one is pinned in
//     serve_alloc_test.cpp);
//   * the Zipf table fans its terms out in chunks and still draws the
//     same arrivals, runner-less or on 1, 2 or 4 jobs, for tables below,
//     at and above one chunk; the digests were recorded from the serial
//     table.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "adl/library.hpp"
#include "serve/arrivals.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/segment_store.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace coreda::serve {
namespace {

namespace fs = std::filesystem;
namespace wire = util::wire;

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL + 0x9e3779b97f4a7c15ULL;
}

std::uint64_t fold(std::uint64_t h, const rl::QTable& q) {
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    for (const double v : q.row(s)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      h = fold(h, bits);
    }
  }
  return h;
}

struct LaneScanDigest : ::testing::Test {
  static constexpr std::size_t kStates = 6;
  static constexpr std::size_t kActions = 5;
  static constexpr std::uint64_t kUsers = 16;  // four per lane
  static constexpr std::size_t kWriters = 4;

  std::vector<adl::StepId> steps{1, 2, 3, 4, 5, 6};
  std::vector<adl::ToolId> tools{100, 101, 102, 103, 104};
  /// One directory per test: ctest runs the cases concurrently.
  std::string dir =
      ::testing::TempDir() + "/coreda_lane_scan_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::vector<rl::QTable> tables =
      std::vector<rl::QTable>(kUsers, rl::QTable(kStates, kActions));
  std::vector<std::uint64_t> versions = std::vector<std::uint64_t>(kUsers, 0);
  util::Rng rng{2025};

  void TearDown() override {
    fs::remove_all(dir);
    fs::remove_all(dir + "_reopen");
  }

  /// 4 KiB segments (fourteen 288-byte anchors, or 112-byte one-row
  /// deltas), chains of at most four records, and no compaction unless
  /// `compact` — then a lane compacts once half of its 8+ records are dead.
  SegmentStoreParams params(const std::string& at, std::size_t writers,
                            bool compact) const {
    SegmentStoreParams p;
    p.dir = at;
    p.writers = writers;
    p.segment_bytes = 4096;
    p.rebase_every = 4;
    p.compact_min_records = compact ? 8 : std::size_t{1} << 30;
    p.compact_dead_ratio = 0.5;
    return p;
  }

  std::unique_ptr<SegmentStore> open(const std::string& at,
                                     std::size_t writers, bool compact) {
    return std::make_unique<SegmentStore>(steps, tools, kStates, kActions,
                                          params(at, writers, compact));
  }

  /// Appends user u's next version: one changed row (a delta when the
  /// chain allows one) or every row changed (always an anchor).
  void commit(SegmentStore& store, std::uint64_t u, bool whole) {
    rl::QTable& q = tables[u];
    for (rl::StateId s = 0; s < kStates; ++s) {
      if (!whole && s != versions[u] % kStates) continue;
      for (rl::ActionId a = 0; a < kActions; ++a) {
        q.set(s, a, rng.uniform(-1e3, 1e3));
      }
    }
    store.append(u, q, ++versions[u]);
  }

  /// Byte offsets of the valid records of the segment file at `path`.
  static std::vector<std::size_t> record_offsets(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    const std::vector<unsigned char> bytes{std::istreambuf_iterator<char>(in),
                                           std::istreambuf_iterator<char>()};
    std::vector<std::size_t> offsets;
    std::size_t off = 40;
    while (off + 56 <= bytes.size() &&
           wire::load_u64(bytes.data() + off) != 0) {
      offsets.push_back(off);
      off += wire::load_u64(bytes.data() + off + 8);
    }
    return offsets;
  }

  /// Builds the 4-lane store under `dir`, opening it three times.
  void build() {
    fs::remove_all(dir);
    {
      // Every lane: anchors, then chains of three deltas per user.
      auto store = open(dir, kWriters, false);
      store->reserve_users(kUsers);
      for (std::uint64_t u = 0; u < kUsers; ++u) commit(*store, u, true);
      for (int round = 0; round < 3; ++round) {
        for (std::uint64_t u = 0; u < kUsers; ++u) commit(*store, u, false);
      }
      // Lanes 0, 1 and 3: whole-table sweeps roll each lane's tail and
      // empty its first segment, which is reclaimed without a copy.
      for (int sweep = 0; sweep < 3; ++sweep) {
        for (std::uint64_t u = 0; u < kUsers; ++u) {
          if (u % kWriters != 2) commit(*store, u, true);
        }
      }
      ASSERT_GE(store->reclaimed_segments(), 3u);
      ASSERT_EQ(store->compactions(), 0u);
    }
    {
      // Lane 0: a compaction that crashes after rebasing its first user
      // leaves that user's record twice, at the same version: the copy in
      // the fresh segment (a higher seq) is the one the index must keep.
      // An append publishes once; one that compacts first publishes each
      // rebased user before its own record.
      auto store = open(dir, kWriters, true);
      int publishes = 0;
      store->pre_publish_site().set_hook([&publishes](const std::string&) {
        if (++publishes == 2) throw std::runtime_error("crash mid-rebase");
      });
      bool crashed = false;
      for (std::uint64_t u = 0; u < kUsers && !crashed; u += kWriters) {
        publishes = 0;
        try {
          commit(*store, u, true);
        } catch (const std::runtime_error&) {
          --versions[u];  // the append aborted
          crashed = true;
        }
      }
      store->pre_publish_site().set_hook(nullptr);
      ASSERT_TRUE(crashed);
      ASSERT_EQ(store->compactions(), 0u);
    }
    {
      // Lane 1: a crash between an append's body and its publish leaves a
      // torn tail.
      auto store = open(dir, kWriters, false);
      store->pre_publish_site().set_hook([](const std::string&) {
        throw std::runtime_error("power cut");
      });
      EXPECT_THROW(commit(*store, 1, true), std::runtime_error);
      --versions[1];
      store->pre_publish_site().set_hook(nullptr);
    }
    // Lane 2: bit rot in user 6's second delta ends its segment's valid
    // prefix there; every lane-2 user falls back to an older version.
    const std::string lane2 = dir + "/seg-w2-000000.seg";
    const std::vector<std::size_t> offsets = record_offsets(lane2);
    ASSERT_EQ(offsets.size(), 16u);
    std::fstream f(lane2, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offsets[9] + 64));
    const char flipped = 0x5A;
    f.write(&flipped, 1);
  }

  /// What a scan built: its counters, and every user's version and bits.
  std::uint64_t scan_digest(std::uint64_t h, const SegmentStore& store) {
    h = fold(h, store.scanned_records());
    h = fold(h, store.live_records());
    h = fold(h, store.dead_records());
    h = fold(h, store.num_segments());
    rl::QTable out(kStates, kActions);
    for (std::uint64_t u = 0; u < kUsers; ++u) {
      const std::optional<std::uint64_t> v = store.load(u, out);
      h = fold(h, v.value_or(0));
      if (v) h = fold(h, out);
      tables[u] = v ? out : rl::QTable(kStates, kActions);
      versions[u] = v.value_or(0);
    }
    return h;
  }

  /// Reopens a copy of the built store with `writers` lanes and digests
  /// what the scan built, then what three rounds of appends choose: one
  /// round of one-row changes (delta or anchor) and two of whole tables
  /// (rolls and reclaims), each append followed by the store's counters.
  /// Then the store reopens once more with the same lanes: with 8, a
  /// lane's records then sit in two writers' segments.
  std::uint64_t reopen_digest(std::size_t writers) {
    const std::string copy = dir + "_reopen";
    fs::remove_all(copy);
    fs::copy(dir, copy);
    auto store = open(copy, writers, false);
    std::uint64_t h = scan_digest(0, *store);
    rl::QTable out(kStates, kActions);
    store->reserve_users(kUsers);
    for (int round = 0; round < 3; ++round) {
      for (std::uint64_t u = 0; u < kUsers; ++u) {
        commit(*store, u, round > 0);
        h = fold(h, store->anchor_records_written());
        h = fold(h, store->delta_records_written());
        h = fold(h, store->reclaimed_segments());
        h = fold(h, store->num_segments());
      }
    }
    for (std::uint64_t u = 0; u < kUsers; ++u) {
      h = fold(h, store->load(u, out).value_or(0));
      h = fold(h, out);
    }
    store.reset();
    return scan_digest(h, *open(copy, writers, false));
  }
};

TEST_F(LaneScanDigest, FourLaneReopenMatchesTheSerialScan) {
  ASSERT_NO_FATAL_FAILURE(build());
  {
    auto store = open(dir, kWriters, false);
    EXPECT_EQ(store->live_records(), kUsers);  // every user kept a record
  }
  EXPECT_EQ(reopen_digest(kWriters), 0x8befc1dcb0fa1d4aULL);
}

TEST_F(LaneScanDigest, TwoWriterReopenMatchesTheSerialScan) {
  // Segments of writers 2 and 3 are retired.
  ASSERT_NO_FATAL_FAILURE(build());
  EXPECT_EQ(reopen_digest(2), 0xb9e1f7e85da1482aULL);
}

TEST_F(LaneScanDigest, EightWriterReopenMatchesTheSerialScan) {
  // Users 4, 5, 6 and 7 sit in lanes 0 to 3 but belong to lanes 4 to 7.
  ASSERT_NO_FATAL_FAILURE(build());
  EXPECT_EQ(reopen_digest(8), 0xe221aec22210784eULL);
}

TEST(FleetRegistration, PastTheReservationEachLaneGrowsGeometrically) {
  adl::AdlLibrary library;
  planning::RoutineLearner donor(library.tea_making(), util::Rng(5));
  const std::string dir = ::testing::TempDir() + "/coreda_register_growth";
  fs::remove_all(dir);
  SegmentStoreParams p;
  p.dir = dir;
  p.writers = 4;
  SegmentStore store(donor.state_codec().symbols(),
                     donor.action_codec().tools(), donor.q().num_states(),
                     donor.q().num_actions(), p);
  FleetEngineParams params;
  params.shards = 4;
  FleetEngine fleet(library, library.tea_making(), store, donor.q(), params);
  fleet.reserve_users(1000);
  std::size_t slab = store.index_slab_bytes();
  std::size_t growths = 0;
  for (std::uint64_t u = 0; u < 8000; ++u) {
    fleet.register_user(0.3);
    if (store.index_slab_bytes() != slab) {
      ++growths;
      slab = store.index_slab_bytes();
    }
  }
  // Each lane goes from 250 to 2,000 users: three doublings, not 1,750
  // re-sizes.
  EXPECT_EQ(growths, 12u);
  // The slab still holds 8,000 users at the index's 7/8 load (about 9.15
  // bytes each), within one doubling.
  EXPECT_GE(slab, 8000u * 8u * 8u / 7u);
  EXPECT_LE(slab, 2u * 8000u * 8u * 8u / 7u + 4u * 16u * 8u);
  fs::remove_all(dir);
}

/// The first 100,000 arrivals of a Zipf(1.1) table over n users, seed 777.
std::uint64_t zipf_digest(ZipfianArrivals arrivals) {
  std::uint64_t h = 0;
  for (int i = 0; i < 100000; ++i) h = fold(h, arrivals.next());
  return h;
}

TEST(ZipfTableDigest, FirstArrivalsMatchTheSerialTableAtAnyJobCount) {
  struct Case {
    std::size_t n;
    std::uint64_t digest;  ///< recorded from the serial table
  };
  constexpr std::size_t kChunk = ZipfianArrivals::kTermChunk;
  const Case cases[] = {
      {1000, 0xcf3f951d763fdff3ULL},              // under one chunk
      {kChunk, 0x6d0ac7a0f7002f9eULL},            // one full chunk
      {kChunk + 1, 0x8ca68a6300214aefULL},        // one term more
      {4 * kChunk + 777, 0x31fb54fc8f3d2f24ULL},  // five, one short
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("n = " + std::to_string(c.n));
    EXPECT_EQ(zipf_digest(ZipfianArrivals(c.n, 1.1, 777)), c.digest);
    for (const std::size_t jobs : {1, 2, 4}) {
      exec::TrialRunner runner(jobs);
      EXPECT_EQ(zipf_digest(ZipfianArrivals(c.n, 1.1, 777, runner)), c.digest)
          << jobs << " jobs";
    }
  }
}

}  // namespace
}  // namespace coreda::serve
