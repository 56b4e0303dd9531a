// The v2 delta-chain segment format:
//
//   * small-change appends land as changed-row deltas and load back
//     bit-exact through the whole chain (including the empty delta for a
//     no-op retrain and the not-profitable fallback to an anchor);
//   * rebase_every bounds every chain; a segment roll forces an anchor
//     (chains never span segments), which empties the segment behind it;
//   * the exhaustive corruption sweep over a MIXED anchor/delta segment:
//     a one-byte flip at EVERY offset of the record region makes the open
//     store's load() of the affected user's chain throw, and a reopening
//     store recovers exactly the longest valid prefix — variable strides
//     make skip-and-continue unsound, so everything after the flip is gone;
//   * crash injection at the compaction-rebase publish seam: a mid-rebase
//     crash leaves every user readable at its latest version, a restart
//     agrees, and the retry completes the compaction;
//   * a segment file with any other header magic (e.g. the retired
//     fixed-stride "CRDASEG1" layout) is refused at open, never guessed
//     at, and inspect reports it as corrupt.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include "serve/segment_store.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace coreda::serve {
namespace {

namespace fs = std::filesystem;
namespace wire = util::wire;

// 6x5 fixture arithmetic: v2 anchor = 8 * (6 + 30) = 288 bytes, a one-row
// delta = 8 * (8 + 1 * (1 + 5)) = 112 bytes, after the 40-byte header.
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kAnchorBytes = 288;
constexpr std::size_t kOneRowDelta = 112;

bool bit_equal(const rl::QTable& a, const rl::QTable& b) {
  for (rl::StateId s = 0; s < a.num_states(); ++s) {
    const std::span<const double> ra = a.row(s);
    const std::span<const double> rb = b.row(s);
    if (std::memcmp(ra.data(), rb.data(), ra.size_bytes()) != 0) return false;
  }
  return true;
}

struct SegmentDeltaFixture : ::testing::Test {
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
    const std::string dir = ::testing::TempDir() + "/coreda_delta_" + name;
    fs::remove_all(dir);
    return dir;
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

  /// `base` with exactly one cell nudged — a one-row delta when appended.
  rl::QTable touched(const rl::QTable& base, rl::StateId s, double v) {
    rl::QTable q = base;
    q.set(s, 0, v);
    return q;
  }

  std::unique_ptr<SegmentStore> open(const SegmentStoreParams& p) {
    return std::make_unique<SegmentStore>(steps, tools, kStates, kActions, p);
  }
};

TEST_F(SegmentDeltaFixture, SmallChangesAppendAsDeltasAndLoadBitExact) {
  SegmentStoreParams p;
  p.dir = fresh_dir("roundtrip");
  auto store = open(p);
  store->reserve_users(1);

  std::vector<rl::QTable> history;
  history.push_back(table(7));
  store->append(0, history.back(), 1);  // first record: always an anchor
  for (std::uint64_t v = 2; v <= 6; ++v) {
    history.push_back(
        touched(history.back(), static_cast<rl::StateId>(v % kStates),
                static_cast<double>(1000 + v)));
    store->append(0, history.back(), v);
  }
  EXPECT_EQ(store->anchor_records_written(), 1u);
  EXPECT_EQ(store->delta_records_written(), 5u);
  EXPECT_EQ(store->appended_bytes(), kAnchorBytes + 5 * kOneRowDelta);

  rl::QTable out(kStates, kActions);
  ASSERT_EQ(store->load(0, out), std::optional<std::uint64_t>{6});
  EXPECT_TRUE(bit_equal(out, history.back()));

  // A no-op retrain (nothing changed) still advances the version, as the
  // cheapest possible record: an empty delta.
  const std::uint64_t bytes_before = store->appended_bytes();
  store->append(0, history.back(), 7);
  EXPECT_EQ(store->appended_bytes() - bytes_before, 64u);
  ASSERT_EQ(store->load(0, out), std::optional<std::uint64_t>{7});
  EXPECT_TRUE(bit_equal(out, history.back()));

  // A full-table change makes the delta cost more than the anchor: the
  // writer falls back to an anchor on its own.
  store->append(0, table(99), 8);
  EXPECT_EQ(store->anchor_records_written(), 2u);
  ASSERT_EQ(store->load(0, out), std::optional<std::uint64_t>{8});
  EXPECT_TRUE(bit_equal(out, table(99)));

  // The whole mixed chain survives a reopen, and a post-reopen append
  // keeps extending it as a delta (the rebuilt index knows the chain).
  store.reset();
  auto reopened = open(p);
  ASSERT_EQ(reopened->load(0, out), std::optional<std::uint64_t>{8});
  EXPECT_TRUE(bit_equal(out, table(99)));
  EXPECT_EQ(reopened->scanned_records(), 8u);
  reopened->append(0, touched(table(99), 1, -5.0), 9);
  EXPECT_EQ(reopened->delta_records_written(), 1u);
  ASSERT_EQ(reopened->load(0, out), std::optional<std::uint64_t>{9});
  EXPECT_TRUE(bit_equal(out, touched(table(99), 1, -5.0)));
}

TEST_F(SegmentDeltaFixture, RebaseEveryBoundsEveryChain) {
  SegmentStoreParams p;
  p.dir = fresh_dir("rebase");
  p.rebase_every = 4;  // 1 anchor + up to 3 deltas
  auto store = open(p);
  store->reserve_users(1);

  rl::QTable q = table(11);
  for (std::uint64_t v = 1; v <= 12; ++v) {
    store->append(0, q, v);
    q = touched(q, static_cast<rl::StateId>(v % kStates), 2000.0 + v);
  }
  // 12 appends at rebase_every=4: versions 1, 5, 9 are anchors.
  EXPECT_EQ(store->anchor_records_written(), 3u);
  EXPECT_EQ(store->delta_records_written(), 9u);

  const SegmentStore::Info info = SegmentStore::inspect(p.dir);
  EXPECT_EQ(info.anchors, 3u);
  EXPECT_EQ(info.deltas, 9u);
  // User 0's live chain: anchor v9 + deltas v10..v12.
  EXPECT_DOUBLE_EQ(info.mean_chain_length, 4.0);

  // rebase_every = 1 disables deltas outright.
  SegmentStoreParams p1;
  p1.dir = fresh_dir("rebase1");
  p1.rebase_every = 1;
  auto anchors_only = open(p1);
  anchors_only->reserve_users(1);
  rl::QTable r = table(12);
  for (std::uint64_t v = 1; v <= 5; ++v) {
    anchors_only->append(0, r, v);
    r = touched(r, 0, 3000.0 + v);
  }
  EXPECT_EQ(anchors_only->anchor_records_written(), 5u);
  EXPECT_EQ(anchors_only->delta_records_written(), 0u);
}

TEST_F(SegmentDeltaFixture, SegmentRollForcesAnchorSoChainsNeverSpanFiles) {
  SegmentStoreParams p;
  p.dir = fresh_dir("roll");
  // Room for an anchor plus two one-row deltas per segment, nothing more.
  p.segment_bytes = kHeaderBytes + kAnchorBytes + 2 * kOneRowDelta;
  auto store = open(p);
  store->reserve_users(1);

  rl::QTable q = table(21);
  for (std::uint64_t v = 1; v <= 9; ++v) {
    store->append(0, q, v);
    q = touched(q, static_cast<rl::StateId>(v % kStates), 4000.0 + v);
  }
  // Every third record starts a new segment and must be an anchor:
  // v1 A, v2 D, v3 D | v4 A, v5 D, v6 D | v7 A, v8 D, v9 D.
  EXPECT_EQ(store->anchor_records_written(), 3u);
  EXPECT_EQ(store->delta_records_written(), 6u);
  // Each roll's anchor orphans the whole chain behind it, which empties
  // the previous segment: v4 reclaims segment 0 into the spare, v7
  // recycles it as segment 2 and reclaims segment 1. Only the tail is
  // left.
  EXPECT_EQ(store->num_segments(), 1u);
  EXPECT_EQ(store->reclaimed_segments(), 2u);
  EXPECT_TRUE(fs::exists(p.dir + "/seg-w0-000002.seg"));
  EXPECT_FALSE(fs::exists(p.dir + "/seg-w0-000000.seg"));
  EXPECT_FALSE(fs::exists(p.dir + "/seg-w0-000001.seg"));

  rl::QTable out(kStates, kActions);
  ASSERT_EQ(store->load(0, out), std::optional<std::uint64_t>{9});
  rl::QTable expect = table(21);
  for (std::uint64_t v = 1; v <= 8; ++v) {
    expect = touched(expect, static_cast<rl::StateId>(v % kStates),
                     4000.0 + v);
  }
  EXPECT_TRUE(bit_equal(out, expect));
}

TEST_F(SegmentDeltaFixture, EveryOffsetFlipRecoversTheLongestValidPrefix) {
  SegmentStoreParams p;
  p.dir = fresh_dir("sweep");
  auto store = open(p);
  store->reserve_users(2);

  // Build a mixed segment with interleaved users:
  //   rec0 @  40  u0 anchor v1   (288 B)
  //   rec1 @ 328  u1 anchor v1   (288 B)
  //   rec2 @ 616  u0 delta  v2   (112 B, parent rec0)
  //   rec3 @ 728  u0 delta  v3   (112 B, parent rec2)
  //   rec4 @ 840  u1 delta  v2   (112 B, parent rec1)  -> end 952
  const rl::QTable a1 = table(31);
  const rl::QTable b1 = table(32);
  const rl::QTable a2 = touched(a1, 2, 51.0);
  const rl::QTable a3 = touched(a2, 4, 52.0);
  const rl::QTable b2 = touched(b1, 1, 53.0);
  store->append(0, a1, 1);
  store->append(1, b1, 1);
  store->append(0, a2, 2);
  store->append(0, a3, 3);
  store->append(1, b2, 2);
  ASSERT_EQ(store->anchor_records_written(), 2u);
  ASSERT_EQ(store->delta_records_written(), 3u);
  ASSERT_EQ(store->num_segments(), 1u);

  const std::string seg_path = p.dir + "/seg-w0-000000.seg";
  ASSERT_TRUE(fs::exists(seg_path));
  const auto flip = [&](std::size_t offset) {
    std::fstream f(seg_path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(byte ^ 0x5A));
    f.flush();
  };

  // Per record: who owns it, and what a reopening scan recovers when it is
  // the first invalid record (everything after it is unreachable — that is
  // the longest-valid-prefix contract).
  struct Region {
    std::size_t begin, end;
    std::uint64_t owner;
    std::optional<std::uint64_t> u0_version;
    const rl::QTable* u0_table;
    std::optional<std::uint64_t> u1_version;
    const rl::QTable* u1_table;
  };
  const Region regions[] = {
      {40, 328, 0, std::nullopt, nullptr, std::nullopt, nullptr},
      {328, 616, 1, {1}, &a1, std::nullopt, nullptr},
      {616, 728, 0, {1}, &a1, {1}, &b1},
      {728, 840, 0, {2}, &a2, {1}, &b1},
      {840, 952, 1, {3}, &a3, {1}, &b1},
  };
  for (const Region& r : regions) {
    for (std::size_t off = r.begin; off < r.end; ++off) {
      flip(off);
      // The open store: the affected user's chain fails validation loudly
      // (destination untouched); the other user's chain is independent.
      rl::QTable victim(kStates, kActions, 7.5);
      const rl::QTable before = victim;
      EXPECT_THROW(store->load(r.owner, victim), std::runtime_error)
          << "offset " << off;
      EXPECT_TRUE(bit_equal(victim, before)) << "offset " << off;
      rl::QTable other(kStates, kActions);
      EXPECT_NO_THROW(store->load(1 - r.owner, other)) << "offset " << off;
      // A restart recovers the longest valid prefix.
      {
        auto reader = open(p);
        EXPECT_EQ(reader->latest_version(0), r.u0_version)
            << "offset " << off;
        EXPECT_EQ(reader->latest_version(1), r.u1_version)
            << "offset " << off;
        rl::QTable got(kStates, kActions);
        if (r.u0_table != nullptr) {
          ASSERT_EQ(reader->load(0, got), r.u0_version) << "offset " << off;
          EXPECT_TRUE(bit_equal(got, *r.u0_table)) << "offset " << off;
        }
        if (r.u1_table != nullptr) {
          ASSERT_EQ(reader->load(1, got), r.u1_version) << "offset " << off;
          EXPECT_TRUE(bit_equal(got, *r.u1_table)) << "offset " << off;
        }
      }
      flip(off);  // restore
    }
  }
  // Control: everything restored, both chains fully valid again.
  rl::QTable out(kStates, kActions);
  ASSERT_EQ(store->load(0, out), std::optional<std::uint64_t>{3});
  EXPECT_TRUE(bit_equal(out, a3));
  ASSERT_EQ(store->load(1, out), std::optional<std::uint64_t>{2});
  EXPECT_TRUE(bit_equal(out, b2));
}

TEST_F(SegmentDeltaFixture, CrashAtCompactionRebasePublishKeepsEveryUser) {
  SegmentStoreParams p;
  p.dir = fresh_dir("compact_crash");
  p.segment_bytes = kHeaderBytes + 4 * kAnchorBytes;
  p.compact_min_records = 8;
  p.compact_dead_ratio = 0.5;
  auto store = open(p);
  store->reserve_users(3 + 8);

  // Full-change tables -> all anchors. Each round writes users 0..2 and
  // one pin, user 2 + round, that is never rewritten: a round fills
  // exactly one segment and its pin keeps it partly live, so no append
  // empties a segment and only compaction can drop the dead records.
  // Versions equal rounds; every pin commits version 1.
  std::uint64_t version = 0;
  const auto pin_table = [&](std::uint64_t pin) { return table(900 + pin); };
  const auto round_users = [&] {
    for (std::uint64_t u = 0; u < 3; ++u) {
      store->append(u, table(100 * u + version), version);
    }
  };
  const auto fill = [&](std::uint64_t rounds) {
    for (std::uint64_t r = 0; r < rounds; ++r) {
      ++version;
      round_users();
      store->append(2 + version, pin_table(2 + version), 1);
    }
  };
  fill(2);  // 8 records, 3 dead
  ++version;
  round_users();  // 11 records, 6 dead: past the 0.5 ratio
  ASSERT_EQ(store->compactions(), 0u);
  ASSERT_EQ(store->reclaimed_segments(), 0u);

  // Arm the crash: the pin's append checks the dead ratio first and
  // compacts, and the rebase publishes through the same pre-publish
  // seam as a normal append. Let the first rebased user land, then die on
  // the second — a mid-compaction crash with part of the fleet already
  // moved.
  int publishes = 0;
  store->pre_publish_site().set_hook([&publishes](const std::string&) {
    if (++publishes == 2) {
      throw std::runtime_error("injected crash mid-compaction");
    }
  });
  const std::uint64_t crashed_pin = 2 + version;
  EXPECT_THROW(store->append(crashed_pin, pin_table(crashed_pin), 1),
               std::runtime_error);
  EXPECT_EQ(store->compactions(), 0u);
  EXPECT_EQ(publishes, 2);

  // Every user still serves its pre-crash latest version — the crashed
  // pin's append wrote nothing — both through the surviving store
  // object...
  rl::QTable out(kStates, kActions);
  const auto expect_committed = [&](const SegmentStore& s) {
    for (std::uint64_t u = 0; u < 3; ++u) {
      ASSERT_EQ(s.load(u, out), std::optional<std::uint64_t>{version})
          << "user " << u;
      EXPECT_TRUE(bit_equal(out, table(100 * u + version))) << "user " << u;
    }
    for (std::uint64_t pin = 3; pin < crashed_pin; ++pin) {
      ASSERT_EQ(s.load(pin, out), std::optional<std::uint64_t>{1})
          << "pin " << pin;
      EXPECT_TRUE(bit_equal(out, pin_table(pin))) << "pin " << pin;
    }
    EXPECT_EQ(s.latest_version(crashed_pin), std::nullopt);
  };
  expect_committed(*store);
  // ...and through a restart over the crashed directory (the rebased copy
  // of user 0 has the same version as its original; whichever the scan
  // publishes, the bytes are identical).
  {
    auto reader = open(p);
    expect_committed(*reader);
  }

  // Crash over: the retry compacts and the fleet moves on.
  store->pre_publish_site().set_hook(nullptr);
  store->append(crashed_pin, pin_table(crashed_pin), 1);
  fill(2);
  EXPECT_GT(store->compactions(), 0u);
  EXPECT_EQ(store->live_records(), 3u + 5u);
  const auto expect_latest = [&](const SegmentStore& s) {
    for (std::uint64_t u = 0; u < 3; ++u) {
      ASSERT_EQ(s.load(u, out), std::optional<std::uint64_t>{version})
          << "user " << u;
      EXPECT_TRUE(bit_equal(out, table(100 * u + version))) << "user " << u;
    }
    for (std::uint64_t pin = 3; pin <= 2 + version; ++pin) {
      ASSERT_EQ(s.load(pin, out), std::optional<std::uint64_t>{1})
          << "pin " << pin;
      EXPECT_TRUE(bit_equal(out, pin_table(pin))) << "pin " << pin;
    }
  };
  expect_latest(*store);
  store.reset();
  auto reopened = open(p);
  expect_latest(*reopened);
}

TEST_F(SegmentDeltaFixture, UnknownSegmentMagicIsRejectedAtOpen) {
  const std::string dir = fresh_dir("foreign");
  SegmentStoreParams p;
  p.dir = dir;
  { open(p); }  // writes store.meta, no segments yet

  // A segment in the retired fixed-stride layout: right name, right
  // writer/seq fields, but a "CRDASEG1" header magic.
  {
    std::vector<unsigned char> buf(kHeaderBytes + kAnchorBytes, 0);
    std::memcpy(buf.data(), "CRDASEG1", 8);
    wire::store_u64(buf.data() + 24, buf.size());
    std::ofstream out(dir + "/seg-w0-000000.seg",
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    ASSERT_TRUE(out.flush());
  }
  EXPECT_THROW(open(p), std::runtime_error);
  const SegmentStore::Info info = SegmentStore::inspect(dir);
  EXPECT_TRUE(info.meta_ok);
  EXPECT_EQ(info.records, 0u);
  EXPECT_EQ(info.corrupt_records, 1u);
}

}  // namespace
}  // namespace coreda::serve
