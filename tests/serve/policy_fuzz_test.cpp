// Property tests for the one on-disk policy format (SegmentStore anchors
// and delta chains) and the PolicyStore's corruption handling:
//
//   * round-trip bit-fidelity over randomized tables — every finite f64
//     pattern (negative zero, denormals, huge magnitudes) survives
//     append -> load byte-for-byte, as a full anchor and through a changed-
//     row delta chain, across table shapes from 1x1 to larger than
//     production, and again after a reopen;
//   * a correctly checksummed store.meta declaring a zero-dimension table,
//     or a table count other than 1 (over no, one or two tables), is
//     refused at open (QTable itself cannot even represent a zero-dimension
//     table, and a store holds one table per user);
//   * the exhaustive corruption sweep: flipping one byte at EVERY offset of
//     a user's newest record makes the live store's restore throw with the
//     resident table byte-unchanged, and a restart recovers the previous
//     committed version (or nothing) — never a torn table. The record
//     checksum detects any change confined to one 8-byte word, so every
//     single-byte flip is caught.

#include "serve/policy_store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "adl/library.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace coreda::serve {
namespace {

namespace fs = std::filesystem;

/// Bit-exact table comparison (operator== on doubles would conflate +0.0
/// with -0.0 and choke on any future NaN).
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

/// One adversarial finite double: mixed signs and magnitudes, exact and
/// negative zero, denormals, near-overflow values.
double adversarial(util::Rng& rng) {
  switch (static_cast<int>(rng.uniform() * 8.0)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return 5e-324;  // smallest denormal
    case 3: return -4.9e-324;
    case 4: return 1.7e308 * (rng.uniform() - 0.5);
    default: return (rng.uniform() * 2.0 - 1.0) * 1e3;
  }
}

void randomize(rl::QTable& q, util::Rng& rng) {
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
      q.set(s, a, adversarial(rng));
    }
  }
}

/// Re-draws roughly every third row — a retrain-sized change that the
/// store appends as a changed-row delta.
void touch_rows(rl::QTable& q, util::Rng& rng) {
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    if (rng.uniform() * 3.0 >= 1.0) continue;
    for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
      q.set(s, a, adversarial(rng));
    }
  }
}

std::vector<adl::StepId> iota_steps(std::size_t n) {
  std::vector<adl::StepId> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<adl::StepId>(i + 1);
  return v;
}

std::vector<adl::ToolId> iota_tools(std::size_t n) {
  std::vector<adl::ToolId> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<adl::ToolId>(100 + i);
  }
  return v;
}

TEST(PolicyFuzzTest, RoundTripIsBitExactAcrossShapesAndValuePatterns) {
  util::Rng rng(20260807);
  const struct { std::size_t states, actions; } shapes[] = {
      {1, 1}, {1, 7}, {9, 1}, {6, 5}, {40, 17}, {97, 31}};
  constexpr int kTrials = 8;
  std::uint64_t deltas = 0;
  for (const auto& shape : shapes) {
    const std::vector<adl::StepId> steps = iota_steps(shape.states);
    const std::vector<adl::ToolId> tools = iota_tools(shape.actions);
    SegmentStoreParams params;
    params.dir = ::testing::TempDir() + "/coreda_fuzz_roundtrip";
    fs::remove_all(params.dir);
    auto store = std::make_unique<SegmentStore>(
        steps, tools, shape.states, shape.actions, params);
    store->reserve_users(kTrials);
    const auto label = [&](int trial) {
      return std::to_string(shape.states) + "x" +
             std::to_string(shape.actions) + " trial " +
             std::to_string(trial);
    };

    std::vector<rl::QTable> latest;
    for (int trial = 0; trial < kTrials; ++trial) {
      const auto user = static_cast<std::uint64_t>(trial);
      // Version 1: a fully random table — an anchor.
      rl::QTable q(shape.states, shape.actions);
      randomize(q, rng);
      store->append(user, q, 1);
      rl::QTable restored(shape.states, shape.actions, /*initial=*/7.5);
      ASSERT_EQ(store->load(user, restored), std::optional<std::uint64_t>{1})
          << label(trial);
      EXPECT_TRUE(bit_equal(q, restored)) << label(trial);

      // Version 2: some rows re-drawn — a delta whenever that is smaller.
      touch_rows(q, rng);
      store->append(user, q, 2);
      ASSERT_EQ(store->load(user, restored), std::optional<std::uint64_t>{2})
          << label(trial);
      EXPECT_TRUE(bit_equal(q, restored)) << label(trial);

      // Re-appending the restored table changes no row at the bit level:
      // the cheapest record the store can write (an empty delta, or an
      // anchor where even that is smaller).
      const std::uint64_t before = store->appended_bytes();
      store->append(user, restored, 3);
      EXPECT_EQ(store->appended_bytes() - before,
                std::min<std::uint64_t>(64, store->anchor_record_bytes()))
          << label(trial);
      latest.push_back(q);
    }
    deltas += store->delta_records_written();

    // The whole set survives a restart bit-for-bit.
    store.reset();
    SegmentStore reopened(steps, tools, shape.states, shape.actions, params);
    for (int trial = 0; trial < kTrials; ++trial) {
      rl::QTable restored(shape.states, shape.actions);
      ASSERT_EQ(reopened.load(static_cast<std::uint64_t>(trial), restored),
                std::optional<std::uint64_t>{3})
          << label(trial);
      EXPECT_TRUE(bit_equal(latest[static_cast<std::size_t>(trial)],
                            restored))
          << label(trial);
    }
  }
  EXPECT_GT(deltas, 0u);  // the chains, not just anchors, were exercised
}

/// Appends a little-endian u64 (the store's wire encoding).
void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFF));
  }
}

TEST(PolicyFuzzTest, ZeroDimensionSnapshotIsRejected) {
  // A QTable cannot even be constructed with a zero dimension, and no
  // store writes a table count other than 1, so a zero-dimension table or
  // another count can only come from a corrupted or hostile store.meta. Craft each by hand, with a *correct*
  // checksum, and make sure open refuses it (rewriting nothing) and
  // inspect reports it without scanning.
  const std::string dir = ::testing::TempDir() + "/coreda_fuzz_zero_dim";
  const std::vector<adl::StepId> steps = iota_steps(2);
  const std::vector<adl::ToolId> tools = iota_tools(2);
  // `count` is the table count store.meta claims, `tables` the table
  // bodies it holds.
  struct Shape {
    std::uint64_t count, tables, states, actions;
  };
  for (const Shape shape :
       {Shape{1, 1, 0, 2}, Shape{1, 1, 2, 0}, Shape{1, 1, 0, 0},
        Shape{2, 2, 2, 0}, Shape{0, 0, 0, 0}, Shape{2, 2, 2, 2},
        Shape{2, 1, 2, 2}, Shape{0, 1, 2, 2}}) {
    std::vector<unsigned char> meta(kStoreMetaMagic, kStoreMetaMagic + 8);
    put_u64(meta, kMetaFormatVersion);
    put_u64(meta, std::uint64_t{1} << 20);  // segment bytes
    put_u64(meta, shape.count);
    for (std::uint64_t t = 0; t < shape.tables; ++t) {
      put_u64(meta, steps.size());
      put_u64(meta, tools.size());
      // The last table carries the degenerate dimensions.
      const bool last = t + 1 == shape.tables;
      put_u64(meta, last ? shape.states : 2);
      put_u64(meta, last ? shape.actions : 2);
      for (const adl::StepId id : steps) put_u64(meta, id);
      for (const adl::ToolId id : tools) put_u64(meta, id);
    }
    put_u64(meta, util::wire::checksum64(meta.data(), meta.size()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      std::ofstream out(dir + "/store.meta", std::ios::binary);
      out.write(reinterpret_cast<const char*>(meta.data()),
                static_cast<std::streamsize>(meta.size()));
    }
    SegmentStoreParams params;
    params.dir = dir;
    EXPECT_THROW(SegmentStore(steps, tools, 2, 2, params), std::runtime_error)
        << shape.count << " claimed, " << shape.tables << " tables, last "
        << shape.states << "x" << shape.actions;
    const SegmentStore::Info info = SegmentStore::inspect(dir);
    EXPECT_EQ(info.meta_format, kMetaFormatVersion);
    EXPECT_FALSE(info.meta_ok);
    EXPECT_EQ(info.table, TableSchema{});
    std::ifstream in(dir + "/store.meta", std::ios::binary);
    EXPECT_EQ(std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                         std::istreambuf_iterator<char>()),
              meta);
  }
  fs::remove_all(dir);
}

TEST(PolicyFuzzTest, EveryOneByteCorruptionIsRejectedAndTableUntouched) {
  adl::AdlLibrary library;
  planning::RoutineLearner donor(library.tea_making(), util::Rng(5));
  const std::vector<adl::StepId> routine{
      adl::tools::kTeaBox, adl::tools::kElectricPot, adl::tools::kKettle,
      adl::tools::kTeaCup};
  for (int i = 0; i < 40; ++i) donor.train_episode(routine);

  const std::string dir = ::testing::TempDir() + "/coreda_fuzz_sweep";
  fs::remove_all(dir);
  SegmentStoreParams params;
  params.dir = dir;
  PolicyStore store(donor, params);
  const UserId u = store.add_user();
  const std::string seg_path = dir + "/seg-w0-000000.seg";
  const auto flip = [&](std::size_t offset) {
    std::fstream f(seg_path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(byte ^ 0x5A));
    f.flush();
  };
  // Flips every byte of [begin, end) in turn. Each time the live store's
  // restore must throw with its entry untouched, and a restarting reader
  // must recover exactly `expect_version` / `expect_table` (nullopt: the
  // user's only record is gone, the reader keeps the reference table).
  const auto sweep = [&](std::size_t begin, std::size_t end,
                         std::optional<std::uint64_t> expect_version,
                         const rl::QTable& expect_table) {
    const rl::QTable resident_before = store.q(u);
    const std::uint64_t version_before = store.version(u);
    for (std::size_t off = begin; off < end; ++off) {
      flip(off);
      EXPECT_THROW(store.restore(u), std::runtime_error) << "offset " << off;
      EXPECT_TRUE(bit_equal(store.q(u), resident_before)) << "offset " << off;
      EXPECT_EQ(store.version(u), version_before) << "offset " << off;
      {
        PolicyStore reader(donor, params);
        const UserId r = reader.add_user();
        EXPECT_EQ(reader.restore(r), expect_version) << "offset " << off;
        EXPECT_TRUE(bit_equal(reader.q(r), expect_table)) << "offset " << off;
      }
      flip(off);  // restore the byte
    }
  };

  // The user's only record: any flip loses it entirely.
  const rl::QTable v2 = donor.q();
  store.stage(u, v2);
  const std::size_t first_end = 40 + store.segments()->appended_bytes();
  sweep(40, first_end, std::nullopt, donor.q());

  // A newer record on top: any flip falls back to version 2.
  rl::QTable v3 = v2;
  v3.set(1, 0, -12.5);
  store.stage(u, v3);
  const std::size_t second_end = 40 + store.segments()->appended_bytes();
  sweep(first_end, second_end, std::optional<std::uint64_t>{2}, v2);

  // Control: the uncorrupted store still restores, so the sweep failed on
  // the corruption and not on some unrelated I/O problem.
  EXPECT_EQ(store.restore(u), std::optional<std::uint64_t>{3});
  EXPECT_TRUE(bit_equal(store.q(u), v3));
}

}  // namespace
}  // namespace coreda::serve
