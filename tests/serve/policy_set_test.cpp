// Byte pins of the one-table store, the only shape SegmentStore holds:
//
//   * its segment files are the bytes store format 2 wrote for the same
//     appends (anchors, deltas, a roll and a reclaimed segment);
//   * its store.meta is the bytes format 3 wrote for it, table count 1.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "adl/library.hpp"
#include "core/home.hpp"
#include "serve/segment_store.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace coreda::serve {
namespace {

namespace fs = std::filesystem;
namespace wire = util::wire;

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
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
  core::HomeDeployment home{library};

  std::string fresh_dir(const char* name) {
    const std::string dir = ::testing::TempDir() + "/coreda_set_" + name;
    fs::remove_all(dir);
    return dir;
  }
};

TEST_F(PolicySetStoreFixture, OneTableStoreWritesFormatTwoSegmentBytes) {
  // Anchors, deltas, a roll and a reclaimed segment of a one-table store.
  // The digest of the segment files was recorded from the store format 2
  // writer on the same appends: format 3 changed no segment byte.
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

TEST_F(PolicySetStoreFixture, OneTableStoreMetaKeepsItsFormatThreeBytes) {
  // Tea-making's planner at the default segment size: the store.meta
  // `coreda train` writes. The digest was recorded from the writer that
  // still took a table list.
  const std::string dir = fresh_dir("one_table_meta");
  const planning::RoutineLearner& tea = home.learner("Tea-making");
  SegmentStoreParams params;
  params.dir = dir;
  {
    SegmentStore store(tea.state_codec().symbols(), tea.action_codec().tools(),
                       tea.q().num_states(), tea.q().num_actions(), params);
  }
  const std::vector<unsigned char> meta = read_file(dir + "/store.meta");
  ASSERT_EQ(meta.size(), 144u);  // prefix, shape, 5 steps, 4 tools, trailer
  EXPECT_EQ(wire::load_u64(meta.data() + 24), 1u);  // the table count
  EXPECT_EQ(wire::checksum64(meta.data(), meta.size()),
            0x32622083795ba078ULL);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace coreda::serve
