#include "serve/segment_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "exec/trial_runner.hpp"
#include "planning/serialize.hpp"
#include "util/wire.hpp"

namespace coreda::serve {
namespace {

namespace fs = std::filesystem;
namespace wire = util::wire;

constexpr std::size_t kSegmentHeaderBytes = 40;
constexpr char kMetaFileName[] = "store.meta";
/// Segment files never exceed 8 MiB: UserIndex packs the record offset into
/// 20 bits of offset/8.
constexpr std::size_t kMaxSegmentBytes = std::size_t{1} << 23;
/// Hard cap on a chain walk (rebase_every is clamped below this; the load
/// scratch array is sized to it).
constexpr std::size_t kMaxChainRecords = 63;
/// Smallest well-formed record: an anchor for a 1-cell table (56 bytes); an
/// empty delta is 64.
constexpr std::uint64_t kMinRecordBytes = 56;
/// store.meta's fixed prefix: magic, format version, segment bytes and the
/// table count (1); the table follows, then the 8-byte trailer.
constexpr std::size_t kMetaPrefixBytes = 32;
/// Q cells of the largest table whose anchor fits an 8 MiB segment. Bounds
/// every count a store.meta claims before anything is sized by it.
constexpr std::uint64_t kMaxTableCells =
    (kMaxSegmentBytes - kSegmentHeaderBytes) / 8 - 6;

bool parse_segment_file_name(const std::string& name, std::uint64_t& writer,
                             std::uint64_t& seq) {
  unsigned long long w = 0, s = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "seg-w%llu-%llu.seg%n", &w, &s, &consumed) !=
          2 ||
      static_cast<std::size_t>(consumed) != name.size()) {
    return false;
  }
  writer = w;
  seq = s;
  return true;
}

/// store.meta (format 3) for the one table `t`, trailer included.
std::vector<unsigned char> encode_meta(const TableSchema& t,
                                       std::uint64_t segment_bytes) {
  std::vector<unsigned char> buf(kMetaPrefixBytes);
  const auto put = [&buf](std::uint64_t v) {
    buf.resize(buf.size() + 8);
    wire::store_u64(buf.data() + buf.size() - 8, v);
  };
  std::memcpy(buf.data(), kStoreMetaMagic, 8);
  wire::store_u64(buf.data() + 8, kMetaFormatVersion);
  wire::store_u64(buf.data() + 16, segment_bytes);
  wire::store_u64(buf.data() + 24, 1);  // the table count
  put(t.steps.size());
  put(t.tools.size());
  put(t.num_states);
  put(t.num_actions);
  for (const adl::StepId id : t.steps) put(static_cast<std::uint64_t>(id));
  for (const adl::ToolId id : t.tools) put(static_cast<std::uint64_t>(id));
  put(wire::checksum64(buf.data(), buf.size()));
  return buf;
}

/// The table of a store.meta image whose magic, version and trailer
/// checked out; nullopt when it is malformed or degenerate: a table count
/// other than 1, a zero-dimension table, a table too large for a segment,
/// a count that overruns the image, or bytes left over. Every count is
/// bounded before it sizes anything.
std::optional<TableSchema> decode_meta_table(
    std::span<const unsigned char> meta) {
  const std::size_t end = meta.size() - 8;
  std::size_t pos = kMetaPrefixBytes;
  const auto take = [&](std::uint64_t& v) {
    if (end - pos < 8) return false;
    v = wire::load_u64(meta.data() + pos);
    pos += 8;
    return true;
  };
  std::uint64_t n_steps = 0, n_tools = 0, n_states = 0, n_actions = 0;
  if (wire::load_u64(meta.data() + 24) != 1 || !take(n_steps) ||
      !take(n_tools) || !take(n_states) || !take(n_actions)) {
    return std::nullopt;
  }
  if (n_states == 0 || n_actions == 0 || n_states > kMaxTableCells ||
      n_actions > kMaxTableCells || n_states * n_actions > kMaxTableCells ||
      n_steps > (end - pos) / 8 || n_tools > (end - pos) / 8 - n_steps) {
    return std::nullopt;
  }
  TableSchema t;
  t.num_states = static_cast<std::size_t>(n_states);
  t.num_actions = static_cast<std::size_t>(n_actions);
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < n_steps && take(v); ++i) {
    t.steps.push_back(static_cast<adl::StepId>(v));
  }
  for (std::uint64_t i = 0; i < n_tools && take(v); ++i) {
    t.tools.push_back(static_cast<adl::ToolId>(v));
  }
  if (pos != end) return std::nullopt;
  return t;
}

/// Whether a delta's n_rows rows, each a row index and `t.num_actions`
/// cells, exactly fill [56, len - 8), every index naming a row of `t`. The
/// row count is bounded by the table's rows before it sizes anything, so
/// no forged field can wrap an offset or reach past the record.
bool delta_rows_fit(const unsigned char* rec, std::uint64_t len,
                    const TableSchema& t) {
  const std::uint64_t n_rows = wire::load_u64(rec + 48);
  const std::uint64_t stride = 8 * (1 + std::uint64_t{t.num_actions});
  if (n_rows > t.num_states || len - 8 != 56 + n_rows * stride) return false;
  for (std::uint64_t i = 0; i < n_rows; ++i) {
    if (wire::load_u64(rec + 56 + i * stride) >= t.num_states) return false;
  }
  return true;
}

void write_segment_header(unsigned char* base, std::uint64_t writer,
                          std::uint64_t seq, std::uint64_t bytes) {
  std::memcpy(base, kSegmentHeaderMagic, 8);
  wire::store_u64(base + 8, writer);
  wire::store_u64(base + 16, seq);
  wire::store_u64(base + 24, bytes);
  wire::store_u64(base + 32, 0);  // advisory record count
}

enum class RecordKind { kEnd, kCorrupt, kAnchor, kDelta };

/// Validates the record at `off` of a `bytes`-long segment image (the
/// caller guarantees off + kMinRecordBytes <= bytes) for tables shaped like
/// `t`, and sets `len` when it is valid. kEnd is a clean (zero-magic) tail.
/// The open-time scan and inspect both call this, so they agree on every
/// segment's longest valid prefix.
RecordKind check_record(const unsigned char* base, std::size_t off,
                        std::size_t bytes, const TableSchema& t,
                        std::uint64_t& len) {
  const unsigned char* rec = base + off;
  if (wire::load_u64(rec) == 0) return RecordKind::kEnd;
  const bool anchor = std::memcmp(rec, kAnchorMagic, 8) == 0;
  if (!anchor && std::memcmp(rec, kDeltaMagic, 8) != 0) {
    return RecordKind::kCorrupt;
  }
  const std::uint64_t n = wire::load_u64(rec + 8);
  // `n > bytes - off`, never `off + n > bytes`: a crafted length near 2^64
  // would wrap the sum below the file size. A user id the index cannot
  // hold is as malformed as a bad length.
  if (n < kMinRecordBytes || n % 8 != 0 || n > bytes - off ||
      wire::load_u64(rec + 16) >= UserIndex::kMaxUsers) {
    return RecordKind::kCorrupt;
  }
  if (anchor) {
    const std::uint64_t cells = t.num_states * t.num_actions;
    if (wire::load_u64(rec + 32) != cells || n != 8 * (6 + cells)) {
      return RecordKind::kCorrupt;
    }
  } else {
    const std::uint64_t parent = wire::load_u64(rec + 40);
    if (!delta_rows_fit(rec, n, t) || parent < kSegmentHeaderBytes ||
        parent % 8 != 0 || parent >= off) {
      return RecordKind::kCorrupt;
    }
  }
  if (wire::load_u64(rec + n - 8) != wire::checksum64(rec + 8, n - 16)) {
    return RecordKind::kCorrupt;
  }
  len = n;
  return anchor ? RecordKind::kAnchor : RecordKind::kDelta;
}

}  // namespace

struct SegmentStore::Segment {
  std::string path;
  unsigned char* base = nullptr;
  std::size_t bytes = 0;
  std::uint64_t writer = 0;
  std::uint64_t seq = 0;
  std::uint32_t id = 0;      ///< store-global, packed into index entries
  std::size_t used = 0;      ///< bytes consumed incl. header (append target)
  std::uint64_t records = 0; ///< valid records before `used`
  /// Records the index points at (newest per user).
  std::atomic<std::uint64_t> live{0};
  /// Records on some live chain: live records plus the delta ancestry
  /// under them. A segment with reachable == 0 holds nothing any load
  /// could ever need and can be unlinked.
  std::atomic<std::uint64_t> reachable{0};

  ~Segment() {
    if (base != nullptr) ::munmap(base, bytes);
  }
};

struct SegmentStore::Writer {
  Writer(std::uint64_t id, rl::QTable scratch, std::string spare_path)
      : id(id), scratch(std::move(scratch)),
        spare_path(std::move(spare_path)) {}

  std::uint64_t id = 0;
  std::vector<std::unique_ptr<Segment>> segs;
  Segment* tail = nullptr;  ///< append target; null until the first roll
  std::uint64_t next_seq = 0;
  /// This lane's user -> location slab (see user_index.hpp for why the
  /// table is per-lane).
  UserIndex index;
  /// A table, reused across appends as the delta base and across
  /// compactions as the relocation shuttle — keeps both paths
  /// allocation-free.
  rl::QTable scratch;
  /// A reclaimed segment, still mapped, that the next roll recycles (null
  /// when none). Its file lives at spare_path; its `path` is scratch space
  /// for the name it takes next.
  std::unique_ptr<Segment> spare;
  std::string spare_path;
};

SegmentStore::SegmentStore(std::span<const adl::StepId> steps,
                           std::span<const adl::ToolId> tools,
                           std::size_t num_states, std::size_t num_actions,
                           SegmentStoreParams params)
    : params_(std::move(params)),
      table_{{steps.begin(), steps.end()},
             {tools.begin(), tools.end()},
             num_states,
             num_actions} {
  if (params_.dir.empty()) {
    throw std::invalid_argument("SegmentStore: dir is required");
  }
  if (params_.writers == 0) {
    throw std::invalid_argument("SegmentStore: writers must be >= 1");
  }
  if (num_states == 0 || num_actions == 0) {
    throw std::invalid_argument("SegmentStore: degenerate table shape");
  }
  if (params_.segment_bytes > kMaxSegmentBytes) {
    throw std::invalid_argument(
        "SegmentStore: segment_bytes above 8 MiB — the flat index packs "
        "record offsets into 20 bits of offset/8");
  }
  params_.rebase_every =
      std::clamp<std::size_t>(params_.rebase_every, 1, kMaxChainRecords);
  if (num_states > kMaxTableCells / num_actions) {
    throw std::invalid_argument(
        "SegmentStore: table too large for an 8 MiB segment");
  }
  anchor_bytes_ = 8 * (6 + num_states * num_actions);
  for (std::size_t w = 0; w < params_.writers; ++w) {
    writers_.push_back(std::make_unique<Writer>(
        w, rl::QTable(num_states, num_actions),
        params_.dir + "/seg-w" + std::to_string(w) + ".spare"));
  }
  seg_by_id_.assign(UserIndex::kMaxSegments, nullptr);
  fs::create_directories(params_.dir);
  if (fs::exists(params_.dir + "/" + kMetaFileName)) {
    validate_meta();
  } else {
    write_meta();
  }
  open_existing_segments();
}

SegmentStore::~SegmentStore() {
  // A spare holds nothing a load could reach: it goes with the store.
  for (const auto& w : writers_) {
    if (w->spare == nullptr) continue;
    w->spare.reset();  // munmap before unlink
    ::unlink(w->spare_path.c_str());
  }
}

void SegmentStore::write_meta() const {
  const std::vector<unsigned char> buf =
      encode_meta(table_, params_.segment_bytes);
  const std::string path = params_.dir + "/" + kMetaFileName;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    if (!out.flush()) {
      throw std::runtime_error("SegmentStore: cannot write " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("SegmentStore: cannot publish " + path);
  }
}

void SegmentStore::validate_meta() const {
  const std::string path = params_.dir + "/" + kMetaFileName;
  std::ifstream in(path, std::ios::binary);
  std::vector<unsigned char> buf{std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>()};
  if (buf.size() < kMetaPrefixBytes + 8 ||
      std::memcmp(buf.data(), kStoreMetaMagic, 8) != 0) {
    throw std::runtime_error("SegmentStore: " + path +
                             " is not a coreda-policy store");
  }
  // The version comes before the trailer: a store written by another
  // format also fails this build's checksum, and must be refused as a
  // format mismatch rather than reported as corruption.
  const std::uint64_t format = wire::load_u64(buf.data() + 8);
  if (format != kMetaFormatVersion) {
    throw std::runtime_error(
        "SegmentStore: " + path + " is store format " +
        std::to_string(format) + "; this build reads format " +
        std::to_string(kMetaFormatVersion));
  }
  if (wire::load_u64(buf.data() + buf.size() - 8) !=
      wire::checksum64(buf.data(), buf.size() - 8)) {
    throw std::runtime_error("SegmentStore: " + path + " checksum mismatch");
  }
  const std::uint64_t count = wire::load_u64(buf.data() + 24);
  if (count != 1) {
    throw std::runtime_error("SegmentStore: " + path + " holds " +
                             std::to_string(count) +
                             " tables per record; this build reads one");
  }
  const std::optional<TableSchema> table = decode_meta_table(buf);
  if (!table) {
    throw std::runtime_error("SegmentStore: " + path +
                             " has a malformed or degenerate table");
  }
  if (*table != table_) {
    throw std::runtime_error(
        "SegmentStore: " + path +
        " holds another table (shape or vocabularies differ from this "
        "deployment's)");
  }
}

void SegmentStore::open_existing_segments() {
  struct Found {
    std::uint64_t writer;
    std::uint64_t seq;
    std::string path;
  };
  std::vector<Found> found;
  for (const fs::directory_entry& de : fs::directory_iterator(params_.dir)) {
    std::uint64_t w = 0, seq = 0;
    if (de.is_regular_file() &&
        parse_segment_file_name(de.path().filename().string(), w, seq)) {
      found.push_back({w, seq, de.path().string()});
    }
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return a.writer != b.writer ? a.writer < b.writer : a.seq < b.seq;
  });

  // Phase 1: map + validate every header, collecting the advisory record
  // counts. No records are touched yet.
  std::vector<std::unique_ptr<Segment>> opened;
  std::vector<std::uint64_t> advisory;
  for (const Found& f : found) {
    auto seg = std::make_unique<Segment>();
    seg->path = f.path;
    seg->writer = f.writer;
    seg->seq = f.seq;
    if (opened.size() >= UserIndex::kMaxSegments) {
      throw std::runtime_error("SegmentStore: segment id space exhausted");
    }
    seg->id = static_cast<std::uint32_t>(opened.size());
    const int fd = ::open(f.path.c_str(), O_RDWR);
    if (fd < 0) {
      throw std::runtime_error("SegmentStore: cannot open " + f.path);
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      throw std::runtime_error("SegmentStore: cannot stat " + f.path);
    }
    seg->bytes = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, seg->bytes, PROT_READ | PROT_WRITE,
                       MAP_SHARED, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
      throw std::runtime_error("SegmentStore: cannot mmap " + f.path);
    }
    seg->base = static_cast<unsigned char*>(map);
    if (seg->bytes < kSegmentHeaderBytes ||
        seg->bytes > kMaxSegmentBytes ||
        std::memcmp(seg->base, kSegmentHeaderMagic, 8) != 0 ||
        wire::load_u64(seg->base + 8) != f.writer ||
        wire::load_u64(seg->base + 16) != f.seq) {
      throw std::runtime_error("SegmentStore: " + f.path +
                               " header does not match this store's schema");
    }
    const std::uint64_t file_bytes = wire::load_u64(seg->base + 24);
    if (file_bytes < kSegmentHeaderBytes || file_bytes > seg->bytes) {
      throw std::runtime_error("SegmentStore: " + f.path +
                               " is shorter than its header claims");
    }
    // Advisory only — a torn in-place header update cannot corrupt the
    // store, just mis-size the pre-reserve. Clamp to what could fit.
    const std::uint64_t count = std::min<std::uint64_t>(
        wire::load_u64(seg->base + 32), seg->bytes / kMinRecordBytes);
    // Batch the cold-start scan: tell the kernel to read the whole file
    // ahead instead of faulting page by page as the scan walks it.
    ::posix_madvise(seg->base, seg->bytes, POSIX_MADV_WILLNEED);
    advisory.push_back(count);
    opened.push_back(std::move(seg));
  }

  // Phase 2: pre-reserve every lane's index slab so the scan below does
  // zero allocations per record. Lane w's users live in lane-w segments
  // while the writer count is stable; retired/foreign segments could feed
  // any lane, so their counts pad every lane (put_grow still covers a
  // writer-count change, at the cost of a rehash).
  std::vector<std::uint64_t> per_writer(params_.writers, 0);
  std::uint64_t foreign = 0;
  for (std::size_t i = 0; i < opened.size(); ++i) {
    if (opened[i]->writer < params_.writers) {
      per_writer[opened[i]->writer] += advisory[i];
    } else {
      foreign += advisory[i];
    }
  }
  for (std::size_t w = 0; w < params_.writers; ++w) {
    writers_[w]->index.reserve(per_writer[w] + foreign);
  }

  // Phase 3: scan every record into the index.
  for (const auto& seg : opened) seg_by_id_[seg->id] = seg.get();
  scan_segments(opened);
  for (auto& seg : opened) {
    if (seg->writer < params_.writers) {
      Writer& w = *writers_[seg->writer];
      w.next_seq = std::max(w.next_seq, seg->seq + 1);
      w.tail = seg.get();  // ascending seq: the last segment wins the tail
      w.segs.push_back(std::move(seg));
    } else {
      retired_.push_back(std::move(seg));
    }
  }
  next_seg_id_.store(static_cast<std::uint32_t>(opened.size()),
                     std::memory_order_relaxed);
}

void SegmentStore::scan_segments(
    std::span<const std::unique_ptr<Segment>> segs) {
  std::size_t lanes = 0;  // lanes holding a segment, retired ids included
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (i == 0 || segs[i]->writer != segs[i - 1]->writer) ++lanes;
  }
  // The checksums are most of the scan, and verifying touches no index:
  // the segments verify on one job per lane that holds segments (a 1-lane
  // store, e.g. every 1-writer store, verifies on this thread).
  exec::TrialRunner runner(std::max<std::size_t>(
      1, std::min({lanes, exec::ThreadPool::hardware_workers(),
                   exec::TrialRunner::kMaxJobs})));
  runner.run(segs.size(), 0, [this, &segs](exec::TrialContext& ctx) -> char {
    verify_segment(*segs[ctx.index]);
    return 0;  // the verdict lands in the segment's used and records
  });
  // Publish in (writer, seq, offset) order: that order makes "equal
  // version seen later wins" pick compaction copies.
  for (const auto& seg : segs) {
    for (std::size_t off = kSegmentHeaderBytes; off < seg->used;) {
      const unsigned char* rec = seg->base + off;
      publish_index(wire::load_u64(rec + 16), *seg, off,
                    wire::load_u64(rec + 24));
      off += static_cast<std::size_t>(wire::load_u64(rec + 8));
    }
    scanned_records_ += seg->records;
  }
}

void SegmentStore::verify_segment(Segment& seg) const noexcept {
  seg.used = kSegmentHeaderBytes;
  seg.records = 0;
  while (seg.used + kMinRecordBytes <= seg.bytes) {
    std::uint64_t len = 0;
    const RecordKind kind =
        check_record(seg.base, seg.used, seg.bytes, table_, len);
    // A clean tail (or a crashed, unpublished append) ends the segment.
    // Variable strides mean a record after an invalid one cannot be
    // located: the valid prefix ends there too, and the next append
    // overwrites whatever follows.
    if (kind == RecordKind::kEnd || kind == RecordKind::kCorrupt) break;
    ++seg.records;
    seg.used += len;
  }
  // Resync the advisory header count (e.g. after recovering a torn tail)
  // so the next reopen pre-reserves exactly.
  wire::store_u64(seg.base + 32, seg.records);
}

std::uint64_t SegmentStore::version_at(UserIndex::Loc loc) const noexcept {
  const Segment* seg = seg_by_id_[loc.seg];
  return wire::load_u64(seg->base + std::size_t{loc.off8} * 8 + 24);
}

std::size_t SegmentStore::chain_depth(UserIndex::Loc loc) const noexcept {
  const Segment* seg = seg_by_id_[loc.seg];
  if (seg == nullptr) return params_.rebase_every + 1;
  std::size_t off = std::size_t{loc.off8} * 8;
  std::size_t depth = 1;
  while (true) {
    const unsigned char* rec = seg->base + off;
    if (std::memcmp(rec, kAnchorMagic, 8) == 0) return depth;
    if (std::memcmp(rec, kDeltaMagic, 8) != 0 || depth > kMaxChainRecords) {
      return params_.rebase_every + 1;  // anomaly: force a rebase
    }
    const std::uint64_t parent = wire::load_u64(rec + 40);
    if (parent < kSegmentHeaderBytes || parent % 8 != 0 || parent >= off) {
      return params_.rebase_every + 1;
    }
    off = static_cast<std::size_t>(parent);
    ++depth;
  }
}

void SegmentStore::publish_index(std::uint64_t user, Segment& seg,
                                 std::uint64_t offset, std::uint64_t version) {
  Writer& w = writer_for(user);
  const UserIndex::Loc loc{seg.id, static_cast<std::uint32_t>(offset / 8)};
  UserIndex::Loc old;
  bool extends = false;
  if (w.index.find(user, old)) {
    // Scan order is (writer, seq, offset) ascending, so an equal version
    // seen later is a compaction copy of the same table: later wins.
    if (version < version_at(old)) return;
    Segment* oseg = seg_by_id_[old.seg];
    oseg->live.fetch_sub(1, std::memory_order_relaxed);
    // A delta whose parent is the superseded record extends its chain —
    // the old records stay reachable underneath it.
    if (old.seg == seg.id) {
      const unsigned char* rec = seg.base + offset;
      extends = std::memcmp(rec, kDeltaMagic, 8) == 0 &&
                wire::load_u64(rec + 40) == std::uint64_t{old.off8} * 8;
    }
    if (!extends) {
      oseg->reachable.fetch_sub(chain_depth(old), std::memory_order_relaxed);
    }
  }
  w.index.put_grow(user, loc);
  seg.live.fetch_add(1, std::memory_order_relaxed);
  seg.reachable.fetch_add(extends ? 1 : chain_depth(loc),
                          std::memory_order_relaxed);
  if (user >= reserved_users_) reserved_users_ = user + 1;
}

void SegmentStore::size_lanes(std::uint64_t users,
                              void (UserIndex::*size)(std::uint64_t)) {
  if (users > UserIndex::kMaxUsers) {
    throw std::invalid_argument("SegmentStore: too many users for the index");
  }
  if (users > reserved_users_) reserved_users_ = users;
  for (std::size_t w = 0; w < params_.writers; ++w) {
    // Lane w owns users w, w+W, w+2W, ... below `users`.
    const std::uint64_t lane_users =
        users > w ? (users - w - 1) / params_.writers + 1 : 0;
    (writers_[w]->index.*size)(lane_users);
  }
  sized_users_ = std::max(sized_users_, users);
}

std::size_t SegmentStore::fresh_segment_bytes() const noexcept {
  return std::max(params_.segment_bytes, kSegmentHeaderBytes + anchor_bytes_);
}

void SegmentStore::set_segment_path(std::string& path, std::uint64_t writer,
                                    std::uint64_t seq) const {
  char name[64];
  std::snprintf(name, sizeof name, "/seg-w%llu-%06llu.seg",
                static_cast<unsigned long long>(writer),
                static_cast<unsigned long long>(seq));
  // assign/append reuse the string's buffer: a recycled segment renames
  // itself without allocating.
  path.assign(params_.dir);
  path.append(name);
}

SegmentStore::Segment* SegmentStore::recycle_spare(Writer& w) {
  Segment& seg = *w.spare;
  // Until the rename, the file keeps the spare name that open, scan and
  // inspect never parse, so a crash before it leaves an ignored spare.
  // Scrub first: no record of the previous life may survive into the new
  // one, and the new life's bytes then equal a fresh file's.
  recycle_site_.crash_point(w.id, 0, w.spare_path);
  const std::size_t mid =
      kSegmentHeaderBytes + (seg.bytes - kSegmentHeaderBytes) / 2;
  std::memset(seg.base + kSegmentHeaderBytes, 0, mid - kSegmentHeaderBytes);
  recycle_site_.crash_point(w.id, 1, w.spare_path);
  std::memset(seg.base + mid, 0, seg.bytes - mid);
  // Header before rename: open throws on a segment whose header's
  // writer/seq disagree with its file name.
  write_segment_header(seg.base, w.id, w.next_seq, seg.bytes);
  recycle_site_.crash_point(w.id, 2, w.spare_path);
  set_segment_path(seg.path, w.id, w.next_seq);
  if (::rename(w.spare_path.c_str(), seg.path.c_str()) != 0) {
    w.spare.reset();  // the spare's file is gone: roll a fresh one instead
    return nullptr;
  }
  seg.seq = w.next_seq++;
  seg.used = kSegmentHeaderBytes;
  seg.records = 0;
  seg.live.store(0, std::memory_order_relaxed);
  seg.reachable.store(0, std::memory_order_relaxed);
  Segment* raw = w.spare.get();
  seg_by_id_[raw->id] = raw;  // the spare kept its id: nothing points there
  w.segs.push_back(std::move(w.spare));
  w.tail = raw;
  recycle_site_.crash_point(w.id, 3, raw->path);
  return raw;
}

void SegmentStore::reclaim(Writer& w, const Segment& seg) {
  const auto it = std::find_if(
      w.segs.begin(), w.segs.end(),
      [&seg](const std::unique_ptr<Segment>& s) { return s.get() == &seg; });
  if (it == w.segs.end()) return;
  std::unique_ptr<Segment> owned = std::move(*it);
  w.segs.erase(it);
  reclaimed_.fetch_add(1, std::memory_order_relaxed);
  retire(w, std::move(owned));
}

void SegmentStore::retire(Writer& w, std::unique_ptr<Segment> seg) {
  seg_by_id_[seg->id] = nullptr;
  // rename() replaces a spare a crash left behind.
  if (w.spare == nullptr && seg->bytes == fresh_segment_bytes() &&
      ::rename(seg->path.c_str(), w.spare_path.c_str()) == 0) {
    w.spare = std::move(seg);
    return;
  }
  const std::string path = std::move(seg->path);
  seg.reset();  // munmap before unlink
  ::unlink(path.c_str());
}

SegmentStore::Segment* SegmentStore::new_segment(Writer& w) {
  if (w.spare != nullptr) {
    if (Segment* recycled = recycle_spare(w)) return recycled;
  }
  const std::uint32_t id =
      next_seg_id_.fetch_add(1, std::memory_order_relaxed);
  if (id >= UserIndex::kMaxSegments) {
    // Ids of unlinked segments are never reused (16384 of them — far
    // beyond any bench or soak; a recycled spare keeps its id).
    throw std::runtime_error("SegmentStore: segment id space exhausted");
  }
  auto seg = std::make_unique<Segment>();
  seg->writer = w.id;
  seg->seq = w.next_seq++;
  seg->id = id;
  seg->bytes = fresh_segment_bytes();
  set_segment_path(seg->path, w.id, seg->seq);
  const int fd = ::open(seg->path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("SegmentStore: cannot create " + seg->path);
  }
  if (::ftruncate(fd, static_cast<off_t>(seg->bytes)) != 0) {
    ::close(fd);
    throw std::runtime_error("SegmentStore: cannot size " + seg->path);
  }
  void* map =
      ::mmap(nullptr, seg->bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    throw std::runtime_error("SegmentStore: cannot mmap " + seg->path);
  }
  seg->base = static_cast<unsigned char*>(map);
  write_segment_header(seg->base, w.id, seg->seq, seg->bytes);
  seg->used = kSegmentHeaderBytes;
  Segment* raw = seg.get();
  seg_by_id_[id] = raw;
  w.segs.push_back(std::move(seg));
  w.tail = raw;
  return raw;
}

std::size_t SegmentStore::write_record(Writer& w, std::uint64_t user,
                                       const rl::QTable& q,
                                       std::uint64_t version,
                                       bool allow_delta) {
  bool use_delta = false;
  std::size_t n_rows = 0;
  std::size_t delta_bytes = 0;
  std::uint64_t parent_version = 0;
  std::uint64_t parent_off = 0;
  UserIndex::Loc cur{};
  const bool have_cur = w.index.find(user, cur);
  if (allow_delta && params_.rebase_every > 1 && have_cur) {
    Segment* cseg = seg_by_id_[cur.seg];
    // Chains never span segments, so a delta is only possible when the
    // previous record already sits in the current tail.
    if (cseg != nullptr && cseg == w.tail &&
        chain_depth(cur) < params_.rebase_every) {
      bool base_ok = true;
      try {
        load(user, w.scratch);
      } catch (const std::runtime_error&) {
        base_ok = false;  // rot under the chain: rebase with an anchor
      }
      if (base_ok) {
        n_rows = planning::count_changed_rows(w.scratch, q);
        delta_bytes = 8 * (8 + n_rows * (1 + table_.num_actions));
        if (delta_bytes < anchor_bytes_) {
          use_delta = true;
          parent_off = std::uint64_t{cur.off8} * 8;
          parent_version = wire::load_u64(cseg->base + parent_off + 24);
        }
      }
    }
  }
  std::size_t need = use_delta ? delta_bytes : anchor_bytes_;
  Segment* seg = w.tail;
  if (seg == nullptr || seg->used + need > seg->bytes) {
    seg = new_segment(w);
    if (use_delta) {  // the parent stayed behind: rebase instead
      use_delta = false;
      need = anchor_bytes_;
    }
  }
  unsigned char* rec = seg->base + seg->used;
  wire::store_u64(rec, 0);  // never expose a stale magic while the body lands
  wire::store_u64(rec + 8, need);
  wire::store_u64(rec + 16, user);
  wire::store_u64(rec + 24, version);
  if (use_delta) {
    wire::store_u64(rec + 32, parent_version);
    wire::store_u64(rec + 40, parent_off);
    wire::store_u64(rec + 48, n_rows);
    planning::encode_changed_rows(w.scratch, q, rec + 56);
  } else {
    wire::store_u64(rec + 32, table_.num_states * table_.num_actions);
    unsigned char* qp = rec + 40;
    for (rl::StateId s = 0; s < q.num_states(); ++s) {
      for (const double v : q.row(s)) {
        wire::store_f64(qp, v);
        qp += 8;
      }
    }
  }
  wire::store_u64(rec + need - 8, wire::checksum64(rec + 8, need - 16));
  // Fault tick: a compaction rebase (the only !allow_delta caller) re-writes
  // a (user, version) pair whose original append already proved fault-free,
  // so it gets its own keying bit — otherwise planned crashes could never
  // hit the rebase publish.
  const std::uint64_t fault_tick =
      allow_delta ? version : (version | (1ULL << 63));
  pre_publish_site_.crash_point(user, fault_tick, seg->path);
  // Corruption seam, append-window flavor: flip a byte of the fully-written
  // but unpublished record and abort. The magic stays zero and the tail
  // does not advance, so the torn bytes are exactly the debris a power cut
  // leaves — overwritten by the next append, stopped at by the next scan.
  const std::size_t corrupt_at =
      corrupt_site_.corrupt_offset(user, fault_tick, need);
  if (corrupt_at != faults::Site::kNoCorruption) {
    rec[corrupt_at] ^= 0x5A;
    throw faults::InjectedCrash("segment_store.corrupt: torn record in " +
                                seg->path);
  }
  // Publish: only now can a scan (or a crashed restart) see the record.
  std::memcpy(rec, use_delta ? kDeltaMagic : kAnchorMagic, 8);
  const auto off8 = static_cast<std::uint32_t>(seg->used / 8);
  seg->used += need;
  ++seg->records;
  wire::store_u64(seg->base + 32, seg->records);  // advisory reopen count
  if (have_cur) {
    Segment* oseg = seg_by_id_[cur.seg];
    // A delta keeps its whole ancestry reachable; an anchor orphans it.
    if (!use_delta) {
      oseg->reachable.fetch_sub(chain_depth(cur), std::memory_order_relaxed);
    }
    // The live decrement is this append's last touch of the old segment
    // (acq_rel: see the writer-partitioning note in the header). When it
    // empties one of this writer's older segments, no load can reach
    // anything there any more: reclaim it now, copying nothing.
    if (oseg->live.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        oseg != seg && oseg->writer == w.id) {
      reclaim(w, *oseg);
    }
  }
  w.index.put(user, UserIndex::Loc{seg->id, off8});
  seg->live.fetch_add(1, std::memory_order_relaxed);
  seg->reachable.fetch_add(1, std::memory_order_relaxed);
  (use_delta ? delta_records_ : anchor_records_)
      .fetch_add(1, std::memory_order_relaxed);
  return need;
}

void SegmentStore::append(std::uint64_t user, const rl::QTable& q,
                          std::uint64_t version) {
  if (q.num_states() != table_.num_states ||
      q.num_actions() != table_.num_actions) {
    throw std::runtime_error(
        "SegmentStore::append: table shape does not match the store's");
  }
  if (user >= reserved_users_) {
    throw std::runtime_error(
        "SegmentStore::append: user id beyond reserve_users()");
  }
  Writer& w = writer_for(user);
  maybe_compact(w);
  const std::size_t bytes = write_record(w, user, q, version, true);
  appends_.fetch_add(1, std::memory_order_relaxed);
  appended_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

std::optional<std::uint64_t> SegmentStore::latest_version(
    std::uint64_t user) const {
  const Writer& w = writer_for(user);
  UserIndex::Loc loc;
  if (!w.index.find(user, loc)) return std::nullopt;
  return version_at(loc);
}

std::optional<std::uint64_t> SegmentStore::load(std::uint64_t user,
                                                rl::QTable& q) const {
  if (q.num_states() != table_.num_states ||
      q.num_actions() != table_.num_actions) {
    throw std::runtime_error(
        "SegmentStore::load: table shape does not match the store's");
  }
  const Writer& w = writer_for(user);
  UserIndex::Loc loc;
  if (!w.index.find(user, loc)) return std::nullopt;
  const Segment* seg = seg_by_id_[loc.seg];
  const unsigned char* base = seg->base;
  const std::size_t off0 = std::size_t{loc.off8} * 8;
  const auto fail = [user] {
    return std::runtime_error(
        "SegmentStore::load: record failed validation (bit rot since the "
        "open-time scan) for user " +
        std::to_string(user));
  };

  // Validate the whole chain newest -> anchor before touching the table: it
  // is written only after every record it depends on has checked out.
  std::array<const unsigned char*, kMaxChainRecords + 1> chain;
  std::size_t depth = 0;
  std::size_t off = off0;
  std::uint64_t expect_version = 0;
  bool expect = false;  // the child's parent_version pins this version
  while (true) {
    if (off + kMinRecordBytes > seg->bytes) throw fail();
    const unsigned char* rec = base + off;
    const bool anchor = std::memcmp(rec, kAnchorMagic, 8) == 0;
    const bool is_delta = !anchor && std::memcmp(rec, kDeltaMagic, 8) == 0;
    if (!anchor && !is_delta) throw fail();
    const std::uint64_t len = wire::load_u64(rec + 8);
    if (len < kMinRecordBytes || len % 8 != 0 || len > seg->bytes - off) {
      throw fail();
    }
    if (wire::load_u64(rec + 16) != user) throw fail();
    const std::uint64_t version = wire::load_u64(rec + 24);
    if (expect && version != expect_version) throw fail();
    if (wire::load_u64(rec + len - 8) != wire::checksum64(rec + 8, len - 16)) {
      throw fail();
    }
    if (depth >= chain.size()) throw fail();
    if (anchor) {
      if (len != anchor_bytes_ ||
          wire::load_u64(rec + 32) != table_.num_states * table_.num_actions) {
        throw fail();
      }
      chain[depth++] = rec;
      break;
    }
    if (!delta_rows_fit(rec, len, table_)) throw fail();
    const std::uint64_t parent = wire::load_u64(rec + 40);
    if (parent < kSegmentHeaderBytes || parent % 8 != 0 || parent >= off) {
      throw fail();
    }
    chain[depth++] = rec;
    expect = true;
    expect_version = wire::load_u64(rec + 32);
    off = static_cast<std::size_t>(parent);
  }

  // Apply: the anchor, then every delta oldest -> newest.
  const unsigned char* qp = chain[depth - 1] + 40;
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    for (double& v : q.row_mut(s)) {
      v = wire::load_f64(qp);
      qp += 8;
    }
  }
  for (std::size_t i = depth - 1; i-- > 0;) {
    const unsigned char* rec = chain[i];
    const std::uint64_t n_rows = wire::load_u64(rec + 48);
    const unsigned char* rp = rec + 56;
    for (std::uint64_t r = 0; r < n_rows; ++r) {
      const auto row = static_cast<rl::StateId>(wire::load_u64(rp));
      rp += 8;
      for (double& v : q.row_mut(row)) {
        v = wire::load_f64(rp);
        rp += 8;
      }
    }
  }
  return wire::load_u64(chain[0] + 24);
}

void SegmentStore::maybe_compact(Writer& w) {
  std::uint64_t consumed = 0, reachable = 0;
  for (const auto& s : w.segs) {
    consumed += s->records;
    reachable += s->reachable.load(std::memory_order_relaxed);
  }
  if (consumed < params_.compact_min_records) return;
  const std::uint64_t dead = consumed - std::min(reachable, consumed);
  if (static_cast<double>(dead) <=
      params_.compact_dead_ratio * static_cast<double>(consumed)) {
    return;
  }
  compact_writer(w);
}

void SegmentStore::compact_writer(Writer& w) {
  // Sorted users make the rebased record order — and therefore the fresh
  // segment bytes — independent of index layout history: the cross---jobs
  // byte-identity contract extends through compaction.
  std::vector<std::uint64_t> users;
  users.reserve(static_cast<std::size_t>(w.index.size()));
  w.index.for_each(
      [&users](std::uint64_t u, UserIndex::Loc) { users.push_back(u); });
  std::sort(users.begin(), users.end());
  std::vector<std::unique_ptr<Segment>> old = std::move(w.segs);
  w.segs.clear();
  w.tail = nullptr;
  try {
    for (const std::uint64_t u : users) {
      std::optional<std::uint64_t> v;
      try {
        v = load(u, w.scratch);
      } catch (const std::runtime_error&) {
        // Bit rot since the open-time scan: leave this user's entry
        // pointing into its old segment (reachable > 0 keeps the file).
        continue;
      }
      if (!v) continue;
      // Anchor rebase: every live user restarts as a fresh full record.
      write_record(w, u, w.scratch, *v, /*allow_delta=*/false);
    }
  } catch (...) {
    // Crash seam / I/O failure mid-rebase: stitch the old segments back in
    // front of whatever fresh ones were already written. Users already
    // rebased keep their new locations; everything else still points into
    // the old chain. The store stays fully consistent.
    std::vector<std::unique_ptr<Segment>> fresh = std::move(w.segs);
    w.segs = std::move(old);
    for (auto& s : fresh) w.segs.push_back(std::move(s));
    throw;
  }
  // Retire segments no index entry points into any more (the first may
  // become the spare the rebase just used up). A segment still holding
  // another writer's users (possible after a writers-count change)
  // survives, ahead of the fresh tail so appends keep landing at the end.
  std::vector<std::unique_ptr<Segment>> fresh = std::move(w.segs);
  w.segs.clear();
  for (auto& s : old) {
    if (s->live.load(std::memory_order_acquire) == 0) {
      retire(w, std::move(s));
    } else {
      w.segs.push_back(std::move(s));
    }
  }
  for (auto& s : fresh) w.segs.push_back(std::move(s));
  compactions_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t SegmentStore::num_segments() const noexcept {
  std::size_t n = retired_.size();
  for (const auto& w : writers_) n += w->segs.size();
  return n;
}

std::uint64_t SegmentStore::live_records() const noexcept {
  std::uint64_t live = 0;
  for (const auto& w : writers_) {
    for (const auto& s : w->segs) {
      live += s->live.load(std::memory_order_relaxed);
    }
  }
  for (const auto& s : retired_) {
    live += s->live.load(std::memory_order_relaxed);
  }
  return live;
}

std::uint64_t SegmentStore::dead_records() const noexcept {
  std::uint64_t consumed = 0, reachable = 0;
  for (const auto& w : writers_) {
    for (const auto& s : w->segs) {
      consumed += s->records;
      reachable += s->reachable.load(std::memory_order_relaxed);
    }
  }
  for (const auto& s : retired_) {
    consumed += s->records;
    reachable += s->reachable.load(std::memory_order_relaxed);
  }
  return consumed - std::min(reachable, consumed);
}

std::size_t SegmentStore::index_slab_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& w : writers_) bytes += w->index.slab_bytes();
  return bytes;
}

std::vector<std::uint64_t> SegmentStore::user_ids() const {
  std::vector<std::uint64_t> users;
  for (const auto& w : writers_) {
    users.reserve(users.size() + static_cast<std::size_t>(w->index.size()));
    w->index.for_each(
        [&users](std::uint64_t u, UserIndex::Loc) { users.push_back(u); });
  }
  std::sort(users.begin(), users.end());
  return users;
}

bool SegmentStore::is_store_dir(const std::string& dir) {
  std::error_code ec;
  return fs::is_regular_file(dir + "/" + kMetaFileName, ec);
}

SegmentStore::Info SegmentStore::inspect(const std::string& dir) {
  Info info;
  std::ifstream meta_in(dir + "/" + kMetaFileName, std::ios::binary);
  std::vector<unsigned char> meta{std::istreambuf_iterator<char>(meta_in),
                                  std::istreambuf_iterator<char>()};
  if (meta.size() < 16 || std::memcmp(meta.data(), kStoreMetaMagic, 8) != 0) {
    return info;
  }
  info.meta_format = wire::load_u64(meta.data() + 8);
  if (info.meta_format != kMetaFormatVersion ||
      meta.size() < kMetaPrefixBytes + 8 ||
      wire::load_u64(meta.data() + meta.size() - 8) !=
          wire::checksum64(meta.data(), meta.size() - 8)) {
    return info;
  }
  std::optional<TableSchema> table = decode_meta_table(meta);
  if (!table) return info;
  info.meta_ok = true;
  info.table = std::move(*table);

  struct FileKey {
    std::uint64_t writer;
    std::uint64_t seq;
    std::string path;
  };
  std::vector<FileKey> files;
  for (const fs::directory_entry& de : fs::directory_iterator(dir)) {
    std::uint64_t w = 0, seq = 0;
    if (de.is_regular_file() &&
        parse_segment_file_name(de.path().filename().string(), w, seq)) {
      files.push_back({w, seq, de.path().string()});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const FileKey& a, const FileKey& b) {
              return a.writer != b.writer ? a.writer < b.writer
                                          : a.seq < b.seq;
            });

  struct Latest {
    std::size_t file = 0;
    std::uint64_t version = 0;
    std::uint32_t depth = 0;
  };
  std::map<std::uint64_t, Latest> latest;  // user -> newest record
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    SegmentInfo detail;
    detail.writer = files[fi].writer;
    detail.seq = files[fi].seq;
    ++info.segments;
    std::ifstream in(files[fi].path, std::ios::binary);
    std::vector<unsigned char> buf{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
    const auto publish = [&](std::uint64_t user, std::uint64_t version,
                             std::uint32_t depth) {
      auto [it, inserted] = latest.emplace(user, Latest{fi, version, depth});
      if (!inserted && version >= it->second.version) {
        it->second = Latest{fi, version, depth};
      }
      info.max_version = std::max(info.max_version, version);
    };
    if (buf.size() >= kSegmentHeaderBytes &&
        std::memcmp(buf.data(), kSegmentHeaderMagic, 8) == 0) {
      // offset -> chain depth of the record starting there (chains are
      // segment-local, so one per-file map suffices).
      std::unordered_map<std::uint64_t, std::uint32_t> depth_at;
      std::size_t off = kSegmentHeaderBytes;
      while (off + kMinRecordBytes <= buf.size()) {
        std::uint64_t len = 0;
        const RecordKind kind =
            check_record(buf.data(), off, buf.size(), info.table, len);
        if (kind == RecordKind::kEnd) break;  // tail
        if (kind == RecordKind::kCorrupt) {
          ++info.corrupt_records;  // prefix ends: the rest is unreachable
          break;
        }
        const unsigned char* rec = buf.data() + off;
        std::uint32_t depth = 1;
        if (kind == RecordKind::kAnchor) {
          ++info.anchors;
          ++detail.anchors;
        } else {
          ++info.deltas;
          ++detail.deltas;
          const auto pit = depth_at.find(wire::load_u64(rec + 40));
          depth = (pit != depth_at.end() ? pit->second : 0) + 1;
        }
        depth_at.emplace(off, depth);
        ++info.records;
        publish(wire::load_u64(rec + 16), wire::load_u64(rec + 24), depth);
        off += len;
      }
    } else {
      ++info.corrupt_records;
    }
    info.segment_details.push_back(detail);
  }
  info.users = latest.size();
  info.live_records = latest.size();
  std::vector<std::uint64_t> depth_sum(files.size(), 0);
  std::vector<std::uint64_t> live_count(files.size(), 0);
  std::uint64_t total_depth = 0;
  for (const auto& [user, l] : latest) {
    depth_sum[l.file] += l.depth;
    ++live_count[l.file];
    total_depth += l.depth;
  }
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    info.segment_details[fi].live = live_count[fi];
    info.segment_details[fi].mean_chain_length =
        live_count[fi] == 0 ? 0.0
                            : static_cast<double>(depth_sum[fi]) /
                                  static_cast<double>(live_count[fi]);
  }
  info.mean_chain_length =
      latest.empty() ? 0.0
                     : static_cast<double>(total_depth) /
                           static_cast<double>(latest.size());
  return info;
}

}  // namespace coreda::serve
