#include "planning/serialize.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/wire.hpp"

namespace coreda::planning {

// --------------------------------------------------------------------------
// v2 table records
// --------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Serializes little-endian u64/f64 into a growing byte buffer; the FNV-1a
/// checksum is computed over the buffer once at the end, so save and load
/// agree on "every preceding byte" by construction.
struct V2Writer {
  std::string bytes;

  void put_u64(std::uint64_t v) {
    char raw[8];
    for (int i = 0; i < 8; ++i) {
      raw[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    bytes.append(raw, 8);
  }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

  std::uint64_t checksum() const {
    std::uint64_t h = kFnvOffset;
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnvPrime;
    }
    return h;
  }
};

/// Mirror of V2Writer: pulls little-endian fields off an istream while
/// folding every consumed byte into the running checksum. Any short read
/// throws — a truncated record can never validate.
struct V2Reader {
  std::istream& in;
  std::uint64_t hash = kFnvOffset;

  std::uint64_t take_u64(const char* what) {
    char raw[8];
    if (!in.read(raw, 8)) {
      throw std::runtime_error(
          std::string("load_policy_v2: truncated snapshot (") + what + ")");
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      const auto byte = static_cast<unsigned char>(raw[i]);
      v |= static_cast<std::uint64_t>(byte) << (8 * i);
      hash ^= byte;
      hash *= kFnvPrime;
    }
    return v;
  }
  double take_f64(const char* what) {
    return std::bit_cast<double>(take_u64(what));
  }
  /// The trailing checksum field is read raw — it is not part of its own
  /// coverage.
  std::uint64_t take_checksum() {
    char raw[8];
    if (!in.read(raw, 8)) {
      throw std::runtime_error(
          "load_policy_v2: truncated snapshot (checksum)");
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(raw[i]))
           << (8 * i);
    }
    return v;
  }
};

/// Parsed body of a v2 record, validated for structure + checksum but not
/// yet against any expected vocabulary.
struct V2Snapshot {
  std::uint64_t version = 0;
  std::vector<std::uint64_t> steps;
  std::vector<std::uint64_t> tools;
  std::size_t num_states = 0;
  std::size_t num_actions = 0;
  std::vector<double> q;
  bool checksum_ok = false;
};

/// Caps the header counts so a corrupt record cannot request a multi-GB
/// allocation before the checksum gets a chance to reject it. The real
/// spaces are tens of entries.
constexpr std::uint64_t kSaneCount = 1u << 20;

V2Snapshot read_v2(std::istream& in) {
  V2Reader r{in};
  char magic[8];
  if (!in.read(magic, 8)) {
    throw std::runtime_error("load_policy_v2: truncated snapshot (magic)");
  }
  if (std::memcmp(magic, kPolicyV2Magic, 8) != 0) {
    throw std::runtime_error(
        "load_policy_v2: not a coreda-policy v2 snapshot");
  }
  for (const char c : magic) {
    r.hash ^= static_cast<unsigned char>(c);
    r.hash *= kFnvPrime;
  }

  V2Snapshot snap;
  snap.version = r.take_u64("version");
  const std::uint64_t n_steps = r.take_u64("step count");
  const std::uint64_t n_tools = r.take_u64("tool count");
  const std::uint64_t n_states = r.take_u64("state count");
  const std::uint64_t n_actions = r.take_u64("action count");
  if (n_steps == 0 || n_tools == 0 || n_states == 0 || n_actions == 0 ||
      n_steps > kSaneCount || n_tools > kSaneCount ||
      n_states > kSaneCount || n_actions > kSaneCount) {
    throw std::runtime_error("load_policy_v2: implausible dimensions");
  }
  snap.num_states = static_cast<std::size_t>(n_states);
  snap.num_actions = static_cast<std::size_t>(n_actions);

  snap.steps.reserve(n_steps);
  for (std::uint64_t i = 0; i < n_steps; ++i) {
    snap.steps.push_back(r.take_u64("step vocabulary"));
  }
  snap.tools.reserve(n_tools);
  for (std::uint64_t i = 0; i < n_tools; ++i) {
    snap.tools.push_back(r.take_u64("tool vocabulary"));
  }
  snap.q.reserve(snap.num_states * snap.num_actions);
  for (std::size_t i = 0; i < snap.num_states * snap.num_actions; ++i) {
    snap.q.push_back(r.take_f64("Q value"));
  }
  const std::uint64_t expected = r.hash;
  snap.checksum_ok = (r.take_checksum() == expected);
  return snap;
}

template <typename Id>
void check_vocab(std::span<const std::uint64_t> got, std::span<const Id> want,
                 const char* what) {
  if (got.size() != want.size()) {
    throw std::runtime_error(std::string("load_policy_v2: ") + what +
                             " vocabulary size mismatch");
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != static_cast<std::uint64_t>(want[i])) {
      throw std::runtime_error(std::string("load_policy_v2: ") + what +
                               " vocabulary mismatch");
    }
  }
}

}  // namespace

std::size_t save_policy_v2(std::ostream& out,
                           std::span<const adl::StepId> steps,
                           std::span<const adl::ToolId> tools,
                           const rl::QTable& q, std::uint64_t version) {
  V2Writer w;
  w.bytes.reserve(8 * (6 + steps.size() + tools.size() +
                       q.num_states() * q.num_actions() + 1));
  w.bytes.append(kPolicyV2Magic, 8);
  w.put_u64(version);
  w.put_u64(steps.size());
  w.put_u64(tools.size());
  w.put_u64(q.num_states());
  w.put_u64(q.num_actions());
  for (const adl::StepId id : steps) w.put_u64(id);
  for (const adl::ToolId id : tools) w.put_u64(id);
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    for (const double v : q.row(s)) w.put_f64(v);
  }
  const std::uint64_t sum = w.checksum();
  w.put_u64(sum);
  out.write(w.bytes.data(),
            static_cast<std::streamsize>(w.bytes.size()));
  return w.bytes.size();
}

std::uint64_t load_policy_v2(std::istream& in,
                             std::span<const adl::StepId> steps,
                             std::span<const adl::ToolId> tools,
                             rl::QTable& q) {
  const V2Snapshot snap = read_v2(in);
  if (!snap.checksum_ok) {
    throw std::runtime_error("load_policy_v2: checksum mismatch");
  }
  check_vocab<adl::StepId>(snap.steps, steps, "step");
  check_vocab<adl::ToolId>(snap.tools, tools, "tool");
  if (snap.num_states != q.num_states() ||
      snap.num_actions != q.num_actions()) {
    throw std::runtime_error("load_policy_v2: Q-table dimension mismatch");
  }
  // Fully validated: commit. Row-wise copy into the caller's storage keeps
  // this allocation-free for a pre-shaped destination table.
  std::size_t i = 0;
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    for (rl::ActionId a = 0; a < q.num_actions(); ++a) {
      q.set(s, a, snap.q[i++]);
    }
  }
  return snap.version;
}

// --------------------------------------------------------------------------
// changed-row codec (segment delta records)
// --------------------------------------------------------------------------

std::size_t count_changed_rows(const rl::QTable& base, const rl::QTable& q) {
  if (base.num_states() != q.num_states() ||
      base.num_actions() != q.num_actions()) {
    throw std::invalid_argument("count_changed_rows: table shape mismatch");
  }
  std::size_t n_rows = 0;
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    const auto b = base.row(s);
    const auto n = q.row(s);
    if (std::memcmp(b.data(), n.data(), n.size() * sizeof(double)) != 0) {
      ++n_rows;
    }
  }
  return n_rows;
}

unsigned char* encode_changed_rows(const rl::QTable& base, const rl::QTable& q,
                                   unsigned char* dst) {
  if (base.num_states() != q.num_states() ||
      base.num_actions() != q.num_actions()) {
    throw std::invalid_argument("encode_changed_rows: table shape mismatch");
  }
  for (rl::StateId s = 0; s < q.num_states(); ++s) {
    const auto b = base.row(s);
    const auto n = q.row(s);
    if (std::memcmp(b.data(), n.data(), n.size() * sizeof(double)) == 0) {
      continue;
    }
    util::wire::store_u64(dst, s);
    dst += 8;
    for (const double v : n) {
      util::wire::store_f64(dst, v);
      dst += 8;
    }
  }
  return dst;
}

// --------------------------------------------------------------------------
// bundle records (one record = all ADL policies of one user)
// --------------------------------------------------------------------------

std::size_t save_policy_bundle(std::ostream& out,
                               std::span<const PolicyBundleItem> items,
                               std::uint64_t version) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].q == nullptr) {
      throw std::invalid_argument("save_policy_bundle: null table");
    }
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      if (items[i].name == items[j].name) {
        throw std::invalid_argument(
            "save_policy_bundle: duplicate entry name '" +
            std::string(items[i].name) + "'");
      }
    }
  }
  V2Writer w;
  w.bytes.append(kPolicyBundleMagic, 8);
  w.put_u64(version);
  w.put_u64(items.size());
  for (const PolicyBundleItem& item : items) {
    w.put_u64(item.name.size());
    w.bytes.append(item.name.data(), item.name.size());
    std::ostringstream embedded;
    save_policy_v2(embedded, item.steps, item.tools, *item.q, version);
    w.bytes += embedded.str();
  }
  w.put_u64(w.checksum());
  out.write(w.bytes.data(), static_cast<std::streamsize>(w.bytes.size()));
  return w.bytes.size();
}

std::uint64_t load_policy_bundle(std::istream& in,
                                 std::span<const PolicyBundleSlot> slots) {
  // The outer checksum is the last 8 bytes and covers everything before
  // it, so the whole record is pulled into memory first — also what lets
  // validation finish completely before any slot table is written.
  std::string blob(std::istreambuf_iterator<char>(in), {});
  if (blob.size() < 8 + 8 + 8 + 8) {
    throw std::runtime_error("load_policy_bundle: truncated bundle");
  }
  if (std::memcmp(blob.data(), kPolicyBundleMagic, 8) != 0) {
    throw std::runtime_error("load_policy_bundle: not a coreda bundle");
  }
  std::uint64_t stored = 0;
  std::uint64_t hash = kFnvOffset;
  for (std::size_t i = 0; i < blob.size() - 8; ++i) {
    hash ^= static_cast<unsigned char>(blob[i]);
    hash *= kFnvPrime;
  }
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                  blob[blob.size() - 8 + i]))
              << (8 * i);
  }
  if (stored != hash) {
    throw std::runtime_error("load_policy_bundle: checksum mismatch");
  }

  std::istringstream body(blob.substr(8, blob.size() - 16));
  V2Reader r{body};
  const std::uint64_t version = r.take_u64("bundle version");
  const std::uint64_t count = r.take_u64("bundle entry count");
  if (count != slots.size()) {
    throw std::runtime_error("load_policy_bundle: entry count mismatch");
  }
  if (count > kSaneCount) {
    throw std::runtime_error("load_policy_bundle: implausible entry count");
  }

  // Stage every entry against its slot; commit only after the last one
  // validates.
  std::vector<rl::QTable> staged;
  std::vector<std::size_t> staged_slot;
  std::vector<bool> filled(slots.size(), false);
  staged.reserve(slots.size());
  staged_slot.reserve(slots.size());
  for (std::uint64_t e = 0; e < count; ++e) {
    const std::uint64_t name_len = r.take_u64("entry name length");
    if (name_len > kSaneCount) {
      throw std::runtime_error("load_policy_bundle: implausible name");
    }
    std::string name(name_len, '\0');
    if (!body.read(name.data(), static_cast<std::streamsize>(name_len))) {
      throw std::runtime_error("load_policy_bundle: truncated entry name");
    }
    std::size_t slot_index = slots.size();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].name == name) {
        slot_index = s;
        break;
      }
    }
    if (slot_index == slots.size() || filled[slot_index]) {
      throw std::runtime_error(
          "load_policy_bundle: unexpected entry '" + name + "'");
    }
    const PolicyBundleSlot& slot = slots[slot_index];
    if (slot.q == nullptr) {
      throw std::runtime_error("load_policy_bundle: null slot table");
    }
    filled[slot_index] = true;
    staged.emplace_back(slot.q->num_states(), slot.q->num_actions());
    staged_slot.push_back(slot_index);
    // Embedded records validate exactly as standalone v2 records.
    load_policy_v2(body, slot.steps, slot.tools, staged.back());
  }
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (!filled[s]) {
      throw std::runtime_error("load_policy_bundle: missing entry '" +
                               std::string(slots[s].name) + "'");
    }
  }

  for (std::size_t i = 0; i < staged.size(); ++i) {
    rl::QTable& dst = *slots[staged_slot[i]].q;
    for (rl::StateId s = 0; s < dst.num_states(); ++s) {
      for (rl::ActionId a = 0; a < dst.num_actions(); ++a) {
        dst.set(s, a, staged[i].get(s, a));
      }
    }
  }
  return version;
}

}  // namespace coreda::planning
