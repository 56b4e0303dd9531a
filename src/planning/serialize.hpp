#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string_view>

#include "planning/learner.hpp"

namespace coreda::planning {

// A policy's durable form is a serve::SegmentStore record (anchor + changed-
// row deltas; serve/segment_store.hpp). This header holds the byte codecs
// that format and the multi-ADL bundle share: the changed-row codec of the
// segment deltas, and the self-checksummed table record framed inside every
// bundle entry.

// ---------------------------------------------------------------------------
// "coreda-policy v2" table record — the entry framing inside a CRDABNDL
// bundle. Layout, all integers little-endian u64, doubles as little-endian
// IEEE-754 bit patterns:
//
//   magic     8 bytes  "CRDAPOL2"
//   version   u64      monotonically increasing per write-back
//   n_steps   u64      |step vocabulary|
//   n_tools   u64      |tool vocabulary|
//   n_states  u64      Q rows
//   n_actions u64      Q columns
//   steps     n_steps  x u64
//   tools     n_tools  x u64
//   q         n_states x n_actions x f64, row-major
//   checksum  u64      FNV-1a 64 over every preceding byte
//
// The trailing checksum rejects torn or bit-flipped records; the
// vocabularies reject a record from a different ADL. Loads stage into a
// scratch table and only commit on full validation, so the destination is
// never left half-written.
// ---------------------------------------------------------------------------

/// The 8 magic bytes opening every v2 table record.
inline constexpr char kPolicyV2Magic[8] = {'C', 'R', 'D', 'A',
                                           'P', 'O', 'L', '2'};

/// Writes a v2 record of `q` stamped with `version` under the given
/// vocabularies. Returns the bytes written.
std::size_t save_policy_v2(std::ostream& out,
                           std::span<const adl::StepId> steps,
                           std::span<const adl::ToolId> tools,
                           const rl::QTable& q, std::uint64_t version);

/// Restores a v2 record into `q`, validating magic, checksum, and the
/// expected vocabularies/dimensions. Returns the record version. Throws
/// std::runtime_error on any mismatch or corruption; `q` is only written
/// after full validation (unchanged on failure).
std::uint64_t load_policy_v2(std::istream& in,
                             std::span<const adl::StepId> steps,
                             std::span<const adl::ToolId> tools,
                             rl::QTable& q);

// Changed-row codec of the segment store's delta records: "rows of q that
// differ bitwise from base", each as a u64 row index followed by
// num_actions LE f64 values.

/// Number of rows where `q` differs bitwise from `base` (shapes must match —
/// std::invalid_argument). Allocation-free.
std::size_t count_changed_rows(const rl::QTable& base, const rl::QTable& q);

/// Encodes every changed row into `dst`, which must have room for
/// count_changed_rows(base, q) * (1 + q.num_actions()) * 8 bytes. Returns
/// one past the last byte written. Allocation-free.
unsigned char* encode_changed_rows(const rl::QTable& base, const rl::QTable& q,
                                   unsigned char* dst);

// ---------------------------------------------------------------------------
// "coreda-bundle v1" — one record holding every ADL policy of one user.
//
// A resident who interleaves ADLs mid-session needs all of their per-ADL
// policy snapshots restored together; storing them as separate records
// reintroduces torn multi-file states (tea restored, tooth-brushing not).
// The bundle frames several named v2 records inside ONE checksummed record,
// so a user's whole home policy set is durable or absent atomically:
//
//   magic     8 bytes  "CRDABNDL"
//   version   u64      monotonically increasing per write-back
//   count     u64      number of named entries
//   entries   count x { name_len u64, name bytes,
//                       full v2 record (self-checksummed, see above) }
//   checksum  u64      FNV-1a 64 over every preceding byte
//
// Loads are all-or-nothing: every entry must parse, pass both checksum
// layers, match a requested slot by name, and fill every slot — otherwise
// std::runtime_error and no destination table is touched.
// ---------------------------------------------------------------------------

/// The 8 magic bytes opening every bundle record.
inline constexpr char kPolicyBundleMagic[8] = {'C', 'R', 'D', 'A',
                                               'B', 'N', 'D', 'L'};

/// One named policy to embed when saving a bundle. Non-owning views; the
/// caller's vocabularies and table must stay alive across the call.
struct PolicyBundleItem {
  std::string_view name;
  std::span<const adl::StepId> steps;
  std::span<const adl::ToolId> tools;
  const rl::QTable* q = nullptr;
};

/// Writes a bundle of `items` stamped with `version`. Entry versions inside
/// the embedded v2 records carry the same stamp. Returns the bytes written.
/// Throws std::invalid_argument on duplicate names or a null table.
std::size_t save_policy_bundle(std::ostream& out,
                               std::span<const PolicyBundleItem> items,
                               std::uint64_t version);

/// One destination for a bundle entry, matched by name.
struct PolicyBundleSlot {
  std::string_view name;
  std::span<const adl::StepId> steps;
  std::span<const adl::ToolId> tools;
  rl::QTable* q = nullptr;
};

/// Restores a bundle into `slots`: every entry must match exactly one slot
/// by name and every slot must be filled. Validates the outer checksum,
/// then each embedded v2 record exactly as load_policy_v2 (magic, checksum,
/// vocabulary, dimensions). Returns the bundle version. Throws
/// std::runtime_error on any mismatch or corruption; no slot table is
/// written unless the whole bundle validates.
std::uint64_t load_policy_bundle(std::istream& in,
                                 std::span<const PolicyBundleSlot> slots);

}  // namespace coreda::planning
