#pragma once

#include <cstddef>

#include "rl/q_table.hpp"

namespace coreda::planning {

// A policy's durable form is a serve::SegmentStore record: one user's Q
// table, as a full anchor or as the rows that changed since the parent
// record (serve/segment_store.hpp). This header holds the changed-row codec
// of those delta records: "rows of q that differ bitwise from base", each
// as a u64 row index followed by the row's num_actions LE f64 values.

/// Number of rows where `q` differs bitwise from `base` (shapes must match —
/// std::invalid_argument). Allocation-free.
std::size_t count_changed_rows(const rl::QTable& base, const rl::QTable& q);

/// Encodes every changed row into `dst`. `dst` must have room for
/// count_changed_rows(base, q) * (1 + q.num_actions()) * 8 bytes. Returns
/// one past the last byte written. Allocation-free.
unsigned char* encode_changed_rows(const rl::QTable& base, const rl::QTable& q,
                                   unsigned char* dst);

}  // namespace coreda::planning
