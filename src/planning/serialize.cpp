#include "planning/serialize.hpp"

#include <cstring>
#include <stdexcept>

#include "util/wire.hpp"

namespace coreda::planning {

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

}  // namespace coreda::planning
