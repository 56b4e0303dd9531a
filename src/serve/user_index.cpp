#include "serve/user_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace coreda::serve {

void UserIndex::place_new(std::uint64_t e) noexcept {
  const std::size_t cap = slots_.size();
  std::size_t i = home(e >> 34, cap);
  std::size_t dist = 0;
  while (true) {
    std::uint64_t& slot = slots_[i];
    if (slot == kEmpty) {
      slot = e;
      return;
    }
    const std::size_t rdist = probe_distance(slot, i, cap);
    if (rdist < dist) {
      // Robin hood: the resident is closer to home than we are — take its
      // slot and carry it forward instead.
      std::swap(e, slot);
      dist = rdist;
    }
    if (++i == cap) i = 0;
    ++dist;
  }
}

void UserIndex::reserve(std::uint64_t users) {
  // Any capacity works with the fastrange slot mapping — no power-of-two
  // rounding, so the slab is never ~2x larger than asked for.
  const std::uint64_t cap = slots_for(users);
  if (cap <= slots_.size()) return;
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(static_cast<std::size_t>(cap), kEmpty);
  limit_ = cap - cap / 8;
  for (const std::uint64_t e : old) {
    if (e != kEmpty) place_new(e);
  }
}

void UserIndex::grow(std::uint64_t users) {
  if (slots_for(users) <= slots_.size()) return;
  reserve(std::max(users, 2 * limit_));
}

void UserIndex::put(std::uint64_t user, Loc loc) {
  if (user >= kMaxUsers || loc.seg >= kMaxSegments || loc.off8 >= kMaxOff8) {
    throw std::length_error("UserIndex::put: user/seg/offset out of range");
  }
  if (size_ >= limit_) {
    // At the ceiling only an update of an existing key may proceed.
    Loc ignored;
    if (!find(user, ignored)) {
      throw std::length_error(
          "UserIndex::put: table full — reserve() was not honoured");
    }
  }
  std::uint64_t e = pack(user, loc);
  const std::size_t cap = slots_.size();
  std::size_t i = home(user, cap);
  std::size_t dist = 0;
  while (true) {
    std::uint64_t& slot = slots_[i];
    if (slot == kEmpty) {
      slot = e;
      ++size_;
      return;
    }
    // An existing key is updated in place. After a robin-hood swap `e`
    // carries a displaced resident whose key cannot recur further along,
    // so this matches only the original probe key.
    if ((slot >> 34) == (e >> 34)) {
      slot = e;
      return;
    }
    const std::size_t rdist = probe_distance(slot, i, cap);
    if (rdist < dist) {
      std::swap(e, slot);
      dist = rdist;
    }
    if (++i == cap) i = 0;
    ++dist;
  }
}

void UserIndex::put_grow(std::uint64_t user, Loc loc) {
  if (size_ >= limit_) {
    Loc ignored;
    if (!find(user, ignored)) {
      reserve(size_ < 8 ? 16 : size_ * 2);
    }
  }
  put(user, loc);
}

}  // namespace coreda::serve
