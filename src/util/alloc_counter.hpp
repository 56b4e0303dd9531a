#pragma once

// Global operator-new counter for zero-allocation assertions.
//
// Including this header replaces the global allocation functions of the
// whole binary with counting variants, so it must be included in exactly
// ONE translation unit per executable (a second inclusion is a duplicate-
// symbol link error by design — replacement allocation functions must not
// be inline). Used by bench/perf_micro.cpp, bench/fleet_throughput.cpp and
// tests/planning/learner_alloc_test.cpp to pin the "0 allocations per
// episode / event at steady state" contracts. Only executables include it,
// never a library TU: that would swap the allocator of every binary that
// links the library (library code takes a counter function instead, as
// serve::ChaosFleetParams::allocation_count does).
//
// Every form of operator new/delete is replaced — plain, nothrow, aligned
// and sized — so each block is freed by the allocator that made it. A
// partial replacement breaks under sanitizers: the runtime's own nothrow
// new (std::stable_sort's temporary buffer uses it) would be released by
// the std::free below.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace coreda::util {

namespace alloc_counter_detail {
inline std::atomic<std::uint64_t> g_allocations{0};

inline void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants the size to be a multiple of the alignment.
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}
}  // namespace alloc_counter_detail

/// Number of operator-new calls since process start (monotonic).
inline std::uint64_t allocation_count() noexcept {
  return alloc_counter_detail::g_allocations.load(std::memory_order_relaxed);
}

}  // namespace coreda::util

// GCC pairs new/delete lexically and flags std::free on a new-ed pointer;
// here free IS the matching deallocator because every replacement new
// below allocates with std::malloc / std::aligned_alloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (void* p = coreda::util::alloc_counter_detail::counted_alloc(
          size, alignof(std::max_align_t))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = coreda::util::alloc_counter_detail::counted_alloc(
          size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return coreda::util::alloc_counter_detail::counted_alloc(
      size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return coreda::util::alloc_counter_detail::counted_alloc(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return ::operator new(size, align, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
