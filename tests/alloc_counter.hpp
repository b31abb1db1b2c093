// Allocation counter for the zero-allocation tests. Including this header
// replaces the executable's global operator new/delete with a pair that
// counts and forwards to malloc/free, so sanitizer builds still track every
// block. Replacement functions cannot be inline: include it from exactly one
// translation unit per test executable.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace wcle_test {
inline std::atomic<std::uint64_t> g_allocations{0};

/// operator new calls made so far by this process.
inline std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace wcle_test

void* operator new(std::size_t n) {
  wcle_test::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
