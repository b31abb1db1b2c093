#include "wcle/support/word_pool.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define WCLE_POISON_WORDS(p, n) \
  ASAN_POISON_MEMORY_REGION((p), std::size_t{n} * sizeof(std::uint64_t))
#define WCLE_UNPOISON_WORDS(p, n) \
  ASAN_UNPOISON_MEMORY_REGION((p), std::size_t{n} * sizeof(std::uint64_t))
#else
#define WCLE_POISON_WORDS(p, n) ((void)(p), (void)(n))
#define WCLE_UNPOISON_WORDS(p, n) ((void)(p), (void)(n))
#endif

namespace wcle {

std::uint32_t WordPool::size_class(std::uint32_t n) noexcept {
  // Smallest c with (1 << c) >= n.
  assert(n >= 1);
  return static_cast<std::uint32_t>(std::bit_width(n - 1));
}

// The pool is the id-set store of the steady-state transport and walk
// engine: once a workload's footprint is warm, every alloc() is served from a
// free list or bump space and the heap is never touched (Network::pool_stats
// pins this in test_dataplane; Network.NoAllocationPerDeliverySteadyState
// counts operator new calls). The growth points below are cold-start only.
std::uint32_t WordPool::alloc(std::uint32_t n) {
  const std::uint32_t cls = size_class(n);
  const std::uint32_t cap = 1u << cls;
  if (free_head_[cls] != kNull) {
    const std::uint32_t h = free_head_[cls];
    std::uint64_t* slot = data(h);
    WCLE_UNPOISON_WORDS(slot, cap);
    free_head_[cls] = static_cast<std::uint32_t>(*slot);
    return h;
  }
  if (cap > kChunkWords) {
    // Oversized: a dedicated block outside the bump chunks, recycled through
    // its free list until rewind() returns it to the heap.
    const std::uint32_t h =
        kDedicated | static_cast<std::uint32_t>(dedicated_.size());
    dedicated_.push_back({std::make_unique<std::uint64_t[]>(cap), cap});
    return h;
  }
  // Bump-allocate; move to the next chunk (allocating one if needed) when
  // the current one cannot fit the slot. Skipped tails are reclaimed by the
  // next rewind().
  if (cur_used_ + cap > kChunkWords) {
    ++bump_at_;
    cur_used_ = 0;
  }
  if (bump_at_ == chunks_.size()) {
    if (chunks_.size() == (kDedicated >> kChunkBits))
      throw std::length_error("WordPool: chunk index space exhausted");
    chunks_.push_back(std::make_unique<std::uint64_t[]>(kChunkWords));
  }
  const std::uint32_t h = (bump_at_ << kChunkBits) | cur_used_;
  WCLE_UNPOISON_WORDS(data(h), cap);
  cur_used_ += cap;
  return h;
}

void WordPool::free(std::uint32_t h, std::uint32_t n) {
  const std::uint32_t cls = size_class(n);
  std::uint64_t* slot = data(h);
  *slot = free_head_[cls];
  free_head_[cls] = h;
  WCLE_POISON_WORDS(slot, 1u << cls);
}

void WordPool::rewind() {
  for (std::uint32_t& head : free_head_) head = kNull;
#if defined(__SANITIZE_ADDRESS__)
  for (std::uint32_t c = 0; c < chunks_.size() && c <= bump_at_; ++c)
    WCLE_POISON_WORDS(chunks_[c].get(), c < bump_at_ ? kChunkWords : cur_used_);
#endif
  bump_at_ = 0;
  cur_used_ = 0;
  dedicated_.clear();
}

std::uint64_t WordPool::memory_bytes() const noexcept {
  std::uint64_t words = std::uint64_t{kChunkWords} * chunks_.size();
  for (const Dedicated& d : dedicated_) words += d.capacity;
  return words * sizeof(std::uint64_t) +
         chunks_.capacity() * sizeof(chunks_[0]) +
         dedicated_.capacity() * sizeof(Dedicated);
}

}  // namespace wcle
