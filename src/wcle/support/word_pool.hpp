// Chunked bump/free-list pool of 64-bit words: the one store for the id sets
// the simulator moves around. The transport (sim/network) copies every queued
// message's id list into one, and the walk engine (rw/walk_engine) keeps its
// in-flight convergecast unions in another.
//
// Slots are handed out in power-of-two size classes from fixed 2^14-word bump
// chunks. Each class's free list is LIFO and threaded *through the freed
// storage itself* (the first word of a freed slot holds the next-free handle),
// so recycling costs no side memory. A set larger than one chunk gets a
// dedicated block outside the bump chunks — the bump cursor can never wander
// into it — which recycles through its class free list until rewind() hands
// it back to the heap. rewind() drops every allocation at once; its callers
// invoke it only when every outstanding handle is dead. Addresses are stable
// (chunks never move), so views over pooled words survive later allocations.
//
// Under AddressSanitizer a freed slot is poisoned until alloc() hands it out
// again, and rewind() poisons everything handed out since the previous
// rewind, so a read through a dead view (an IdSpan kept past its lifetime)
// aborts with use-after-poison instead of reading recycled ids.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace wcle {

class WordPool {
 public:
  static constexpr std::uint32_t kNull = 0xffffffffu;
  static constexpr std::uint32_t kChunkBits = 14;
  static constexpr std::uint32_t kChunkWords = 1u << kChunkBits;  ///< 128 KiB

  WordPool() {
    for (std::uint32_t& head : free_head_) head = kNull;
  }

  /// Returns a handle to a slot of capacity >= n words (n >= 1).
  std::uint32_t alloc(std::uint32_t n);
  /// Releases a slot. `n` must be the length the slot was allocated with:
  /// the slot is filed under size_class(n), so any other n either strands
  /// the slot's tail until rewind() or hands an undersized slot to a later
  /// alloc().
  void free(std::uint32_t h, std::uint32_t n);
  /// Drops every allocation: rewinds the bump cursor to the first chunk,
  /// empties the free lists and returns dedicated blocks to the heap.
  void rewind();
  /// Heap bytes held: chunks, dedicated blocks and bookkeeping.
  std::uint64_t memory_bytes() const noexcept;
  /// Heap blocks held: bump chunks plus live dedicated blocks.
  std::uint64_t chunk_count() const noexcept {
    return chunks_.size() + dedicated_.size();
  }

  std::uint64_t* data(std::uint32_t h) const noexcept {
    if (h & kDedicated) return dedicated_[h & ~kDedicated].words.get();
    return chunks_[h >> kChunkBits].get() + (h & (kChunkWords - 1));
  }

 private:
  static constexpr std::uint32_t kClasses = 32;
  /// Handle bit naming a dedicated block (index in the low bits).
  static constexpr std::uint32_t kDedicated = 1u << 31;

  static std::uint32_t size_class(std::uint32_t n) noexcept;

  struct Dedicated {
    std::unique_ptr<std::uint64_t[]> words;
    std::uint32_t capacity;
  };

  std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;  ///< bump chunks
  std::vector<Dedicated> dedicated_;  ///< blocks of > kChunkWords words
  std::uint32_t bump_at_ = 0;   ///< bump chunk index
  std::uint32_t cur_used_ = 0;  ///< words used in the bump chunk
  /// Head handle per size class; links live in the freed words themselves.
  std::uint32_t free_head_[kClasses];
};

}  // namespace wcle
