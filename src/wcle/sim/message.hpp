// Message representation for the CONGEST transport. Protocols declare the
// *bit size* of each message themselves (from the model's encoding, e.g. an id
// costs 4*ceil(log2 n) bits); the network charges bandwidth from that
// declaration, fragmenting anything larger than the per-edge budget B into
// ceil(bits/B) CONGEST messages, exactly the accounting Lemma 12 performs.
//
// Since the data-plane rebuild a message no longer owns heap storage: the
// variable-length id list rides as an IdSpan *view*. On send() the transport
// copies the viewed words into its per-Network id pool (a WordPool,
// support/word_pool.hpp); on delivery the span points into that pool (valid
// until the next step(); AddressSanitizer builds poison it after that).
// Protocols therefore build payloads in reusable scratch buffers and the hot
// path never touches the allocator.
#pragma once

#include <cstdint>
#include <vector>

#include "wcle/graph/graph.hpp"

namespace wcle {

/// A non-owning view of a message's variable-length id list. Vector-like for
/// reading (iteration, indexing, front/back); the storage belongs to the
/// sender until send() returns, and to the transport's id pool on delivery
/// (valid until the next step()). Copy out with to_vector() to keep ids.
class IdSpan {
 public:
  IdSpan() = default;
  IdSpan(const std::uint64_t* data, std::size_t size)
      : data_(data), size_(static_cast<std::uint32_t>(size)) {}
  /// Implicit view of a vector the caller keeps alive across the send().
  IdSpan(const std::vector<std::uint64_t>& v)  // NOLINT(runtime/explicit)
      : data_(v.data()), size_(static_cast<std::uint32_t>(v.size())) {}

  const std::uint64_t* data() const noexcept { return data_; }
  std::uint32_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const std::uint64_t* begin() const noexcept { return data_; }
  const std::uint64_t* end() const noexcept { return data_ + size_; }
  std::uint64_t operator[](std::size_t i) const { return data_[i]; }
  std::uint64_t front() const { return data_[0]; }
  std::uint64_t back() const { return data_[size_ - 1]; }

  std::vector<std::uint64_t> to_vector() const {
    return std::vector<std::uint64_t>(begin(), end());
  }

 private:
  const std::uint64_t* data_ = nullptr;
  std::uint32_t size_ = 0;
};

/// A protocol message. The scalar fields and the id list are interpreted by
/// the owning protocol via `tag`; the transport only reads `tag` and `bits`.
/// Cheap to copy — `ids` is a view (see IdSpan for the storage contract).
struct Message {
  std::uint8_t tag = 0;   ///< protocol discriminator / metrics bucket
  std::uint64_t a = 0;    ///< protocol-defined scalar
  std::uint64_t b = 0;    ///< protocol-defined scalar
  std::uint64_t c = 0;    ///< protocol-defined scalar
  std::uint64_t d = 0;    ///< protocol-defined scalar
  IdSpan ids;             ///< protocol-defined variable-length part (view)
  std::uint32_t bits = 0; ///< declared encoded size; must be >= 1
};

/// A message arriving at `dst` through its local `port` in the current round.
/// Handed out by step() as a view: `msg.ids` points into the transport's id
/// pool and stays valid until the next step() call. Copy ids out to keep
/// them longer.
struct Delivery {
  NodeId dst = 0;
  Port port = 0;
  Message msg;
};

}  // namespace wcle
