#pragma once
// Pooled storage for messages between their send and their delivery
// event.  A Message (~240 bytes) is too large for InlineFunction's inline
// buffer, so a delivery closure capturing it would be heap-boxed.
// Parking the message in a recycled slot leaves the closure holding only
// {owner, slot}, which fits inline: once the store has grown to the peak
// number of messages in flight, deliveries allocate nothing.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/message.hpp"
#include "sim/check.hpp"

namespace gridfed::core {

/// Free-list slot store of in-flight messages.  The store grows one
/// fixed chunk at a time, so growth never copies the messages in flight
/// nor doubles the footprint past the peak.  take() moves the message
/// out before the caller delivers it: delivery handlers may park new
/// messages, and the freed slot drops the message's arena reference at
/// once.
class MessageSlots {
 public:
  /// Moves `msg` into a free slot, growing the store only when every
  /// slot is occupied, and returns the slot.
  [[nodiscard]] std::uint32_t park(Message msg) {
    auto slot = static_cast<std::uint32_t>(size_);
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      if (size_ == chunks_.size() * kChunk) {
        chunks_.push_back(std::make_unique<Message[]>(kChunk));
      }
      ++size_;
    }
    at(slot) = std::move(msg);
    return slot;
  }

  /// Moves the message out of `slot` and frees the slot.
  [[nodiscard]] Message take(std::uint32_t slot) {
    GF_EXPECTS(slot < size_);
    free_.push_back(slot);
    return std::move(at(slot));
  }

  /// Slots handed out: the peak number of messages parked at once.
  [[nodiscard]] std::size_t capacity() const noexcept { return size_; }
  /// Messages parked and not yet taken.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return size_ - free_.size();
  }

 private:
  static constexpr std::size_t kChunk = 64;

  [[nodiscard]] Message& at(std::uint32_t slot) {
    return chunks_[slot / kChunk][slot % kChunk];
  }

  std::vector<std::unique_ptr<Message[]>> chunks_;
  std::size_t size_ = 0;
  std::vector<std::uint32_t> free_;
};

}  // namespace gridfed::core
