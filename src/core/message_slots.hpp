#pragma once
// Pooled storage for messages between their send and their delivery
// event.  A Message (216 bytes) is too large for InlineFunction's inline
// buffer, so a delivery closure capturing it would be heap-boxed.
// Parking the message in a recycled slot leaves the closure holding only
// {owner, slot}, which fits inline: once the store has grown to the peak
// number of messages in flight, deliveries allocate nothing.
//
// A message is written into its slot once, by park(), and delivered from
// there in place: the slot lives until its handler returns.  Releasing
// the slot keeps the capacity of its bid and gossip buffers, and park()
// hands a spare buffer back to every sender, so a sender that reuses its
// buffer (AuctionPolicy's batched bid answers) allocates nothing in
// steady state.

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
/// nor doubles the footprint past the peak, and a slot's address stays
/// stable while delivery handlers park new messages.
class MessageSlots {
 public:
  /// Moves `msg` into a free slot, growing the store only when every
  /// slot is occupied, and returns the slot.  A vector `msg` carries no
  /// entries in (`batch_bids`, `gossip`) leaves the slot's released
  /// buffer in place; one it does carry is exchanged for that buffer, so
  /// `msg` gets an empty vector with the slot's capacity back.
  [[nodiscard]] std::uint32_t park(Message&& msg) {
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
    Message& parked = at(slot);
    std::vector<BatchedBid> spare_bids = std::move(parked.batch_bids);
    std::vector<membership::GossipRecord> spare_gossip =
        std::move(parked.gossip);
    parked = std::move(msg);
    recycle(parked.batch_bids, spare_bids, msg.batch_bids);
    recycle(parked.gossip, spare_gossip, msg.gossip);
    return slot;
  }

  /// The message parked in `slot`, valid until release(slot).
  [[nodiscard]] const Message& operator[](std::uint32_t slot) const {
    GF_EXPECTS(slot < size_);
    return chunks_[slot / kChunk][slot % kChunk];
  }

  /// Frees `slot` once its message was delivered: drops the arena handle
  /// at once and empties the bid and gossip buffers, keeping their
  /// capacity for the next park().
  void release(std::uint32_t slot) {
    GF_EXPECTS(slot < size_);
    Message& msg = at(slot);
    msg.batch_jobs = {};
    msg.arena.reset();
    msg.batch_bids.clear();
    msg.gossip.clear();
    free_.push_back(slot);
  }

  /// Slots handed out: the peak number of messages parked at once.
  [[nodiscard]] std::size_t capacity() const noexcept { return size_; }
  /// Messages parked and not yet released.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return size_ - free_.size();
  }

 private:
  static constexpr std::size_t kChunk = 64;

  [[nodiscard]] Message& at(std::uint32_t slot) {
    return chunks_[slot / kChunk][slot % kChunk];
  }

  /// After the move-assignment in park(): the slot keeps its released
  /// buffer `spare` unless the message brought entries, and the sender
  /// gets back whichever empty buffer the slot does not keep.
  template <typename T>
  static void recycle(std::vector<T>& parked, std::vector<T>& spare,
                      std::vector<T>& sender) {
    if (parked.empty()) parked.swap(spare);
    sender = std::move(spare);
  }

  std::vector<std::unique_ptr<Message[]>> chunks_;
  std::size_t size_ = 0;
  std::vector<std::uint32_t> free_;
};

}  // namespace gridfed::core
