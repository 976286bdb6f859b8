// EventQueue cold paths: the heap↔ladder migrations and the structural
// self-check (main structure and lanes).  The push/pop hot loop is
// header-inline (event_queue_inl.hpp).

#include "sim/event_queue.hpp"

#include <array>

#include "sim/check.hpp"

namespace gridfed::sim {

void EventQueue::migrate_to_ladder() {
  migrate_scratch_.clear();
  heap_.drain_into(migrate_scratch_);
  ladder_.build_from(migrate_scratch_);
  spilled_ = true;
  ++stats_.spills;
}

void EventQueue::migrate_to_heap() {
  migrate_scratch_.clear();
  ladder_.drain_into(migrate_scratch_);
  heap_.build_from(migrate_scratch_);
  spilled_ = false;
  ++stats_.unspills;
}

bool EventQueue::consistent() {
  if (!(spilled_ ? heap_.empty() : ladder_.empty())) return false;
  // O(#lanes): the mask and the key count agree with the lanes.  The
  // per-key lane invariants are debug_validate()'s (lanes_ordered()).
  std::size_t lane_keys = 0;
  for (std::size_t p = 0; p < kLanes; ++p) {
    const Lane& lane = lanes_[p];
    const bool nonempty = lane.head < lane.keys.size();
    if (nonempty != (((lane_mask_ >> p) & 1u) != 0)) return false;
    if (!nonempty && (lane.head != 0 || !lane.keys.empty())) return false;
    lane_keys += lane.keys.size() - lane.head;
  }
  if (lane_keys != lane_keys_) return false;
  if (empty()) {
    return next_key_ == kNoKey && next_src_ == kNoSrc &&
           others_min_ == kNoKey && others_src_ == kNoSrc;
  }
  // Each source's head, where it is known without side effects: a fresh
  // ladder Top batch with no bucket sorted yet defers its minimum (the
  // hot path deliberately does not force that sort), so the main head's
  // checks resume at the next pop.
  std::array<FelKey, kLanes + 1> head{};
  std::array<bool, kLanes + 1> known{};
  for (unsigned p = 0; p < kLanes; ++p) {
    known[p] = ((lane_mask_ >> p) & 1u) != 0;
    if (known[p]) head[p] = lanes_[p].keys[lanes_[p].head];
  }
  const bool has_main = main_size() != 0;
  known[kMainSrc] = has_main && (!spilled_ || ladder_.min_materialized());
  if (known[kMainSrc]) {
    head[kMainSrc] = spilled_ ? ladder_.materialized_min() : heap_.min_key();
  }
  const auto nonempty = [&](unsigned src) {
    return src < kLanes ? known[src] : src == kMainSrc && has_main;
  };
  // next_src_ holds next_key_; every other head sorts after it and at or
  // after others_min_; others_src_, if named, attains the bound.
  if (!nonempty(next_src_)) return false;
  if (known[next_src_] && head[next_src_] != next_key_) return false;
  for (unsigned src = 0; src <= kMainSrc; ++src) {
    if (src == next_src_ || !known[src]) continue;
    if (!(next_key_ < head[src]) || head[src] < others_min_) return false;
  }
  if (others_src_ == kNoSrc) return true;
  return others_src_ != next_src_ && nonempty(others_src_) &&
         (!known[others_src_] || head[others_src_] == others_min_);
}

bool EventQueue::lanes_ordered() const {
  // Each lane ascending, every key of its lane's priority.
  for (std::size_t p = 0; p < kLanes; ++p) {
    const Lane& lane = lanes_[p];
    for (std::size_t i = lane.head; i < lane.keys.size(); ++i) {
      const FelKey k = lane.keys[i];
      if ((fel_low64(k) >> (kFelSeqBits + kFelSlotBits)) != p) return false;
      if (i > lane.head && !(lane.keys[i - 1] < k)) return false;
    }
  }
  return true;
}

void EventQueue::debug_validate() {
  if (spilled_) ladder_.debug_validate();
  GF_ENSURES(lanes_ordered());
  GF_ENSURES(consistent());
}

}  // namespace gridfed::sim
