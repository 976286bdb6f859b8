// EventQueue cold paths: the heap↔ladder migrations and the structural
// self-check (main structure and same-instant lanes).  The push/pop hot
// loop is header-inline (event_queue_inl.hpp).

#include "sim/event_queue.hpp"

#include <bit>

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
  if (empty()) return next_key_ == kNoKey;
  FelKey m = kNoKey;
  if (lane_mask_ != 0) {
    const Lane& lane = lanes_[std::countr_zero(lane_mask_)];
    m = lane.keys[lane.head];
  }
  if (main_size() != 0) {
    if (spilled_ && !ladder_.min_materialized()) {
      // A fresh Top batch with no bucket sorted yet: deriving the true
      // min would force a sort the hot path deliberately defers.  The
      // cached value is maintained by the push-side min-fold; the
      // cross-check resumes at the next pop.
      return next_key_ <= m;
    }
    const FelKey main_min =
        spilled_ ? ladder_.materialized_min() : heap_.min_key();
    if (main_min < m) m = main_min;
  }
  return next_key_ == m;
}

bool EventQueue::lanes_ordered() const {
  // Each lane ascending, every key at instant_ and of its lane's priority.
  for (std::size_t p = 0; p < kLanes; ++p) {
    const Lane& lane = lanes_[p];
    for (std::size_t i = lane.head; i < lane.keys.size(); ++i) {
      const FelKey k = lane.keys[i];
      if (fel_time_of(k) != instant_) return false;
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
