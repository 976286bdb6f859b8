#pragma once
// Inline definitions of the EventQueue hot path (see event_queue.hpp for
// the design).  push/pop are the innermost loop of every simulation run;
// keeping them header-inline lets callers fold the Event round-trip away
// (e.g. a caller that only reads the popped time never materializes the
// decoded priority/seq).  The spilled_ branch predicts perfectly in
// steady state — a queue flips it once per migration, not per event.
// The lane branch follows the run: a zero-latency run or a WAN with one
// fixed latency takes it for most pushes and pops.

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/check.hpp"
#include "sim/event_queue.hpp"

namespace gridfed::sim {

inline void EventQueue::push(Event ev) {
  // The IEEE-bits-as-integer ordering trick needs a non-negative time
  // (which also rejects NaN).  -0.0 would bit-sort above every positive
  // value, so normalize it to +0.0.
  GF_EXPECTS(ev.time >= 0.0);
  if (ev.time == 0.0) ev.time = 0.0;
  GF_EXPECTS(ev.seq < (std::uint64_t{1} << kFelSeqBits));
  // The pack reserves 2 bits for the priority; a grown enum must not
  // silently truncate into a different ordering class.
  static_assert(static_cast<std::size_t>(EventPriority::kControl) < kLanes,
                "EventPriority no longer fits the 2-bit key field");

  // Park the callback in a stable slot; only the 16-byte key enters the
  // backing structure.
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  GF_EXPECTS(slot < (std::uint32_t{1} << kFelSlotBits));

  const auto prio = static_cast<std::uint64_t>(ev.priority);
  const std::uint64_t low = (prio << (kFelSeqBits + kFelSlotBits)) |
                            (ev.seq << kFelSlotBits) | slot;
  slots_[slot].action = std::move(ev.action);
  const FelKey key =
      (static_cast<FelKey>(std::bit_cast<std::uint64_t>(ev.time)) << 64) | low;

  Lane& lane = lanes_[prio];
  unsigned src = kMainSrc;
  if (lane.keys.empty() || lane.keys.back() < key) {
    lane.append(key);
    lane_mask_ |= 1u << prio;
    ++lane_keys_;
    src = static_cast<unsigned>(prio);
  } else if (spilled_) {
    ladder_.push(key);
  } else {
    heap_.push(key);
    maybe_spill();
  }
  // The cached minimum folds in with one compare — no min_key() call,
  // which keeps ladder pushes O(1) (min_key may sort a bucket).  `<=`,
  // not `<`: into an empty queue even a key equal to kNoKey is the new
  // minimum (keys are unique, so it cannot tie a real one).  A new
  // minimum from another source demotes the old one, which is exactly
  // the smallest of the others (of none, into an empty queue); a key
  // that lands below the others' bound becomes it.
  if (key <= next_key_) {
    if (src != next_src_) {
      others_min_ = next_key_;
      others_src_ = next_src_;
    }
    next_key_ = key;
    next_src_ = src;
  } else if (src != next_src_ && key < others_min_) {
    others_min_ = key;
    others_src_ = src;
  }
  GF_SIM_CHECK(consistent());
}

inline FelKey EventQueue::pop_main() {
  const FelKey top = active_pop();
  if (main_size() == 0) {
    // A drained ladder resets its rungs; a hybrid queue also returns to
    // the heap here — the cheapest possible un-spill point.
    if (spilled_) {
      ladder_.clear();
      if (cfg_.kind == FelConfig::Kind::kHybrid) {
        spilled_ = false;
        ++stats_.unspills;
      }
    }
  } else {
    maybe_unspill();
  }
  return top;
}

inline FelKey EventQueue::pop_key(InlineFunction& action) {
  // Pop the minimum's source and read its new head.  While that head
  // sorts before others_min_ it is the new minimum; otherwise, if the
  // others' bound is attained, its source takes over.  Either way no
  // source is searched: a run of pops from one lane (a same-instant
  // cascade, a WAN's deliveries) and a lane that drains after every pop
  // (a zero-latency request/reply chain) both stay off refresh_next.
  FelKey top;
  FelKey head = kNoKey;  // the popped source's new head; kNoKey if none
  if (next_src_ != kMainSrc) {
    Lane& lane = lanes_[next_src_];
    top = lane.keys[lane.head++];
    --lane_keys_;
    if (lane.head == lane.keys.size()) {
      lane.keys.clear();
      lane.head = 0;
      lane_mask_ &= ~(1u << next_src_);
    } else {
      head = lane.keys[lane.head];
    }
#if GRIDFED_TRACE
    ++stats_.lane_pops;
#endif
  } else {
    top = pop_main();
    if (main_size() != 0) head = active_min();
  }
  const std::uint32_t slot = fel_slot_of(top);
  action = std::move(slots_[slot].action);
  free_slots_.push_back(slot);
  if (head < others_min_) {
    next_key_ = head;
    prefetch_next();
  } else if (others_src_ != kNoSrc) {
    // others_min_ stays a valid bound on the rest, but no longer names a
    // source: the popped source's head and every other head sort after it.
    next_key_ = others_min_;
    next_src_ = others_src_;
    others_src_ = kNoSrc;
    prefetch_next();
  } else {
    refresh_next();
  }
#if GRIDFED_TRACE
  if (size() > stats_.peak_keys) stats_.peak_keys = size();
#endif
  GF_SIM_CHECK(consistent());
  return top;
}

inline SimTime EventQueue::pop_into(InlineFunction& action) {
  GF_EXPECTS(!empty());
  return fel_time_of(pop_key(action));
}

inline Event EventQueue::pop() {
  GF_EXPECTS(!empty());
  constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kFelSeqBits) - 1;
  Event ev;
  const FelKey top = pop_key(ev.action);
  const auto low = fel_low64(top);
  ev.seq = (low >> kFelSlotBits) & kSeqMask;
  ev.priority =
      static_cast<EventPriority>(low >> (kFelSeqBits + kFelSlotBits));
  ev.time = fel_time_of(top);
  return ev;
}

inline void EventQueue::refresh_next() {
  const bool has_main = main_size() != 0;
  if (lane_mask_ == 0 && !has_main) {
    next_key_ = kNoKey;
    next_src_ = kNoSrc;
    others_min_ = kNoKey;
    others_src_ = kNoSrc;
    return;
  }
  // The smallest and second-smallest of the main minimum and each
  // non-empty lane's head, with their sources.  `<=` lets a head replace
  // the kNoKey stand-in of an empty main structure; a real main minimum
  // never ties a head (keys are unique).
  FelKey next = has_main ? active_min() : kNoKey;
  unsigned src = has_main ? kMainSrc : kNoSrc;
  FelKey second = kNoKey;
  unsigned second_src = kNoSrc;
  for (unsigned mask = lane_mask_; mask != 0; mask &= mask - 1) {
    const auto p = static_cast<unsigned>(std::countr_zero(mask));
    const FelKey head = lanes_[p].keys[lanes_[p].head];
    if (head <= next) {
      second = next;
      second_src = src;
      next = head;
      src = p;
    } else if (head < second) {
      second = head;
      second_src = p;
    }
  }
  next_key_ = next;
  next_src_ = src;
  others_min_ = second;
  others_src_ = second_src;
  prefetch_next();
}

inline void EventQueue::prefetch_next() {
  // The next dispatch will move this slot's record out; its line is a
  // guaranteed miss on large pending sets (slots are read in key order,
  // i.e. randomly).  Start the fetch now so it overlaps the caller's
  // work between pops.  On the ladder, Bottom's sorted run names the
  // next several pops exactly — not just the next one — so fetch deep
  // enough to cover a full miss latency; repeat prefetches of a line
  // already in flight are near-free.
  __builtin_prefetch(&slots_[fel_slot_of(next_key_)], 1);
  if (next_src_ == kMainSrc && spilled_) {
    const std::size_t depth = std::min<std::size_t>(
        ladder_.materialized_run(), kPrefetchDepth);
    for (std::size_t i = 1; i < depth; ++i) {
      __builtin_prefetch(&slots_[fel_slot_of(ladder_.materialized_at(i))], 1);
    }
  }
}

inline void EventQueue::maybe_spill() {
  if (cfg_.kind == FelConfig::Kind::kHybrid &&
      heap_.size() >= cfg_.spill_threshold) {
    migrate_to_ladder();
  }
}

inline void EventQueue::maybe_unspill() {
  if (spilled_ && cfg_.kind == FelConfig::Kind::kHybrid &&
      ladder_.size() <= cfg_.spill_threshold / 4) {
    migrate_to_heap();
  }
}

}  // namespace gridfed::sim
