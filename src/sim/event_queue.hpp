#pragma once
// Future-event list: a hybrid over two backing structures that pop in
// the identical total order (see fel.hpp), fronted by same-instant FIFO
// lanes.
//
//   * HeapFel     — the 4-ary min-heap; O(log n) but cache-resident and
//                   unbeatable while the pending set fits L1/L2;
//   * LadderQueue — Rung/Bucket/Bottom ladder (ladder_queue.hpp); O(1)
//                   amortized independent of size, the cold-cache choice.
//
// The hybrid stays on the heap below FelConfig::spill_threshold pending
// keys and migrates to the ladder above it (un-spilling at threshold/4 —
// hysteresis, so a set oscillating around the threshold does not thrash
// O(n) migrations).  Because both structures emit the exact full-key
// order — [ time : 64 | priority : 2 | seq : 40 | slot : 22 ], where the
// IEEE bit pattern of a non-negative double orders like its value — the
// backend choice and every migration are invisible to pop order: no
// golden digest depends on which structure held the events.
//
// Same-instant lanes.  Most events of a zero-latency run are scheduled
// at the instant being dispatched (a message delivery, its reply, the
// next hop).  Such a push skips the heap/ladder: it is appended to one
// FIFO lane per priority when its time equals the lanes' instant (the
// time of the last pop from the main structure) and its key sorts after
// the lane's tail — which a fresh seq always does, because seqs grow.
// Each lane is therefore sorted, every lane key carries the same time,
// and a lower priority's lane holds smaller keys, so the head of the
// first non-empty lane is the smallest lane key.  A pop takes the
// smaller of that head and the main structure's minimum, compared by
// the full 128-bit key: the pop order is the total key order, exactly
// as without the lanes.  A push with a reserved (older) seq sorts before
// the lane's tail and goes to the main structure; so does every push at
// a later time.  The instant moves only while the lanes are empty.
//
// Reserved seqs.  Simulation::reserve_seq() hands out a seq now for an
// event scheduled later (a job arrival streamed per origin), so the
// event pops with the key it would have had if it had been pushed at
// reservation time.  The queue needs nothing for it beyond the lane
// rule above: a key is placed by its value, never by its push order.
//
// The inline callbacks live in a stable slot-indexed side array of
// cache-line-sized records and never move while queued; the FEL
// structures and the lanes shuffle 16-byte integers only.
// There is no cancellation: a pushed event always pops.  A timeout that
// may go stale (an enquiry, a hold, an auction deadline) is filtered by
// its own callback, which checks the token it captured (an attempt or
// hold token, an open-auction lookup) against its owner's state and
// returns early on a mismatch.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/fel.hpp"
#include "sim/ladder_queue.hpp"

namespace gridfed::sim {

/// FEL telemetry (EventQueue::stats()).  The migration counts are always
/// kept — they tick only when the queue switches structure.  The peak and
/// the lane pops sit on the per-pop path and are counted only with
/// GRIDFED_TRACE compiled in (0 otherwise).
struct FelStats {
  /// Largest size() right after a pop: the pending set a dispatch sees.
  std::size_t peak_keys = 0;
  std::uint64_t spills = 0;     ///< heap -> ladder migrations
  std::uint64_t unspills = 0;   ///< ladder -> heap migrations (and drains)
  std::uint64_t lane_pops = 0;  ///< pops served by a same-instant lane
};

/// Pending-event list ordered by (time, priority, seq).
/// Deterministic: equal-time events pop in seq order within a priority
/// class (insertion order, unless the seq was reserved earlier),
/// regardless of which structure or lane holds them.
///
/// Contracts (all checked, loud): event times are non-negative (the
/// simulation clock starts at 0 and never moves backwards), seq < 2^40,
/// and at most 2^22 events are pending at once — far beyond any
/// federation sweep, and a violation fails a GF_EXPECTS rather than
/// silently reordering.
class EventQueue {
 public:
  EventQueue() : EventQueue(FelConfig{}) {}

  explicit EventQueue(const FelConfig& cfg) : cfg_(cfg) {
    // One queue drives a whole federation run; pre-sizing skips the
    // first rounds of growth (and InlineFunction relocation) in the hot
    // loop.
    slots_.reserve(kInitialCapacity);
    free_slots_.reserve(kInitialCapacity);
    for (auto& lane : lanes_) lane.keys.reserve(kLaneCapacity);
    spilled_ = cfg_.kind == FelConfig::Kind::kLadder;
  }

  /// Inserts an event.  O(1) into a same-instant lane, otherwise O(log n)
  /// on the heap or O(1) amortized on the ladder; allocation-free apart
  /// from amortized storage growth (slots freed by pop() are reused).
  /// Defined inline below: push/pop are the innermost simulation loop.
  void push(Event ev);

  /// Removes and returns the earliest event.  Precondition: !empty().
  [[nodiscard]] Event pop();

  /// Hot-loop variant of pop(): moves the earliest event's callback into
  /// `action` and returns its timestamp, skipping the Event round-trip
  /// (the dispatch loop needs neither seq nor priority).
  /// Precondition: !empty().
  SimTime pop_into(InlineFunction& action);

  /// Timestamp of the earliest event (cached; no structure access).
  /// kTimeInfinity when empty.
  [[nodiscard]] SimTime next_time() const noexcept {
    return fel_time_of(next_key_);
  }

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  /// Number of pending events, lanes included.
  [[nodiscard]] std::size_t size() const noexcept {
    return main_size() + lane_keys_;
  }

  // ---- introspection (tests, benches) -------------------------------------

  /// True while the ladder is the active backing structure.
  [[nodiscard]] bool spilled() const noexcept { return spilled_; }

  /// Peak, migration and lane counters (see FelStats).
  [[nodiscard]] const FelStats& stats() const noexcept { return stats_; }

  /// Always-compiled structural self-check: the cached minimum matches
  /// the lanes' heads and the structural minimum, the inactive structure
  /// is empty, and every lane is ascending at one instant.  GF_SIM_CHECK
  /// runs all but the per-key lane scan after every mutating op in debug
  /// builds; Release test binaries call it explicitly.  Throws
  /// ContractViolation.
  void debug_validate();

 private:
  static constexpr std::size_t kInitialCapacity = 4096;
  /// Initial keys per lane: past a zero-latency run's widest instant, so
  /// the lanes do not grow in the hot loop.
  static constexpr std::size_t kLaneCapacity = 1024;
  static constexpr std::size_t kLanes = 4;  ///< one per EventPriority
  /// next_key_ of an empty queue: decodes to kTimeInfinity and sorts
  /// after every real key.
  static constexpr FelKey kNoKey =
      (static_cast<FelKey>(0x7FF0000000000000ull) << 64) | ~std::uint64_t{0};
  /// How many upcoming pops refresh_next prefetches slot records for
  /// when the ladder's sorted Bottom run makes them exactly known (~4
  /// dispatches ≈ one DRAM miss latency of lead time).
  static constexpr std::size_t kPrefetchDepth = 4;

  /// Keys in the active main structure (the lanes excluded).
  [[nodiscard]] std::size_t main_size() const noexcept {
    return spilled_ ? ladder_.size() : heap_.size();
  }
  [[nodiscard]] FelKey active_min() {
    return spilled_ ? ladder_.min_key() : heap_.min_key();
  }
  [[nodiscard]] FelKey active_pop() {
    return spilled_ ? ladder_.pop_min() : heap_.pop_min();
  }

  /// Shared body of pop()/pop_into(): pops the minimum, moves its
  /// callback into `action`, recycles the slot, and returns the full
  /// 128-bit key so callers decode time/priority/seq without a second
  /// min query.
  FelKey pop_key(InlineFunction& action);

  /// Pops the main structure's minimum and settles it: a drained ladder
  /// resets, a hybrid un-spills across the hysteresis floor.
  FelKey pop_main();
  /// Re-derives next_key_ (lane head vs main minimum) after a pop and
  /// prefetches the slot record of the next dispatch.
  void refresh_next();
  void maybe_spill();
  void maybe_unspill();
  void migrate_to_ladder();
  void migrate_to_heap();
  [[nodiscard]] bool consistent();
  [[nodiscard]] bool lanes_ordered() const;

  FelConfig cfg_;
  HeapFel heap_;
  LadderQueue ladder_;
  bool spilled_ = false;  ///< which structure is active

  /// One action slot: the parked callback.  Cache-line aligned: slots
  /// are read in key order, i.e. randomly, so a callback never straddles
  /// two lines and refresh_next's single prefetch covers the whole next
  /// pop.
  struct alignas(64) Slot {
    InlineFunction action;
  };

  std::vector<Slot> slots_;                ///< slot-indexed, stable
  std::vector<std::uint32_t> free_slots_;  ///< recycled action slots

  /// One same-instant FIFO: keys[head..] ascending, all at instant_.
  /// Reset to empty (storage kept) whenever it drains.
  struct Lane {
    std::vector<FelKey> keys;
    std::size_t head = 0;
  };
  std::array<Lane, kLanes> lanes_;
  unsigned lane_mask_ = 0;      ///< bit p set while lanes_[p] is non-empty
  std::size_t lane_keys_ = 0;   ///< keys across all lanes
  SimTime instant_ = 0.0;       ///< the lanes' time: the clock's start, then
                                ///< the last main pop made with the lanes empty

  FelKey next_key_ = kNoKey;  ///< the minimum pending key (cached)
  FelStats stats_;
  std::vector<FelKey> migrate_scratch_;
};

}  // namespace gridfed::sim

#include "sim/event_queue_inl.hpp"  // IWYU pragma: keep
