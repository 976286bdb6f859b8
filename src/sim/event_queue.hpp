#pragma once
// Future-event list: a hybrid over two backing structures that pop in
// the identical total order (see fel.hpp), fronted by one sorted FIFO
// lane per priority.
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
// Sorted-tail lanes.  Most events are pushed in increasing key order
// per priority: a zero-latency run schedules its next hop at the instant
// being dispatched, and a WAN with one fixed latency schedules every
// delivery at now + latency, both under a fresh (growing) seq.  Such a
// push skips the heap/ladder: each priority has one FIFO lane, and a
// push is appended to its priority's lane when the lane is empty or the
// key sorts after the lane's tail, whatever the key's time.  Every other
// push goes to the main structure: a reserved (older) seq that sorts
// before the tail, and any out-of-order time (a completion, a timeout of
// a different length).  Each lane is therefore sorted, so its head is
// its smallest key.  A pop takes the smallest of the non-empty lanes'
// heads (at most four) and the main structure's minimum, compared by the
// full 128-bit key: the pop order is the total key order, exactly as
// without the lanes.  The queue caches which of these sources holds the
// minimum, so a pop takes it without searching again, and a lower bound
// on the other sources' heads together with the source that attains it,
// if known.  While the popped source's next key sorts before that bound
// it is the next minimum; otherwise the bound's source takes over.  So a
// run of pops from one lane compares one key per pop, not five, and so
// does a lane that drains after every pop (a zero-latency request/reply
// chain); only a pop whose successor is unknown searches all sources.
//
// Lane storage.  A lane on a WAN may never drain, so a lane is a vector
// with a consumed prefix [0, head): when a push finds the vector at
// capacity with at least half of it consumed, the live suffix moves to
// the front instead of the vector growing.  It grows only while more
// than half of it is live, so a lane's storage stays below four times
// its peak live key count (or its initial reserve, if larger), and a
// steady state allocates nothing.
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
  std::uint64_t lane_pops = 0;  ///< pops served by a lane
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

  /// Inserts an event.  O(1) amortized into a lane, otherwise O(log n)
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
  /// the lanes' heads and the structural minimum and sits where the
  /// cached source says, the inactive structure is empty, and every lane
  /// is ascending within its priority.  GF_SIM_CHECK runs all but the
  /// per-key lane scan after every mutating op in debug builds; Release
  /// test binaries call it explicitly.  Throws ContractViolation.
  void debug_validate();

 private:
  static constexpr std::size_t kInitialCapacity = 4096;
  /// Initial keys per lane: past a zero-latency run's widest instant and
  /// a WAN run's in-flight deliveries, so the lanes do not grow in the
  /// hot loop.
  static constexpr std::size_t kLaneCapacity = 1024;
  static constexpr std::size_t kLanes = 4;  ///< one per EventPriority
  /// Sources of pending keys: lane p is named by its priority
  /// (0 .. kLanes - 1), the main structure by kMainSrc; kNoSrc names none.
  static constexpr unsigned kMainSrc = kLanes;
  static constexpr unsigned kNoSrc = kLanes + 1;
  /// next_key_ of an empty queue, and others_min_ with no other source:
  /// decodes to kTimeInfinity.  It is the largest key the packing can
  /// produce (time +inf, every low bit set), so every real key sorts at
  /// or before it.  Emptiness is tested directly (sizes, kNoSrc), never
  /// by comparing a key with it.
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
  /// Re-derives next_key_/next_src_ and others_min_/others_src_ from
  /// every source (lane heads vs main minimum) after a pop that cannot
  /// name the next minimum's source, and prefetches the next dispatch.
  void refresh_next();
  /// Prefetches the slot record(s) of the next dispatch(es).
  void prefetch_next();
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

  /// One priority's sorted FIFO: keys[head..] ascending, keys[..head)
  /// consumed.  Reset to empty (storage kept) whenever it drains.
  struct Lane {
    std::vector<FelKey> keys;
    std::size_t head = 0;

    /// Appends a key that sorts after the tail.  At capacity, reclaims
    /// the consumed prefix instead of growing while it is at least half
    /// the vector (see "Lane storage" above).
    void append(FelKey key) {
      if (keys.size() == keys.capacity() && head >= keys.size() / 2) {
        keys.erase(keys.begin(),
                   keys.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      keys.push_back(key);
    }
  };
  std::array<Lane, kLanes> lanes_;
  unsigned lane_mask_ = 0;      ///< bit p set while lanes_[p] is non-empty
  std::size_t lane_keys_ = 0;   ///< keys across all lanes

  FelKey next_key_ = kNoKey;    ///< the minimum pending key (cached)
  unsigned next_src_ = kNoSrc;  ///< the source holding next_key_; kNoSrc
                                ///< exactly while the queue is empty
  /// A lower bound on the heads of every source but next_src_ (kNoKey
  /// when there are none).  A pop whose source's new head sorts before it
  /// has found the next minimum without looking at the other sources.
  FelKey others_min_ = kNoKey;
  /// The source whose head equals others_min_, or kNoSrc when the bound
  /// is not known to be attained.  A pop whose source's new head sorts
  /// after the bound hands the minimum to this source without a search.
  unsigned others_src_ = kNoSrc;
  FelStats stats_;
  std::vector<FelKey> migrate_scratch_;
};

}  // namespace gridfed::sim

#include "sim/event_queue_inl.hpp"  // IWYU pragma: keep
