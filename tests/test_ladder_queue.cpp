// Property/fuzz tests for the ladder-queue FEL and the hybrid EventQueue
// (sim/fel.hpp, sim/ladder_queue.hpp, sim/event_queue.hpp): randomized
// push/pop interleavings asserting pop-order and digest equality between
// the heap, ladder, and hybrid backings against a std::set reference —
// including equal-key ties, skewed/bursty timestamp distributions, the
// zero-width-bucket pathological case, pushes at the edge of an
// exhausted rung, repeated spill/un-spill migrations of a
// small-threshold hybrid, and lane pushes (same-instant and constant
// delay) mixed with reserved-seq pushes — plus the allocation-free
// steady-state contract (rung/bucket recycling).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "sim/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/fel.hpp"
#include "sim/ladder_queue.hpp"
#include "sim/random.hpp"

// ---- allocation counting ----------------------------------------------------
// Same instrumentation as test_event_kernel.cpp: global new/delete are
// replaced so the recycling contract is asserted, not assumed.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gridfed::sim {
namespace {

// ---- raw LadderQueue vs HeapFel: key-level equivalence ----------------------

[[nodiscard]] FelKey make_key(SimTime t, unsigned prio, std::uint64_t seq,
                              std::uint32_t slot) {
  return (static_cast<FelKey>(std::bit_cast<std::uint64_t>(t)) << 64) |
         (static_cast<std::uint64_t>(prio) << (kFelSeqBits + kFelSlotBits)) |
         (seq << kFelSlotBits) | slot;
}

TEST(LadderQueue, PopOrderMatchesHeapOnRandomKeys) {
  Rng rng(7);
  HeapFel heap;
  LadderQueue ladder;
  for (std::uint64_t seq = 0; seq < 20000; ++seq) {
    const SimTime t = rng.uniform01() * 1e6;
    const auto prio = static_cast<unsigned>(rng.uniform_int(0, 3));
    const FelKey k = make_key(t, prio, seq, seq & kFelSlotMask);
    heap.push(k);
    ladder.push(k);
  }
  ASSERT_EQ(heap.size(), ladder.size());
  while (!heap.empty()) {
    ASSERT_EQ(heap.min_key(), ladder.min_key());
    ASSERT_EQ(heap.pop_min(), ladder.pop_min());
  }
  EXPECT_TRUE(ladder.empty());
  ladder.debug_validate();
}

TEST(LadderQueue, InterleavedPushPopMatchesHeap) {
  // Pops interleave with pushes that never go below the last popped
  // time (the simulation's usage pattern), so keys route through every
  // tier: Top, rungs mid-consumption, and direct Bottom inserts.
  Rng rng(21);
  HeapFel heap;
  LadderQueue ladder;
  SimTime now = 0.0;
  std::uint64_t seq = 0;
  for (int step = 0; step < 60000; ++step) {
    const bool do_push = heap.empty() || rng.uniform01() < 0.52;
    if (do_push) {
      const SimTime t = now + rng.uniform01() * 64.0;
      const FelKey k = make_key(t, static_cast<unsigned>(rng.uniform_int(0, 3)),
                                seq, seq & kFelSlotMask);
      ++seq;
      heap.push(k);
      ladder.push(k);
    } else {
      const FelKey a = heap.pop_min();
      const FelKey b = ladder.pop_min();
      ASSERT_EQ(a, b) << "divergence at step " << step;
      now = fel_time_of(a);
    }
    if ((step & 4095) == 0) ladder.debug_validate();
  }
  while (!heap.empty()) ASSERT_EQ(heap.pop_min(), ladder.pop_min());
  EXPECT_TRUE(ladder.empty());
}

TEST(LadderQueue, ZeroWidthBucketSortsStraightToBottom) {
  // Every key at one timestamp: the span cannot be subdivided, so the
  // transfer must fall through to the Bottom sort — no rung ever spawns,
  // no matter how large the batch — and ties pop in (priority, seq)
  // order.
  LadderQueue ladder;
  constexpr std::uint64_t kN = 10000;
  for (std::uint64_t seq = 0; seq < kN; ++seq) {
    ladder.push(make_key(42.0, static_cast<unsigned>(seq % 4), seq,
                         seq & kFelSlotMask));
  }
  FelKey prev = ladder.pop_min();
  EXPECT_EQ(ladder.active_rungs(), 0u);
  for (std::uint64_t i = 1; i < kN; ++i) {
    const FelKey k = ladder.pop_min();
    ASSERT_LT(prev, k);
    ASSERT_DOUBLE_EQ(fel_time_of(k), 42.0);
    prev = k;
  }
  EXPECT_TRUE(ladder.empty());
  ladder.debug_validate();
}

TEST(LadderQueue, ClusteredTimestampsDegradeGracefully) {
  // Bursty pathological mix: huge same-time spikes plus a skewed tail.
  // Oversized same-time buckets must hit the kMaxRungs / zero-width
  // guards and still pop in exact key order.
  Rng rng(1234);
  HeapFel heap;
  LadderQueue ladder;
  std::uint64_t seq = 0;
  for (int burst = 0; burst < 40; ++burst) {
    const SimTime spike = std::floor(rng.uniform01() * 16.0);
    for (int i = 0; i < 400; ++i) {
      const bool on_spike = rng.uniform01() < 0.8;
      const SimTime t =
          on_spike ? spike : spike + std::pow(rng.uniform01(), 8.0) * 1e5;
      const FelKey k = make_key(t, static_cast<unsigned>(rng.uniform_int(0, 3)),
                                seq, seq & kFelSlotMask);
      ++seq;
      heap.push(k);
      ladder.push(k);
    }
  }
  while (!heap.empty()) {
    ASSERT_EQ(heap.pop_min(), ladder.pop_min());
  }
  EXPECT_TRUE(ladder.empty());
}

// ---- hybrid EventQueue: backend-equivalence fuzz ----------------------------

struct PopRecord {
  SimTime time;
  EventPriority priority;
  EventSeq seq;
};

bool record_before(const PopRecord& a, const PopRecord& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.seq < b.seq;
}

// The four configurations under test: every op sequence is applied to
// all of them in lockstep, and each must agree with the std::set
// reference at every step.  The small-threshold hybrid crosses the
// spill (128) and un-spill (32) boundaries many times per run.
constexpr std::size_t kNumQueues = 4;

std::array<FelConfig, kNumQueues> fuzz_configs() {
  return {FelConfig{FelConfig::Kind::kHeap, 8192},
          FelConfig{FelConfig::Kind::kLadder, 8192},
          FelConfig{FelConfig::Kind::kHybrid, 8192},
          FelConfig{FelConfig::Kind::kHybrid, 128}};
}

/// Drives an identical random push/pop interleaving through all four
/// backends; `next_push_time` shapes the timestamp distribution.  The
/// push share alternates between 60% and 40% every 1024 steps, so the
/// pending set climbs and drains by ~200 keys per phase: the 128-key
/// hybrid must spill and un-spill within every run.  A `reserved_share`
/// of the pushes takes its seq from a shuffled pool set aside before the
/// first push (as Simulation::reserve_seq does for streamed arrivals):
/// older than every fresh seq, so it joins a lane only when its time
/// sorts after the lane's tail.  `min_lane_pops`, if given, receives the
/// fewest lane pops any backend served.  `anchor_lanes` first parks one
/// key per priority at kLaneAnchor, past every fuzz time, and pops them
/// only in the final drain: every fuzz push then sorts before its lane's
/// tail, so all of them reach the heap/ladder under test.
constexpr SimTime kLaneAnchor = 1e12;

template <typename NextTime>
void run_backend_fuzz(std::uint64_t seed, int steps, NextTime next_push_time,
                      double reserved_share = 0.0,
                      std::uint64_t* min_lane_pops = nullptr,
                      bool anchor_lanes = false) {
  Rng rng(seed);
  std::vector<EventSeq> reserved;
  if (reserved_share > 0.0) {
    reserved.resize(static_cast<std::size_t>(steps));
    for (std::size_t i = 0; i < reserved.size(); ++i) reserved[i] = i;
    for (std::size_t i = reserved.size(); i > 1; --i) {
      std::swap(reserved[i - 1],
                reserved[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i - 1)))]);
    }
  }
  const auto cfgs = fuzz_configs();
  std::vector<EventQueue> queues;
  queues.reserve(kNumQueues);
  for (const auto& cfg : cfgs) queues.emplace_back(cfg);
  EventQueue& small_hybrid = queues[kNumQueues - 1];

  std::set<PopRecord, decltype(&record_before)> ref(&record_before);
  SimTime now = 0.0;
  EventSeq seq = reserved.size();
  int spills = 0;
  int unspills = 0;
  std::size_t anchors = 0;
  if (anchor_lanes) {
    for (int p = 0; p < 4; ++p) {
      const auto prio = static_cast<EventPriority>(p);
      for (auto& q : queues) q.push(Event{kLaneAnchor, prio, seq, [] {}});
      ref.insert(PopRecord{kLaneAnchor, prio, seq++});
      ++anchors;
    }
  }

  for (int step = 0; step < steps; ++step) {
    const double push_share = (step / 1024) % 2 == 0 ? 0.6 : 0.4;
    const bool was_spilled = small_hybrid.spilled();
    if (ref.size() <= anchors || rng.uniform01() < push_share) {
      const SimTime t = now + next_push_time(rng);
      const auto prio = static_cast<EventPriority>(rng.uniform_int(0, 3));
      EventSeq s = seq;
      if (!reserved.empty() && rng.uniform01() < reserved_share) {
        s = reserved.back();
        reserved.pop_back();
      } else {
        ++seq;
      }
      for (auto& q : queues) q.push(Event{t, prio, s, [] {}});
      ref.insert(PopRecord{t, prio, s});
    } else {
      const PopRecord want = *ref.begin();
      ref.erase(ref.begin());
      for (std::size_t q = 0; q < kNumQueues; ++q) {
        ASSERT_DOUBLE_EQ(queues[q].next_time(), want.time) << "queue " << q;
        const Event got = queues[q].pop();
        ASSERT_DOUBLE_EQ(got.time, want.time) << "queue " << q;
        ASSERT_EQ(got.priority, want.priority) << "queue " << q;
        ASSERT_EQ(got.seq, want.seq) << "queue " << q;
      }
      now = want.time;
    }
    spills += !was_spilled && small_hybrid.spilled();
    unspills += was_spilled && !small_hybrid.spilled();

    const SimTime want_next = ref.empty() ? kTimeInfinity : ref.begin()->time;
    for (std::size_t q = 0; q < kNumQueues; ++q) {
      ASSERT_EQ(queues[q].size(), ref.size()) << "queue " << q;
      ASSERT_DOUBLE_EQ(queues[q].next_time(), want_next) << "queue " << q;
    }
    if ((step & 1023) == 0) {
      for (auto& q : queues) q.debug_validate();
    }
  }
  EXPECT_GE(spills, 1) << "the 128-key hybrid never spilled";
  EXPECT_GE(unspills, 1) << "the 128-key hybrid never un-spilled";
  // The queue's own migration counters saw exactly the same flips.
  EXPECT_EQ(small_hybrid.stats().spills, static_cast<std::uint64_t>(spills));
  EXPECT_EQ(small_hybrid.stats().unspills,
            static_cast<std::uint64_t>(unspills));

  // Drain: every queue hands out the identical remaining stream.
  while (!ref.empty()) {
    const PopRecord want = *ref.begin();
    ref.erase(ref.begin());
    for (std::size_t q = 0; q < kNumQueues; ++q) {
      const Event got = queues[q].pop();
      ASSERT_EQ(got.seq, want.seq) << "queue " << q;
    }
  }
  for (auto& q : queues) {
    EXPECT_TRUE(q.empty());
    q.debug_validate();
    if (min_lane_pops != nullptr) {
      *min_lane_pops = std::min(*min_lane_pops, q.stats().lane_pops);
    }
  }
}

TEST(EventQueueFuzz, UniformTimestamps) {
  run_backend_fuzz(101, 20000,
                   [](Rng& rng) { return rng.uniform01() * 256.0; });
}

TEST(EventQueueFuzz, BurstyTimestamps) {
  // Dense same-instant bursts with rare far jumps: heavy (time,
  // priority) collisions exercise the seq tie-break through the rung
  // binning, plus occasional huge spans exercise re-spawning.
  run_backend_fuzz(202, 20000, [](Rng& rng) -> SimTime {
    const double d = rng.uniform01();
    if (d < 0.45) return 0.0;
    if (d < 0.9) return static_cast<double>(rng.uniform_int(1, 4));
    return rng.uniform01() * 1e5;
  });
}

TEST(EventQueueFuzz, SkewedTimestamps) {
  // Heavy-tailed deltas (pow-8 skew): most keys cluster tightly, a few
  // land far out — the distribution that forces deep rung recursion.
  run_backend_fuzz(303, 20000, [](Rng& rng) {
    return std::pow(rng.uniform01(), 8.0) * 4096.0;
  });
}

TEST(EventQueueFuzz, FarLatticeTimestamps) {
  // Integer times with a heavy mass at a fixed far offset: a spread's
  // last bucket is oversized, so pulling it spawns a child rung and moves
  // the parent's frontier past its final bucket; pushes at exactly the
  // spread's max time must then route into the child, not into the
  // parent's consumed bucket behind its frontier.
  // Anchored lanes: these pushes come mostly in increasing key order per
  // priority, which the lanes would take off the ladder.
  run_backend_fuzz(
      505, 20000,
      [](Rng& rng) -> SimTime {
        if (rng.uniform01() < 0.4) {
          return static_cast<double>(rng.uniform_int(0, 2));
        }
        return 256.0 - static_cast<double>(rng.uniform_int(0, 1));
      },
      0.0, nullptr, /*anchor_lanes=*/true);
}

TEST(EventQueueFuzz, ZeroWidthTimestamps) {
  // Every push one time unit past the current instant: the pending set
  // holds at most two distinct timestamps, the near-all-equal
  // pathological case end-to-end through the hybrid (buckets can never
  // subdivide).  A constant delay under a fresh seq is exactly what the
  // lanes take, so the lanes are anchored: every push sorts before its
  // lane's tail and reaches the heap or ladder.
  run_backend_fuzz(
      404, 12000, [](Rng&) { return 1.0; }, 0.0, nullptr,
      /*anchor_lanes=*/true);
}

TEST(EventQueueFuzz, SameInstantLanesWithReservedSeqs) {
  // Half the pushes land at the current instant and fill the lanes; a
  // quarter take a reserved, older seq — at the instant too, half the
  // time — which sorts before the lane's tail and so must be placed
  // by the main structure, yet pop in exact key order.
  std::uint64_t lane_pops = ~std::uint64_t{0};
  run_backend_fuzz(
      606, 20000,
      [](Rng& rng) -> SimTime {
        return rng.uniform01() < 0.5 ? 0.0 : rng.uniform01() * 64.0;
      },
      0.25, &lane_pops);
#if GRIDFED_TRACE
  EXPECT_GT(lane_pops, 0u);
#endif
}

TEST(EventQueueFuzz, ConstantDelayLanes) {
  // A WAN with one fixed latency: most pushes land at now + sqrt(2), in
  // increasing key order per priority, so the lanes serve them and may
  // never drain.  Random-time pushes (some after a lane's tail, some
  // before) and reserved, older seqs mix in; the pop order must still be
  // the reference's exactly, on every backend.
  std::uint64_t lane_pops = ~std::uint64_t{0};
  run_backend_fuzz(
      707, 20000,
      [](Rng& rng) -> SimTime {
        return rng.uniform01() < 0.5 ? std::sqrt(2.0)
                                     : rng.uniform01() * 8.0;
      },
      0.25, &lane_pops);
#if GRIDFED_TRACE
  EXPECT_GT(lane_pops, 0u);
#endif
}

// ---- hybrid spill / un-spill ------------------------------------------------

TEST(EventQueueHybrid, SpillsAndUnspillsAcrossTheHysteresisBand) {
  // Descending times: the first push opens the (empty) arrival lane and
  // every later one sorts before that lane's tail, so it goes to the
  // main structure — the only keys the spill threshold counts.
  EventQueue q(FelConfig{FelConfig::Kind::kHybrid, 256});
  EventSeq seq = 0;
  (void)q.push(Event{257.0, EventPriority::kArrival, seq++, [] {}});
  for (int i = 256; i > 1; --i) {
    (void)q.push(Event{static_cast<double>(i), EventPriority::kArrival, seq++,
                       [] {}});
  }
  EXPECT_FALSE(q.spilled());
  (void)q.push(
      Event{1.0, EventPriority::kArrival, seq++, [] {}});  // 256th main key
  EXPECT_TRUE(q.spilled());
  EXPECT_EQ(q.stats().spills, 1u);
  // Hysteresis: draining to just above threshold/4 keeps the ladder (the
  // lane's one key pops last).
  while (q.size() > 66) (void)q.pop();
  EXPECT_TRUE(q.spilled());
  (void)q.pop();  // 64 == 256/4 main keys: un-spill
  EXPECT_FALSE(q.spilled());
  EXPECT_EQ(q.stats().unspills, 1u);
  q.debug_validate();
  // The events themselves are untouched by both migrations.
  SimTime prev = -1.0;
  while (!q.empty()) {
    const SimTime t = q.pop().time;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(EventQueueHybrid, ForcedLadderSpillsFromTheFirstKey) {
  EventQueue q(FelConfig{FelConfig::Kind::kLadder, 8192});
  EXPECT_TRUE(q.spilled());
  (void)q.push(Event{1.0, EventPriority::kControl, 0, [] {}});
  EXPECT_TRUE(q.spilled());
  (void)q.pop();
  EXPECT_TRUE(q.spilled());  // kLadder never un-spills
}

// ---- the allocation-free steady state ---------------------------------------

TEST(LadderQueueAlloc, SteadyStatePushPopIsAllocationFree) {
  // Two identical passes (same Rng seed, same interleaving).  The first
  // takes every vector, rung, and bucket to its high-water mark; the
  // second must run entirely on recycled storage — rungs park in the
  // pool with their buckets intact, Bottom/scratch swap buffers, Top
  // keeps its capacity.
  EventQueue q(FelConfig{FelConfig::Kind::kLadder, 8192});
  const auto pass = [&q] {
    Rng rng(5150);
    SimTime now = 0.0;
    EventSeq seq = 0;
    InlineFunction action;
    for (int i = 0; i < 6000; ++i) {
      (void)q.push(Event{now + rng.uniform01() * 128.0,
                         EventPriority::kArrival, seq++, [] {}});
    }
    for (int step = 0; step < 30000; ++step) {
      if (rng.uniform01() < 0.5) {
        (void)q.push(Event{now + rng.uniform01() * 128.0,
                           EventPriority::kArrival, seq++, [] {}});
      } else if (!q.empty()) {
        now = q.pop_into(action);
      }
    }
    while (!q.empty()) (void)q.pop_into(action);
  };
  pass();  // warm-up
  const std::uint64_t before = g_allocations.load();
  pass();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "ladder steady state allocated";
}

TEST(HybridAlloc, HeapResidentSteadyStateStaysAllocationFree) {
  // Below the spill threshold the hybrid is the PR 2 heap path; the
  // original zero-allocation contract must still hold.
  EventQueue q;  // hybrid, threshold 8192
  const auto pass = [&q] {
    InlineFunction action;
    for (EventSeq s = 0; s < 1024; ++s) {
      (void)q.push(Event{static_cast<double>((s * 31) % 97),
                         EventPriority::kArrival, s, [] {}});
    }
    while (!q.empty()) (void)q.pop_into(action);
  };
  pass();
  const std::uint64_t before = g_allocations.load();
  pass();
  EXPECT_FALSE(q.spilled());
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "hybrid heap-resident steady state allocated";
}

}  // namespace
}  // namespace gridfed::sim
