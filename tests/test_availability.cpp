// Unit + property tests for the processor-availability profile — the data
// structure that makes admission-control guarantees exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <tuple>
#include <vector>

#include "cluster/availability_profile.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"

namespace gridfed::cluster {
namespace {

TEST(AvailabilityProfile, StartsFullyAvailable) {
  AvailabilityProfile p(16);
  EXPECT_EQ(p.capacity(), 16u);
  EXPECT_EQ(p.available_at(0.0), 16u);
  EXPECT_EQ(p.available_at(1e9), 16u);
  EXPECT_TRUE(p.valid());
}

TEST(AvailabilityProfile, ReserveReducesWindowOnly) {
  AvailabilityProfile p(16);
  p.reserve(10.0, 20.0, 4);
  EXPECT_EQ(p.available_at(5.0), 16u);
  EXPECT_EQ(p.available_at(10.0), 12u);
  EXPECT_EQ(p.available_at(19.999), 12u);
  EXPECT_EQ(p.available_at(20.0), 16u);
  EXPECT_TRUE(p.valid());
}

TEST(AvailabilityProfile, OverlappingReservationsStack) {
  AvailabilityProfile p(16);
  p.reserve(0.0, 10.0, 4);
  p.reserve(5.0, 15.0, 4);
  EXPECT_EQ(p.available_at(2.0), 12u);
  EXPECT_EQ(p.available_at(7.0), 8u);
  EXPECT_EQ(p.available_at(12.0), 12u);
  EXPECT_EQ(p.available_at(15.0), 16u);
}

TEST(AvailabilityProfile, EarliestStartImmediateWhenFree) {
  AvailabilityProfile p(16);
  EXPECT_DOUBLE_EQ(p.earliest_start(3.0, 16, 100.0), 3.0);
}

TEST(AvailabilityProfile, EarliestStartWaitsForRelease) {
  AvailabilityProfile p(16);
  p.reserve(0.0, 10.0, 16);
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 1, 5.0), 10.0);
}

TEST(AvailabilityProfile, EarliestStartFindsHoleBetweenReservations) {
  AvailabilityProfile p(16);
  p.reserve(0.0, 10.0, 16);   // full
  p.reserve(20.0, 30.0, 16);  // full again
  // A 10s window fits exactly in [10, 20).
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 8, 10.0), 10.0);
  // An 11s window cannot use the hole; it must wait until 30.
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 8, 11.0), 30.0);
}

TEST(AvailabilityProfile, EarliestStartSkipsPartialCapacity) {
  AvailabilityProfile p(16);
  p.reserve(0.0, 10.0, 12);  // only 4 free until t=10
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 4, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(p.earliest_start(0.0, 8, 5.0), 10.0);
}

TEST(AvailabilityProfile, ZeroDurationStartsImmediately) {
  AvailabilityProfile p(4);
  p.reserve(0.0, 100.0, 4);
  EXPECT_DOUBLE_EQ(p.earliest_start(5.0, 4, 0.0), 5.0);
}

TEST(AvailabilityProfile, ReserveWithoutCapacityThrows) {
  AvailabilityProfile p(8);
  p.reserve(0.0, 10.0, 8);
  EXPECT_THROW(p.reserve(5.0, 6.0, 1), sim::ContractViolation);
}

TEST(AvailabilityProfile, ReserveMoreThanCapacityThrows) {
  AvailabilityProfile p(8);
  EXPECT_THROW(p.reserve(0.0, 1.0, 9), sim::ContractViolation);
}

TEST(AvailabilityProfile, TrimPreservesSemantics) {
  AvailabilityProfile p(16);
  p.reserve(0.0, 10.0, 4);
  p.reserve(20.0, 30.0, 8);
  p.trim(15.0);
  EXPECT_EQ(p.available_at(15.0), 16u);
  EXPECT_EQ(p.available_at(25.0), 8u);
  EXPECT_TRUE(p.valid());
}

TEST(AvailabilityProfile, TrimCompactsSteps) {
  AvailabilityProfile p(16);
  for (int i = 0; i < 100; ++i) {
    p.reserve(i, i + 1, 1);
  }
  const auto before = p.step_count();
  p.trim(100.0);
  EXPECT_LT(p.step_count(), before);
  EXPECT_EQ(p.available_at(100.0), 16u);
}

// Property test: a randomized sequence of earliest_start+reserve operations
// keeps the profile valid and never over-commits any instant.
TEST(AvailabilityProfileProperty, RandomReservationsNeverOvercommit) {
  sim::Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const auto capacity =
        static_cast<std::uint32_t>(rng.uniform_int(1, 128));
    AvailabilityProfile p(capacity);
    std::vector<std::tuple<double, double, std::uint32_t>> reservations;
    for (int i = 0; i < 200; ++i) {
      const auto procs =
          static_cast<std::uint32_t>(rng.uniform_int(1, capacity));
      const double not_before = rng.uniform(0.0, 1000.0);
      const double duration = rng.uniform(0.0, 100.0);
      const double start = p.earliest_start(not_before, procs, duration);
      ASSERT_GE(start, not_before);
      p.reserve(start, start + duration, procs);
      reservations.emplace_back(start, start + duration, procs);
    }
    ASSERT_TRUE(p.valid());
    // Cross-check: at sampled instants, sum of active reservations must
    // equal capacity - available.
    for (int s = 0; s < 200; ++s) {
      const double t = rng.uniform(0.0, 1200.0);
      std::uint64_t busy = 0;
      for (const auto& [b, e, q] : reservations) {
        if (b <= t && t < e) busy += q;
      }
      ASSERT_LE(busy, capacity);
      ASSERT_EQ(p.available_at(t), capacity - busy) << "t=" << t;
    }
  }
}

// Property test: earliest_start returns the *earliest* feasible instant —
// no feasible start exists strictly between not_before and the answer.
TEST(AvailabilityProfileProperty, EarliestStartIsEarliest) {
  sim::Rng rng(99);
  AvailabilityProfile p(32);
  for (int i = 0; i < 100; ++i) {
    const auto procs = static_cast<std::uint32_t>(rng.uniform_int(1, 32));
    const double duration = rng.uniform(1.0, 50.0);
    const double start = p.earliest_start(0.0, procs, duration);
    // Probe a few instants before `start`: none may fit the whole window.
    for (int probe = 0; probe < 10; ++probe) {
      const double t = rng.uniform(0.0, start);
      if (t >= start) continue;
      bool fits = true;
      for (int k = 0; k <= 20; ++k) {
        const double u = t + duration * k / 20.0;
        if (u >= start + duration) break;
        if (p.available_at(u) < procs) {
          fits = false;
          break;
        }
      }
      // A fit before `start` must span past a violation boundary that the
      // 21-point probe missed only if the window straddles `start` itself.
      if (fits) {
        ASSERT_GE(t + duration, start)
            << "found feasible start " << t << " before " << start;
      }
    }
    p.reserve(start, start + duration, procs);
  }
}


// ---- differential test against the node-based reference -------------------
// MapProfile is the former std::map implementation of AvailabilityProfile,
// kept verbatim in behaviour as the reference model.  The contiguous
// profile must agree with it exactly — every answer and every step count
// — under random operation sequences.

class MapProfile {
 public:
  explicit MapProfile(std::uint32_t capacity) : capacity_(capacity) {
    steps_.emplace(0.0, capacity);
  }

  [[nodiscard]] std::uint32_t available_at(sim::SimTime t) const {
    auto it = steps_.upper_bound(t);
    if (it == steps_.begin()) return capacity_;
    return std::prev(it)->second;
  }

  [[nodiscard]] sim::SimTime earliest_start(sim::SimTime not_before,
                                            std::uint32_t procs,
                                            sim::SimTime duration) const {
    sim::SimTime candidate = not_before;
    auto it = steps_.upper_bound(candidate);
    if (it != steps_.begin()) --it;
    while (it != steps_.end()) {
      const sim::SimTime seg_start = std::max(it->first, candidate);
      if (seg_start >= candidate + duration) break;
      if (it->second < procs) {
        auto next = std::next(it);
        candidate = next->first;
        it = next;
        continue;
      }
      ++it;
    }
    return candidate;
  }

  void reserve(sim::SimTime start, sim::SimTime end, std::uint32_t procs) {
    if (start == end) return;
    auto first = ensure_boundary(start);
    ensure_boundary(end);
    for (auto it = first; it != steps_.end() && it->first < end; ++it) {
      it->second -= procs;
    }
  }

  void release(sim::SimTime start, sim::SimTime end, std::uint32_t procs) {
    if (start == end) return;
    auto first = ensure_boundary(start);
    ensure_boundary(end);
    for (auto it = first; it != steps_.end() && it->first < end; ++it) {
      it->second += procs;
    }
  }

  void trim(sim::SimTime now) {
    auto it = steps_.upper_bound(now);
    if (it == steps_.begin()) return;
    --it;
    if (it == steps_.begin()) return;
    const std::uint32_t value = it->second;
    steps_.erase(steps_.begin(), std::next(it));
    steps_.emplace(now, value);
  }

  [[nodiscard]] std::size_t step_count() const { return steps_.size(); }
  [[nodiscard]] const std::map<sim::SimTime, std::uint32_t>& steps() const {
    return steps_;
  }

 private:
  std::map<sim::SimTime, std::uint32_t>::iterator ensure_boundary(
      sim::SimTime t) {
    auto it = steps_.lower_bound(t);
    if (it != steps_.end() && it->first == t) return it;
    const std::uint32_t value =
        (it == steps_.begin()) ? capacity_ : std::prev(it)->second;
    return steps_.emplace_hint(it, t, value);
  }

  std::uint32_t capacity_;
  std::map<sim::SimTime, std::uint32_t> steps_;
};

/// Both profiles hold the same step function: equal step counts, and
/// equal values at, between and before every reference step.
void expect_same_function(const AvailabilityProfile& p, const MapProfile& ref) {
  ASSERT_TRUE(p.valid());
  ASSERT_EQ(p.step_count(), ref.step_count());
  double prev = -1.0;
  for (const auto& [t, value] : ref.steps()) {
    ASSERT_EQ(p.available_at(t), value) << "t=" << t;
    const double mid = 0.5 * (prev + t);
    ASSERT_EQ(p.available_at(mid), ref.available_at(mid)) << "t=" << mid;
    prev = t;
  }
  ASSERT_EQ(p.available_at(prev + 1.0), ref.available_at(prev + 1.0));
}

TEST(AvailabilityProfileProperty, MatchesMapReferenceExactly) {
  sim::Rng rng(0x5eed);
  for (int trial = 0; trial < 40; ++trial) {
    // Small capacities make full-capacity jobs and saturated steps common.
    const auto capacity =
        static_cast<std::uint32_t>(rng.uniform_int(1, trial < 20 ? 4 : 64));
    AvailabilityProfile p(capacity);
    MapProfile ref(capacity);
    // Reservations not yet started at `now`: the only ones an LRMS may
    // still cancel.
    std::vector<std::tuple<double, double, std::uint32_t>> open;
    double now = 0.0;
    for (int op = 0; op < 400; ++op) {
      const auto kind = rng.uniform_int(0, 9);
      if (kind <= 4) {
        // earliest_start, then usually reserve the window it found.
        const auto procs = static_cast<std::uint32_t>(
            rng.bernoulli(0.25) ? capacity : rng.uniform_int(1, capacity));
        const double duration =
            rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 60.0);
        const double not_before = now + rng.uniform(0.0, 100.0);
        const double start = p.earliest_start(not_before, procs, duration);
        ASSERT_EQ(start, ref.earliest_start(not_before, procs, duration));
        ASSERT_GE(start, not_before);
        if (kind <= 3) {
          p.reserve(start, start + duration, procs);
          ref.reserve(start, start + duration, procs);
          if (duration > 0.0) open.emplace_back(start, start + duration, procs);
        }
      } else if (kind <= 6) {
        // Cancel a random still-pending reservation.
        if (open.empty()) continue;
        const auto i = rng.uniform_int(0, open.size() - 1);
        const auto [b, e, q] = open[i];
        p.release(b, e, q);
        ref.release(b, e, q);
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (kind == 7) {
        // Advance the clock, half the time exactly onto a step boundary.
        if (!open.empty() && rng.bernoulli(0.5)) {
          const auto& [b, e, q] =
              open[rng.uniform_int(0, open.size() - 1)];
          now = std::max(now, rng.bernoulli(0.5) ? b : e);
        } else {
          now += rng.uniform(0.0, 30.0);
        }
        p.trim(now);
        ref.trim(now);
        std::erase_if(open, [now](const auto& r) {
          return std::get<0>(r) < now;
        });
      } else {
        // Point queries, including recorded history before `now`.
        const double t = rng.uniform(0.0, now + 200.0);
        ASSERT_EQ(p.available_at(t), ref.available_at(t)) << "t=" << t;
      }
      ASSERT_TRUE(p.valid()) << "trial " << trial << " op " << op;
    }
    expect_same_function(p, ref);
  }
}

TEST(AvailabilityProfileProperty, EdgeCasesMatchMapReference) {
  AvailabilityProfile p(8);
  MapProfile ref(8);
  // Zero-duration window on a saturated step: starts immediately.
  p.reserve(10.0, 20.0, 8);
  ref.reserve(10.0, 20.0, 8);
  EXPECT_EQ(p.earliest_start(15.0, 8, 0.0), ref.earliest_start(15.0, 8, 0.0));
  EXPECT_EQ(p.earliest_start(15.0, 8, 0.0), 15.0);
  // A zero-length reserve is a no-op in both.
  p.reserve(12.0, 12.0, 8);
  ref.reserve(12.0, 12.0, 8);
  expect_same_function(p, ref);
  // Full-capacity job right behind a full-capacity reservation.
  EXPECT_EQ(p.earliest_start(0.0, 8, 10.0), ref.earliest_start(0.0, 8, 10.0));
  EXPECT_EQ(p.earliest_start(5.0, 8, 10.0), 20.0);
  // Trim exactly at a step time, then before all history, then again.
  for (const double t : {10.0, 10.0, 3.0, 20.0}) {
    p.trim(t);
    ref.trim(t);
    expect_same_function(p, ref);
  }
  EXPECT_EQ(p.available_at(0.0), ref.available_at(0.0));
  // A window reaching back before the trimmed history splits off a new
  // first step whose value before the window is full capacity.
  p.reserve(30.0, 40.0, 5);
  ref.reserve(30.0, 40.0, 5);
  p.trim(35.0);
  ref.trim(35.0);
  p.reserve(25.0, 45.0, 2);
  ref.reserve(25.0, 45.0, 2);
  expect_same_function(p, ref);
  EXPECT_EQ(p.available_at(20.0), 8u);
  EXPECT_EQ(p.available_at(30.0), 6u);
  p.release(25.0, 45.0, 2);
  ref.release(25.0, 45.0, 2);
  expect_same_function(p, ref);
}

}  // namespace
}  // namespace gridfed::cluster
