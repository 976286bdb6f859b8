// Unit tests for the discrete-event simulation kernel: event ordering,
// clock semantics, RNG determinism and distribution sanity.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/check.hpp"
#include "sim/distributions.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace gridfed::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<double> popped;
  q.push(Event{5.0, EventPriority::kArrival, 0, [] {}});
  q.push(Event{1.0, EventPriority::kArrival, 1, [] {}});
  q.push(Event{3.0, EventPriority::kArrival, 2, [] {}});
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, (std::vector<double>{1.0, 3.0, 5.0}));
}

TEST(EventQueue, EqualTimesPopByPriorityThenFifo) {
  EventQueue q;
  std::vector<int> order;
  q.push(Event{1.0, EventPriority::kArrival, 0, [&] { order.push_back(0); }});
  q.push(Event{1.0, EventPriority::kCompletion, 1,
               [&] { order.push_back(1); }});
  q.push(Event{1.0, EventPriority::kArrival, 2, [&] { order.push_back(2); }});
  while (!q.empty()) q.pop().action();
  // Completion (priority 0) first, then the two arrivals in FIFO order.
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), ContractViolation);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(Event{9.0, EventPriority::kControl, 0, [] {}});
  q.push(Event{2.0, EventPriority::kControl, 1, [] {}});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(Simulation, ClockAdvancesMonotonically) {
  Simulation sim;
  std::vector<double> seen;
  sim.schedule_at(2.0, EventPriority::kControl, [&] { seen.push_back(sim.now()); });
  sim.schedule_at(1.0, EventPriority::kControl, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.schedule_at(5.0, EventPriority::kControl, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, EventPriority::kControl, [] {}),
               ContractViolation);
}

TEST(Simulation, ScheduleInUsesRelativeDelay) {
  Simulation sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, EventPriority::kControl, [&] {
    sim.schedule_in(5.0, EventPriority::kControl,
                    [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim;
  int fired = 0;
  for (int t = 1; t <= 10; ++t) {
    sim.schedule_at(static_cast<double>(t), EventPriority::kControl,
                    [&] { ++fired; });
  }
  sim.run_until(5.0);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulation, RunUntilAdvancesClockToHorizonWhenIdle) {
  Simulation sim;
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulation, EventsExecutedCounts) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) {
    sim.schedule_at(static_cast<double>(i), EventPriority::kControl, [] {});
  }
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      sim.schedule_in(1.0, EventPriority::kControl, chain);
    }
  };
  sim.schedule_at(0.0, EventPriority::kControl, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulation, ReservedSeqTiesAsOfItsReservation) {
  // A seq reserved before an event is scheduled makes the later
  // schedule_reserved() pop as if it had been scheduled at reservation:
  // ahead of same-time, same-priority events scheduled in between.
  Simulation sim;
  std::vector<int> order;
  const EventSeq first = sim.reserve_seq();
  sim.schedule_at(0.0, EventPriority::kArrival, [&] { order.push_back(1); });
  sim.schedule_at(5.0, EventPriority::kArrival, [&] { order.push_back(3); });
  sim.schedule_reserved(0.0, EventPriority::kArrival, first,
                        [&] { order.push_back(0); });
  const EventSeq later = sim.reserve_seq();
  sim.schedule_at(0.0, EventPriority::kCompletion, [&] {
    // At the current instant, behind a fresher same-priority key already
    // pending: the reserved seq still pops first.
    sim.schedule_at(sim.now(), EventPriority::kArrival,
                    [&] { order.push_back(4); });
    sim.schedule_reserved(sim.now(), EventPriority::kArrival, later,
                          [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 3}));
}

TEST(Simulation, ScheduleReservedChecksItsContract) {
  Simulation sim;
  const EventSeq seq = sim.reserve_seq();
  EXPECT_THROW(sim.schedule_reserved(0.0, EventPriority::kArrival, seq + 1,
                                     [] {}),
               ContractViolation);  // never reserved
  sim.schedule_at(2.0, EventPriority::kControl, [] {});
  sim.run();
  EXPECT_THROW(
      sim.schedule_reserved(1.0, EventPriority::kArrival, seq, [] {}),
      ContractViolation);  // in the past
}

// ---- RNG ------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, StreamsAreIndependentByLabel) {
  Rng a = Rng::stream(42, "CTC SP2");
  Rng b = Rng::stream(42, "KTH SP2");
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, StreamIsStableAcrossCalls) {
  Rng a = Rng::stream(42, "CTC SP2");
  Rng b = Rng::stream(42, "CTC SP2");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  bool seen_lo = false, seen_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 8);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 8u);
    seen_lo |= (v == 3);
    seen_hi |= (v == 8);
  }
  EXPECT_TRUE(seen_lo);
  EXPECT_TRUE(seen_hi);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// ---- Distributions ---------------------------------------------------------

TEST(Distributions, ExponentialMeanMatches) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += sample_exponential(rng, 0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Distributions, LognormalMeanMatches) {
  Rng rng(5);
  const double mu = 1.0, sigma = 0.8;
  const double expected = std::exp(mu + 0.5 * sigma * sigma);
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += sample_lognormal(rng, mu, sigma);
  EXPECT_NEAR(sum / n, expected, expected * 0.03);
}

TEST(Distributions, HyperexponentialIsOverdispersed) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    // Balanced-means parameterization for cv^2 = 4 and mean 1.
    const double cv2 = 4.0;
    const double p = 0.5 * (1.0 + std::sqrt((cv2 - 1.0) / (cv2 + 1.0)));
    const double x = sample_hyperexponential(rng, p, 2.0 * p, 2.0 * (1.0 - p));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.03);
  EXPECT_GT(var / (mean * mean), 2.5);  // cv^2 ~ 4
}

TEST(Distributions, BoundedParetoStaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = sample_bounded_pareto(rng, 1.1, 10.0, 1000.0);
    EXPECT_GE(x, 10.0);
    EXPECT_LE(x, 1000.0);
  }
}

TEST(Distributions, WeibullShape1IsExponential) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += sample_weibull(rng, 1.0, 3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.06);
}

TEST(Distributions, Pow2ReturnsPowersWithinRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const auto v = sample_pow2(rng, 2, 6);
    EXPECT_GE(v, 4u);
    EXPECT_LE(v, 64u);
    EXPECT_EQ(v & (v - 1), 0u) << "not a power of two: " << v;
  }
}

TEST(Distributions, ZipfRankOneMostFrequent) {
  Rng rng(5);
  ZipfSampler zipf(10, 1.2);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
  EXPECT_EQ(counts[0], 0);  // ranks are 1-based
}

TEST(Distributions, DiscreteSamplerRespectsWeights) {
  Rng rng(5);
  const double weights[] = {1.0, 0.0, 3.0};
  DiscreteSampler sampler(weights);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 100000; ++i) ++counts[sampler.sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Distributions, InvalidParametersThrow) {
  Rng rng(5);
  EXPECT_THROW((void)sample_exponential(rng, 0.0), ContractViolation);
  EXPECT_THROW((void)sample_bounded_pareto(rng, 1.0, 5.0, 2.0),
               ContractViolation);
  EXPECT_THROW((void)sample_weibull(rng, -1.0, 1.0), ContractViolation);
  EXPECT_THROW(ZipfSampler(0, 1.0), ContractViolation);
}

}  // namespace
}  // namespace gridfed::sim
