// Unit tests for the LRMS: FCFS space-sharing, completion estimation,
// backfilling, utilization accounting and the completion callback.

#include <gtest/gtest.h>

#include <vector>

#include "cluster/lrms.hpp"
#include "cluster/utilization.hpp"
#include "sim/check.hpp"
#include "sim/simulation.hpp"

namespace gridfed::cluster {
namespace {

ResourceSpec small_cluster() {
  return ResourceSpec{"small", 8, 100.0, 1.0, 1.0};
}

Job make_job(JobId id, std::uint32_t procs, double submit = 0.0) {
  Job j;
  j.id = id;
  j.processors = procs;
  j.submit = submit;
  j.length_mi = 1000.0;
  return j;
}

struct Fixture {
  sim::Simulation sim;
  Lrms lrms;
  std::vector<CompletedJob> done;

  explicit Fixture(QueuePolicy policy = QueuePolicy::kFcfs)
      : lrms(sim, small_cluster(), 0, policy) {
    lrms.set_completion_handler(
        [this](const CompletedJob& c) { done.push_back(c); });
  }
};

TEST(Lrms, ImmediateStartWhenIdle) {
  Fixture f;
  const auto res = f.lrms.submit(make_job(1, 4), 10.0);
  EXPECT_DOUBLE_EQ(res.start, 0.0);
  EXPECT_DOUBLE_EQ(res.completion, 10.0);
}

TEST(Lrms, EstimateMatchesSubsequentSubmit) {
  Fixture f;
  f.lrms.submit(make_job(1, 8), 50.0);  // occupies everything
  const auto j = make_job(2, 4);
  const auto est = f.lrms.estimate_completion(j, 10.0);
  const auto res = f.lrms.submit(j, 10.0);
  EXPECT_DOUBLE_EQ(est, res.completion);
  EXPECT_DOUBLE_EQ(res.start, 50.0);
}

TEST(Lrms, EstimateInfinityWhenJobTooLarge) {
  Fixture f;
  const auto j = make_job(1, 9);  // cluster has 8
  EXPECT_EQ(f.lrms.estimate_completion(j, 1.0), sim::kTimeInfinity);
}

TEST(Lrms, SubmitTooLargeThrows) {
  Fixture f;
  EXPECT_THROW(f.lrms.submit(make_job(1, 9), 1.0), sim::ContractViolation);
}

TEST(Lrms, FcfsKeepsArrivalOrderEvenWhenLaterJobWouldFit) {
  Fixture f;
  f.lrms.submit(make_job(1, 8), 10.0);  // [0,10) full machine
  f.lrms.submit(make_job(2, 8), 10.0);  // [10,20) full machine
  // A 1-proc job could run at t=0 only by jumping the queue; FCFS forbids.
  const auto res = f.lrms.submit(make_job(3, 1), 1.0);
  EXPECT_DOUBLE_EQ(res.start, 20.0);
}

TEST(Lrms, ConservativeBackfillingFillsHoles) {
  Fixture f(QueuePolicy::kConservativeBackfilling);
  f.lrms.submit(make_job(1, 8), 10.0);  // [0,10)
  f.lrms.submit(make_job(2, 8), 10.0);  // [10,20)
  // With backfilling there is no hole here, but a job needing few procs
  // after partial release can slot earlier than the FCFS tail.
  f.lrms.submit(make_job(3, 4), 5.0);   // reserves [20,25) on 4 procs
  const auto res = f.lrms.submit(make_job(4, 4), 5.0);
  // Backfilling: 4 procs are free during [20,25) alongside job 3.
  EXPECT_DOUBLE_EQ(res.start, 20.0);
}

TEST(Lrms, FcfsStartsNeverDecrease) {
  Fixture f;
  sim::SimTime last = 0.0;
  for (JobId id = 1; id <= 20; ++id) {
    const auto procs = static_cast<std::uint32_t>(1 + (id * 3) % 8);
    const auto res = f.lrms.submit(make_job(id, procs), 5.0 + (id % 4));
    EXPECT_GE(res.start, last);
    last = res.start;
  }
}

TEST(Lrms, CompletionCallbackFiresWithReservation) {
  Fixture f;
  const auto job = make_job(7, 2, 0.0);
  const auto res = f.lrms.submit(job, 12.0);
  f.sim.run();
  ASSERT_EQ(f.done.size(), 1u);
  EXPECT_EQ(f.done[0].job.id, 7u);
  EXPECT_DOUBLE_EQ(f.done[0].reservation.completion, res.completion);
  EXPECT_EQ(f.done[0].executed_on, 0u);
}

TEST(Lrms, CountsRunningQueuedCompleted) {
  Fixture f;
  f.lrms.submit(make_job(1, 8), 10.0);
  f.lrms.submit(make_job(2, 8), 10.0);
  EXPECT_EQ(f.lrms.queued_jobs(), 2u);
  EXPECT_EQ(f.lrms.running_jobs(), 0u);
  f.sim.run_until(5.0);
  EXPECT_EQ(f.lrms.running_jobs(), 1u);
  EXPECT_EQ(f.lrms.queued_jobs(), 1u);
  EXPECT_EQ(f.lrms.busy_processors(), 8u);
  f.sim.run();
  EXPECT_EQ(f.lrms.running_jobs(), 0u);
  EXPECT_EQ(f.lrms.jobs_completed(), 2u);
  EXPECT_EQ(f.lrms.busy_processors(), 0u);
}

TEST(Lrms, UtilizationIntegralExact) {
  Fixture f;
  f.lrms.submit(make_job(1, 4), 10.0);  // 4 procs x 10 s = 40 proc.s
  f.sim.run();
  // Over horizon 20 s on 8 procs: 40 / 160 = 0.25.
  EXPECT_DOUBLE_EQ(f.lrms.utilization().utilization(20.0), 0.25);
}

TEST(Lrms, InstantaneousLoadTracksBusyFraction) {
  Fixture f;
  f.lrms.submit(make_job(1, 6), 10.0);
  f.sim.run_until(5.0);
  EXPECT_DOUBLE_EQ(f.lrms.instantaneous_load(), 0.75);
}

TEST(Lrms, ExpectedWaitZeroWhenIdle) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.lrms.expected_wait(8, 10.0), 0.0);
}

TEST(Lrms, ExpectedWaitReflectsQueue) {
  Fixture f;
  f.lrms.submit(make_job(1, 8), 30.0);
  EXPECT_DOUBLE_EQ(f.lrms.expected_wait(1, 5.0), 30.0);
}

TEST(Lrms, DeadlineGuaranteeHoldsUnderLoad) {
  // The completion promised at submit() must be met exactly — this is the
  // soundness of the paper's admission control.
  Fixture f;
  std::vector<std::pair<JobId, sim::SimTime>> promises;
  for (JobId id = 1; id <= 50; ++id) {
    const auto procs = static_cast<std::uint32_t>(1 + (id * 5) % 8);
    const auto res = f.lrms.submit(make_job(id, procs, 0.0),
                                   3.0 + static_cast<double>(id % 7));
    promises.emplace_back(id, res.completion);
  }
  f.sim.run();
  ASSERT_EQ(f.done.size(), 50u);
  for (const auto& c : f.done) {
    const auto it = std::find_if(promises.begin(), promises.end(),
                                 [&](auto& p) { return p.first == c.job.id; });
    ASSERT_NE(it, promises.end());
    EXPECT_DOUBLE_EQ(c.reservation.completion, it->second);
  }
}

TEST(Utilization, FullBusyIsOne) {
  UtilizationIntegrator u(4);
  u.set_busy(0.0, 4);
  EXPECT_DOUBLE_EQ(u.utilization(10.0), 1.0);
}

TEST(Utilization, PiecewiseIntegral) {
  UtilizationIntegrator u(10);
  u.set_busy(0.0, 5);   // [0,4): 5 busy
  u.set_busy(4.0, 10);  // [4,8): 10 busy
  u.set_busy(8.0, 0);   // [8,10): idle
  // area = 5*4 + 10*4 = 60; capacity*horizon = 100.
  EXPECT_DOUBLE_EQ(u.utilization(10.0), 0.6);
}

TEST(Utilization, BusyAreaExtrapolatesCurrentSegment) {
  UtilizationIntegrator u(2);
  u.set_busy(0.0, 1);
  EXPECT_DOUBLE_EQ(u.busy_area(5.0), 5.0);
  EXPECT_DOUBLE_EQ(u.busy_area(10.0), 10.0);
}

TEST(Utilization, ZeroHorizonIsZero) {
  UtilizationIntegrator u(2);
  EXPECT_DOUBLE_EQ(u.utilization(0.0), 0.0);
}

}  // namespace
}  // namespace gridfed::cluster
