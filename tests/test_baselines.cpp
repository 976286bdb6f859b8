// Tests for the baseline schedulers: Experiment 2 against Experiment 1 and
// the broadcast (NASA-superscheduler) algorithms.

#include <gtest/gtest.h>

#include "baselines/broadcast.hpp"
#include "core/experiment.hpp"

namespace gridfed::baselines {
namespace {

TEST(NoEconomyBaseline, ImprovesOnIndependent) {
  const auto indep = core::run_experiment(
      core::make_config(core::SchedulingMode::kIndependent));
  const auto fed = core::run_experiment(
      core::make_config(core::SchedulingMode::kFederationNoEconomy));
  EXPECT_GT(fed.acceptance_pct(), indep.acceptance_pct());
}

TEST(Broadcast, SenderInitiatedSchedulesJobs) {
  BroadcastConfig cfg;
  cfg.strategy = BroadcastStrategy::kSenderInitiated;
  const auto r = run_broadcast(cfg, 8);
  EXPECT_EQ(r.total_jobs, 2662u);  // sum of Table 2 job counts
  EXPECT_GT(r.accepted, 0u);
  EXPECT_GT(r.acceptance_pct(), 80.0);
}

TEST(Broadcast, MigrationCostsThetaNMessages) {
  BroadcastConfig cfg;
  cfg.strategy = BroadcastStrategy::kSenderInitiated;
  const auto small = run_broadcast(cfg, 8);
  const auto large = run_broadcast(cfg, 16);
  // Broadcast queries touch every scheduler: per-migration message cost
  // roughly doubles when the system doubles.
  ASSERT_GT(small.migrated, 0u);
  ASSERT_GT(large.migrated, 0u);
  const double small_per_mig =
      static_cast<double>(small.total_messages) /
      static_cast<double>(small.migrated);
  const double large_per_mig =
      static_cast<double>(large.total_messages) /
      static_cast<double>(large.migrated);
  EXPECT_GT(large_per_mig, small_per_mig * 1.4);
}

TEST(Broadcast, ReceiverInitiatedFloodsPeriodically) {
  BroadcastConfig cfg;
  cfg.strategy = BroadcastStrategy::kReceiverInitiated;
  const auto r = run_broadcast(cfg, 8);
  EXPECT_GT(r.volunteer_messages, 0u);
}

TEST(Broadcast, SymmetricCombinesBoth) {
  BroadcastConfig cfg;
  cfg.strategy = BroadcastStrategy::kSymmetric;
  const auto r = run_broadcast(cfg, 8);
  EXPECT_GT(r.volunteer_messages, 0u);
  EXPECT_GT(r.accepted, 0u);
}

TEST(Broadcast, GridFederationUsesFewerMessagesPerJob) {
  // The related-work claim: the directory walk beats broadcast on message
  // complexity at equal system size and workload.
  BroadcastConfig bcfg;
  bcfg.strategy = BroadcastStrategy::kSenderInitiated;
  const auto broadcast = run_broadcast(bcfg, 16);
  const auto gridfed = core::run_experiment(
      core::make_config(core::SchedulingMode::kEconomy), 16, 30);
  EXPECT_LT(gridfed.msgs_per_job.mean(), broadcast.msgs_per_job.mean());
}

TEST(Broadcast, StrategyNames) {
  EXPECT_STREQ(to_string(BroadcastStrategy::kSenderInitiated),
               "sender-initiated");
  EXPECT_STREQ(to_string(BroadcastStrategy::kSymmetric), "symmetric");
}

}  // namespace
}  // namespace gridfed::baselines
