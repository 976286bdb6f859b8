// FEL-backend invariance end to end (sim/fel.hpp, sim/event_queue.hpp):
// the heap, the ladder and the hybrid pop in the identical
// (time, priority, seq) total order, so swapping the backing — or
// migrating between them mid-run — must leave every federation outcome
// bit-identical: same per-job fate, executor, message count, cost and
// completion, and the same aggregates down to the last FP bit.  The
// hybrid runs with a tiny spill threshold so it genuinely rides the
// ladder (and crosses the spill/un-spill hysteresis) during the run
// instead of idling below the default 8192-key threshold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/federation.hpp"
#include "workload/synthetic.hpp"

namespace gridfed {
namespace {

/// Per-job outcome tuples plus the wire/ledger totals and the monetary
/// aggregates of one run.
struct RunDigest {
  struct JobRow {
    std::uint64_t id = 0;
    bool accepted = false;
    std::uint32_t executed_on = 0;
    std::uint64_t messages = 0;
    std::uint32_t negotiations = 0;
    double cost = 0.0;
    double completion = 0.0;
  };
  std::vector<JobRow> jobs;  // sorted by id
  std::uint64_t total_accepted = 0;
  std::uint64_t total_rejected = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t relay_messages = 0;
  std::uint64_t dropped = 0;
  double total_incentive = 0.0;
  double msgs_per_job_mean = 0.0;
};

RunDigest run_digest(const core::FederationConfig& cfg, std::size_t n,
                     std::uint32_t oft) {
  auto specs = cluster::replicated_specs(n);
  core::Federation fed(cfg, specs);
  const auto traces =
      workload::generate_federation_workload(specs, cfg.window, cfg.seed);
  std::optional<workload::PopulationProfile> profile;
  if (cfg.mode == core::SchedulingMode::kEconomy ||
      cfg.mode == core::SchedulingMode::kAuction) {
    profile = workload::PopulationProfile{oft};
  }
  fed.load_workload(traces, profile);
  const core::FederationResult result = fed.run();

  RunDigest d;
  d.jobs.reserve(fed.outcomes().size());
  for (const core::JobOutcome& o : fed.outcomes()) {
    d.jobs.push_back(RunDigest::JobRow{o.job.id, o.accepted, o.executed_on,
                                       o.messages, o.negotiations, o.cost,
                                       o.completion});
  }
  std::sort(d.jobs.begin(), d.jobs.end(),
            [](const RunDigest::JobRow& a, const RunDigest::JobRow& b) {
              return a.id < b.id;
            });
  d.total_accepted = result.total_accepted;
  d.total_rejected = result.total_rejected;
  d.total_messages = result.total_messages;
  d.total_bytes = result.total_message_bytes;
  d.relay_messages = result.overlay_relay_messages;
  d.dropped = fed.messages_dropped();
  d.total_incentive = result.total_incentive;
  d.msgs_per_job_mean = result.msgs_per_job.mean();
  return d;
}

/// Bitwise equality: same engine, same draw order, same FP accumulation
/// order.
void expect_same_outcomes(const RunDigest& a, const RunDigest& b) {
  EXPECT_EQ(a.total_accepted, b.total_accepted);
  EXPECT_EQ(a.total_rejected, b.total_rejected);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.relay_messages, b.relay_messages);
  EXPECT_EQ(a.dropped, b.dropped);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& ja = a.jobs[i];
    const auto& jb = b.jobs[i];
    ASSERT_EQ(ja.id, jb.id) << "job row " << i;
    EXPECT_EQ(ja.accepted, jb.accepted) << "job " << ja.id;
    EXPECT_EQ(ja.executed_on, jb.executed_on) << "job " << ja.id;
    EXPECT_EQ(ja.messages, jb.messages) << "job " << ja.id;
    EXPECT_EQ(ja.negotiations, jb.negotiations) << "job " << ja.id;
    EXPECT_EQ(ja.cost, jb.cost) << "job " << ja.id;
    EXPECT_EQ(ja.completion, jb.completion) << "job " << ja.id;
  }
  EXPECT_EQ(a.total_incentive, b.total_incentive);
  EXPECT_EQ(a.msgs_per_job_mean, b.msgs_per_job_mean);
}

/// A sqrt(2) s WAN: deliveries land off the integer job-submit lattice,
/// so the queue holds a realistic mix of distinct and tied timestamps.
core::FederationConfig wan_config(core::SchedulingMode mode) {
  auto cfg = core::make_config(mode, 4242);
  cfg.network_latency = 1.4142135623730951;
  return cfg;
}

/// The hardest configuration: tree transport + coalitions + membership
/// churn (a crash, a leave and a rejoin).
core::FederationConfig churn_config() {
  auto cfg = wan_config(core::SchedulingMode::kAuction);
  cfg.transport.kind = transport::TransportKind::kTree;
  cfg.coalitions.enabled = true;
  cfg.coalitions.bucket_size = 4;
  cfg.negotiate_timeout = 400.31415927;  // > relayed hops + tree_epoch hold
  cfg.auction.bid_timeout = 400.31415927;
  cfg.membership.enabled = true;
  cfg.membership.gossip_period = 125.66370614;
  cfg.membership.churn.events.push_back(
      membership::ChurnEvent{30000.0, 2, membership::ChurnKind::kCrash});
  cfg.membership.churn.events.push_back(
      membership::ChurnEvent{50000.0, 5, membership::ChurnKind::kLeave});
  cfg.membership.churn.events.push_back(
      membership::ChurnEvent{90000.0, 5, membership::ChurnKind::kJoin});
  return cfg;
}

core::FederationConfig with_fel(core::FederationConfig cfg,
                                sim::FelConfig::Kind kind,
                                std::size_t spill_threshold) {
  cfg.fel.kind = kind;
  cfg.fel.spill_threshold = spill_threshold;
  return cfg;
}

class FelBackendModes
    : public ::testing::TestWithParam<core::SchedulingMode> {};

TEST_P(FelBackendModes, LadderAndHybridAreBitIdenticalToHeap) {
  const auto base = wan_config(GetParam());
  const RunDigest heap =
      run_digest(with_fel(base, sim::FelConfig::Kind::kHeap, 8192), 12, 30);
  const RunDigest hybrid =
      run_digest(with_fel(base, sim::FelConfig::Kind::kHybrid, 64), 12, 30);
  expect_same_outcomes(heap, hybrid);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, FelBackendModes,
    ::testing::Values(core::SchedulingMode::kIndependent,
                      core::SchedulingMode::kFederationNoEconomy,
                      core::SchedulingMode::kEconomy,
                      core::SchedulingMode::kAuction),
    [](const auto& info) {
      std::string name = to_string(info.param);
      std::replace(name.begin(), name.end(), '+', '_');
      return name;
    });

TEST(FelBackend, ForcedLadderMatchesHeapExactly) {
  // The pure-ladder A/B column: the ladder from key one.
  const auto base = wan_config(core::SchedulingMode::kEconomy);
  const RunDigest heap =
      run_digest(with_fel(base, sim::FelConfig::Kind::kHeap, 8192), 12, 30);
  const RunDigest ladder =
      run_digest(with_fel(base, sim::FelConfig::Kind::kLadder, 8192), 12, 30);
  expect_same_outcomes(heap, ladder);
}

TEST(FelBackend, TreeCoalitionChurnPinsAcrossBackends) {
  // Tree transport + coalitions + churn with the queue spilling mid-run.
  const auto base = churn_config();
  const RunDigest heap =
      run_digest(with_fel(base, sim::FelConfig::Kind::kHeap, 8192), 16, 30);
  const RunDigest hybrid =
      run_digest(with_fel(base, sim::FelConfig::Kind::kHybrid, 64), 16, 30);
  expect_same_outcomes(heap, hybrid);
}

}  // namespace
}  // namespace gridfed
