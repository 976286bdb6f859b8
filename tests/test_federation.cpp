// Integration tests for the Federation driver + GFA protocol on small,
// hand-built federations where every outcome is predictable.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/federation.hpp"
#include "economy/pricing.hpp"
#include "sim/hash.hpp"
#include "workload/trace.hpp"

namespace gridfed::core {
namespace {

// Two-cluster world: "cheap" is slower and large, "fast" is quick and
// small.  The speed gap (250 vs 400 MIPS) is small enough that the 2x
// fabricated deadline still allows migration in either direction.
std::vector<cluster::ResourceSpec> two_clusters() {
  std::vector<cluster::ResourceSpec> specs = {
      {"cheap", 64, 250.0, 1.0, 0.0},
      {"fast", 8, 400.0, 1.0, 0.0},
  };
  economy::apply_commodity_pricing(specs, 4.0);  // cheap=2.5, fast=4.0
  return specs;
}

FederationConfig econ_config() {
  FederationConfig cfg;
  cfg.mode = SchedulingMode::kEconomy;
  cfg.window = 10000.0;
  return cfg;
}

// One trace job on `resource` at `submit` running `runtime` seconds on
// `procs` processors.
workload::ResourceTrace one_job(cluster::ResourceIndex resource,
                                double submit, double runtime,
                                std::uint32_t procs,
                                std::uint32_t user = 0) {
  workload::ResourceTrace t;
  t.resource = resource;
  t.jobs.push_back(workload::TraceJob{submit, runtime, procs, user});
  return t;
}

TEST(Federation, LocalJobRunsLocallyWithoutMessages) {
  // An OFC job at the *cheapest* cluster: rank 1 is home, zero messages.
  Federation fed(econ_config(), two_clusters());
  fed.load_workload({one_job(0, 0.0, 100.0, 4)},
                    workload::PopulationProfile{0});
  const auto result = fed.run();
  ASSERT_EQ(result.total_jobs, 1u);
  EXPECT_EQ(result.total_accepted, 1u);
  EXPECT_EQ(result.resources[0].processed_locally, 1u);
  EXPECT_EQ(result.total_messages, 0u);
  EXPECT_DOUBLE_EQ(result.msgs_per_job.mean(), 0.0);
}

TEST(Federation, OfcJobMigratesToCheapestCluster) {
  // An OFC job submitted at the *expensive* cluster migrates to "cheap":
  // negotiate + reply + submission + completion = 4 messages.
  Federation fed(econ_config(), two_clusters());
  fed.load_workload({one_job(1, 0.0, 100.0, 4)},
                    workload::PopulationProfile{0});
  const auto result = fed.run();
  EXPECT_EQ(result.total_accepted, 1u);
  EXPECT_EQ(result.resources[1].migrated, 1u);
  EXPECT_EQ(result.resources[0].remote_processed, 1u);
  EXPECT_EQ(result.total_messages, 4u);
  EXPECT_DOUBLE_EQ(result.msgs_per_job.mean(), 4.0);
  EXPECT_EQ(result.messages_by_type[0], 1u);  // negotiate
  EXPECT_EQ(result.messages_by_type[1], 1u);  // reply
  EXPECT_EQ(result.messages_by_type[2], 1u);  // submission
  EXPECT_EQ(result.messages_by_type[3], 1u);  // completion
}

TEST(Federation, OftJobPrefersFastCluster) {
  // An OFT job at "cheap" migrates to "fast" (higher MIPS) if the budget
  // allows — budget is 2x origin cost, and the wall-time cost on "fast" is
  // comparable, so it does.
  Federation fed(econ_config(), two_clusters());
  fed.load_workload({one_job(0, 0.0, 100.0, 4)},
                    workload::PopulationProfile{100});
  const auto result = fed.run();
  EXPECT_EQ(result.total_accepted, 1u);
  EXPECT_EQ(result.resources[0].migrated, 1u);
  EXPECT_EQ(result.resources[1].remote_processed, 1u);
}

TEST(Federation, JobTooBigForAnyClusterIsRejected) {
  Federation fed(econ_config(), two_clusters());
  fed.load_workload({one_job(0, 0.0, 100.0, 128)},  // > 64 procs anywhere
                    workload::PopulationProfile{0});
  const auto result = fed.run();
  EXPECT_EQ(result.total_accepted, 0u);
  EXPECT_EQ(result.total_rejected, 1u);
  EXPECT_EQ(result.total_messages, 0u);  // ruled out statically
}

TEST(Federation, SaturatedFederationRejectsOnDeadline) {
  // Fill both clusters with a whole-machine job, then submit a job whose
  // 2x deadline cannot absorb the queue wait anywhere.
  Federation fed(econ_config(), two_clusters());
  std::vector<workload::ResourceTrace> traces;
  traces.push_back(one_job(0, 0.0, 5000.0, 64));  // blocks cheap
  traces.push_back(one_job(1, 0.0, 5000.0, 8));   // blocks fast
  auto late = one_job(0, 1.0, 100.0, 4, 1);
  traces.push_back(late);
  fed.load_workload(traces, workload::PopulationProfile{0});
  const auto result = fed.run();
  EXPECT_EQ(result.total_rejected, 1u);
  // Message trail: the fast-cluster blocker first probes "cheap" (it is
  // rank 1 for OFC) and is refused because the other blocker holds it —
  // negotiate + reply.  The late job fails locally without messages, then
  // probes "fast" and is refused — negotiate + reply.  Four in total.
  EXPECT_EQ(result.total_messages, 4u);
  // The rejected job itself accounts for exactly one failed negotiation.
  // (Outcomes are recorded in completion order; rejections are recorded at
  // submit time, so search rather than index.)
  const auto it = std::find_if(fed.outcomes().begin(), fed.outcomes().end(),
                               [](const JobOutcome& o) { return !o.accepted; });
  ASSERT_NE(it, fed.outcomes().end());
  EXPECT_EQ(it->negotiations, 1u);
  EXPECT_EQ(it->messages, 2u);
}

TEST(Federation, AcceptedJobsMeetDeadlines) {
  Federation fed(econ_config(), two_clusters());
  std::vector<workload::ResourceTrace> traces;
  for (std::uint32_t i = 0; i < 40; ++i) {
    traces.push_back(one_job(i % 2, i * 10.0, 200.0 + 17.0 * i,
                             1u << (i % 4), i));
  }
  fed.load_workload(traces, workload::PopulationProfile{50});
  const auto result = fed.run();
  for (const auto& outcome : fed.outcomes()) {
    if (!outcome.accepted) continue;
    EXPECT_LE(outcome.completion, outcome.job.absolute_deadline() + 1e-6)
        << "job " << outcome.job.id;
    EXPECT_TRUE(outcome.qos_satisfied());
  }
}

TEST(Federation, BankBalancedAndConsistentWithOutcomes) {
  Federation fed(econ_config(), two_clusters());
  std::vector<workload::ResourceTrace> traces;
  for (std::uint32_t i = 0; i < 30; ++i) {
    traces.push_back(one_job(i % 2, i * 50.0, 300.0, 2, i % 5));
  }
  fed.load_workload(traces, workload::PopulationProfile{30});
  const auto result = fed.run();
  EXPECT_TRUE(fed.bank().balanced());
  double cost_sum = 0.0;
  for (const auto& o : fed.outcomes()) {
    if (o.accepted) cost_sum += o.cost;
  }
  EXPECT_NEAR(result.total_incentive, cost_sum, 1e-9 * std::max(1.0, cost_sum));
}

TEST(Federation, PerJobMessagesSumToLedgerTotal) {
  Federation fed(econ_config(), two_clusters());
  std::vector<workload::ResourceTrace> traces;
  for (std::uint32_t i = 0; i < 30; ++i) {
    traces.push_back(one_job(i % 2, i * 25.0, 400.0, 4, i));
  }
  fed.load_workload(traces, workload::PopulationProfile{50});
  const auto result = fed.run();
  double per_job_sum = 0.0;
  for (const auto& o : fed.outcomes()) {
    per_job_sum += static_cast<double>(o.messages);
  }
  EXPECT_DOUBLE_EQ(per_job_sum, static_cast<double>(result.total_messages));
}

TEST(Federation, IndependentModeNeverMigrates) {
  FederationConfig cfg = econ_config();
  cfg.mode = SchedulingMode::kIndependent;
  Federation fed(cfg, two_clusters());
  std::vector<workload::ResourceTrace> traces;
  for (std::uint32_t i = 0; i < 20; ++i) {
    traces.push_back(one_job(i % 2, i * 10.0, 500.0, 8, i));
  }
  fed.load_workload(traces, std::nullopt);
  const auto result = fed.run();
  EXPECT_EQ(result.total_messages, 0u);
  for (const auto& row : result.resources) {
    EXPECT_EQ(row.migrated, 0u);
    EXPECT_EQ(row.remote_processed, 0u);
  }
}

TEST(Federation, NoEconomyPrefersLocalThenFastest) {
  FederationConfig cfg = econ_config();
  cfg.mode = SchedulingMode::kFederationNoEconomy;
  Federation fed(cfg, two_clusters());
  // Local cluster can serve: stays local despite "fast" being faster.
  fed.load_workload({one_job(0, 0.0, 100.0, 4)}, std::nullopt);
  const auto result = fed.run();
  EXPECT_EQ(result.resources[0].processed_locally, 1u);
  EXPECT_EQ(result.total_messages, 0u);
}

TEST(Federation, NoEconomyOverflowsToFederation) {
  FederationConfig cfg = econ_config();
  cfg.mode = SchedulingMode::kFederationNoEconomy;
  Federation fed(cfg, two_clusters());
  std::vector<workload::ResourceTrace> traces;
  traces.push_back(one_job(1, 0.0, 5000.0, 8));      // saturate "fast"
  traces.push_back(one_job(1, 1.0, 100.0, 4, 1));    // must overflow
  fed.load_workload(traces, std::nullopt);
  const auto result = fed.run();
  EXPECT_EQ(result.total_accepted, 2u);
  EXPECT_EQ(result.resources[1].migrated, 1u);
  EXPECT_EQ(result.resources[0].remote_processed, 1u);
}

TEST(Federation, UtilizationSnapshotWithinBounds) {
  Federation fed(econ_config(), two_clusters());
  std::vector<workload::ResourceTrace> traces;
  for (std::uint32_t i = 0; i < 10; ++i) {
    traces.push_back(one_job(i % 2, i * 100.0, 1000.0, 8, i));
  }
  fed.load_workload(traces, workload::PopulationProfile{0});
  const auto result = fed.run();
  for (const auto& row : result.resources) {
    EXPECT_GE(row.utilization, 0.0);
    EXPECT_LE(row.utilization, 1.0);
  }
}

TEST(Federation, NetworkLatencyDelaysButPreservesOutcomes) {
  FederationConfig cfg = econ_config();
  cfg.network_latency = 5.0;
  Federation fed(cfg, two_clusters());
  fed.load_workload({one_job(1, 0.0, 100.0, 4)},
                    workload::PopulationProfile{0});
  const auto result = fed.run();
  EXPECT_EQ(result.total_accepted, 1u);
  EXPECT_EQ(result.resources[1].migrated, 1u);
  EXPECT_EQ(result.total_messages, 4u);
}

// ---- streamed arrivals ------------------------------------------------------
// Each origin keeps one pending arrival; every arrival pops under the seq
// reserved for it at load, so the order is the preloaded one: by submit
// time, then by load order.

workload::ResourceTrace trace_of(
    cluster::ResourceIndex resource,
    std::vector<workload::TraceJob> jobs) {
  workload::ResourceTrace t;
  t.resource = resource;
  t.jobs = std::move(jobs);
  return t;
}

std::vector<cluster::ResourceSpec> three_clusters() {
  std::vector<cluster::ResourceSpec> specs = {
      {"a", 16, 250.0, 1.0, 0.0},
      {"b", 8, 400.0, 1.0, 0.0},
      {"c", 8, 300.0, 1.0, 0.0},
  };
  economy::apply_commodity_pricing(specs, 4.0);
  return specs;
}

std::uint64_t outcome_digest(const std::vector<JobOutcome>& outcomes) {
  std::vector<const JobOutcome*> rows;
  for (const JobOutcome& o : outcomes) rows.push_back(&o);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return a->job.id < b->job.id;
  });
  std::uint64_t h = sim::kFnvOffsetBasis;
  for (const JobOutcome* o : rows) {
    h = sim::fnv1a_mix(h, o->job.id);
    h = sim::fnv1a_mix(h, static_cast<std::uint64_t>(o->accepted));
    h = sim::fnv1a_mix(h, static_cast<std::uint64_t>(o->executed_on));
    h = sim::fnv1a_mix(h, o->start);
    h = sim::fnv1a_mix(h, o->completion);
    h = sim::fnv1a_mix(h, o->cost);
    h = sim::fnv1a_mix(h, static_cast<std::uint64_t>(o->negotiations));
    h = sim::fnv1a_mix(h, o->messages);
  }
  return h;
}

TEST(FederationArrivals, StreamKeepsThePreloadedOrder) {
  // Two load_workload calls; equal submit times across origins and
  // within one origin; jobs at t = 0; a trace out of submit order; and
  // a second call that adds jobs earlier than some of the first call's.
  // The clusters are small enough that the arrival order decides who
  // gets the processors.  The digest was recorded from the kernel that
  // scheduled every arrival at load time.
  Federation fed(econ_config(), three_clusters());
  fed.load_workload({trace_of(0, {{100.0, 500.0, 8, 0},
                                  {0.0, 400.0, 8, 1},
                                  {0.0, 300.0, 8, 2},
                                  {100.0, 200.0, 8, 3},
                                  {50.0, 600.0, 16, 4}}),
                     trace_of(1, {{0.0, 300.0, 8, 0},
                                  {100.0, 400.0, 4, 1},
                                  {100.0, 100.0, 8, 2}}),
                     trace_of(2, {{50.0, 200.0, 8, 0}})},
                    workload::PopulationProfile{50});
  fed.load_workload({trace_of(0, {{0.0, 250.0, 8, 5}, {50.0, 150.0, 8, 6}}),
                     trace_of(2, {{0.0, 350.0, 8, 1}, {100.0, 450.0, 8, 2}}),
                     trace_of(1, {{50.0, 500.0, 8, 3}})},
                    workload::PopulationProfile{50});
  const auto result = fed.run();
  ASSERT_EQ(result.total_jobs, 14u);
  EXPECT_GT(result.total_messages, 0u);
  EXPECT_EQ(outcome_digest(fed.outcomes()), 0xcccfb40e68cd47dcull);
}

TEST(FederationArrivals, PendingEventsGrowWithOriginsNotJobs) {
  // Loading preloads nothing; run() arms one arrival per origin.  A
  // kCompletion event at t = 0 dispatches first and reads the pending
  // set with every stream armed.
  const auto pending_at_start = [](std::size_t jobs_per_origin) {
    Federation fed(econ_config(), three_clusters());
    const std::size_t before = fed.simulation().pending_events();
    std::vector<workload::ResourceTrace> traces;
    for (cluster::ResourceIndex r = 0; r < 3; ++r) {
      std::vector<workload::TraceJob> jobs;
      for (std::size_t i = 0; i < jobs_per_origin; ++i) {
        jobs.push_back({10.0 * static_cast<double>(i), 50.0, 1, 0});
      }
      traces.push_back(trace_of(r, std::move(jobs)));
    }
    fed.load_workload(traces, workload::PopulationProfile{0});
    EXPECT_EQ(fed.simulation().pending_events(), before);
    std::size_t at_start = 0;
    fed.simulation().schedule_at(0.0, sim::EventPriority::kCompletion,
                                 [&fed, &at_start] {
                                   at_start = fed.simulation().pending_events();
                                 });
    (void)fed.run();
    EXPECT_EQ(fed.outcomes().size(), 3 * jobs_per_origin);
    return at_start - before;
  };
  EXPECT_EQ(pending_at_start(2), 3u);
  EXPECT_EQ(pending_at_start(200), 3u);
}

TEST(Federation, RunTwiceRejected) {
  Federation fed(econ_config(), two_clusters());
  fed.load_workload({one_job(0, 0.0, 10.0, 1)},
                    workload::PopulationProfile{0});
  (void)fed.run();
  EXPECT_ANY_THROW((void)fed.run());
}

}  // namespace
}  // namespace gridfed::core
