// Observability subsystem (src/obs/) end-to-end guarantees:
//
//  * disabled-path purity — with ObsConfig all-off (the default) every
//    mode reproduces the pre-observability golden digests bit-for-bit,
//    so compiling the instrumentation in costs nothing behaviourally;
//  * enabled-path passivity — turning every facility ON still reproduces
//    the same golden outcomes: observation is strictly one-way;
//  * trace well-formedness — span begin/end records balance per
//    (kind, track, id), timestamps are monotone in record order, and the
//    Chrome trace-event export is structurally sound;
//  * metrics-sum consistency — the closing sample of the time-series
//    equals FederationResult / MessageLedger per-type message and byte
//    totals exactly (the ledger-sampler delegation, never
//    double-instrumentation);
//  * forensics fidelity — one ClearingDecision per cleared book,
//    agreeing with the AuctionStats aggregates, and first-price payments
//    equal to the recorded winner ask.
//
// Every observer-querying test is gated on GRIDFED_TRACE so the suite
// also builds (and the parity tests still run) with the instrumentation
// compiled out (-DGRIDFED_TRACE=OFF).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <tuple>
#include <vector>

#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/federation.hpp"
#include "obs/observer.hpp"
#include "sim/hash.hpp"
#include "workload/synthetic.hpp"

namespace gridfed {
namespace {

template <typename T>
std::uint64_t mix(std::uint64_t h, T value) {
  return sim::fnv1a_mix(h, value);
}

std::uint64_t outcome_hash(const std::vector<core::JobOutcome>& outcomes) {
  std::vector<const core::JobOutcome*> sorted;
  sorted.reserve(outcomes.size());
  for (const auto& o : outcomes) sorted.push_back(&o);
  std::sort(sorted.begin(), sorted.end(),
            [](const core::JobOutcome* a, const core::JobOutcome* b) {
              return a->job.id < b->job.id;
            });
  std::uint64_t h = sim::kFnvOffsetBasis;
  for (const core::JobOutcome* o : sorted) {
    h = mix(h, o->job.id);
    h = mix(h, static_cast<std::uint64_t>(o->accepted));
    h = mix(h, static_cast<std::uint64_t>(o->executed_on));
    h = mix(h, o->start);
    h = mix(h, o->completion);
    h = mix(h, o->cost);
    h = mix(h, static_cast<std::uint64_t>(o->negotiations));
    h = mix(h, o->messages);
  }
  return h;
}

/// One full run keeping the Federation alive so tests can query the
/// observer, the ledger and the outcomes after aggregation.
struct Run {
  std::unique_ptr<core::Federation> fed;
  core::FederationResult result;
  std::uint64_t hash = 0;
};

Run run_federation(const core::FederationConfig& cfg, std::uint32_t oft,
                   std::size_t n = 8) {
  auto specs = cluster::replicated_specs(n);
  Run run;
  run.fed = std::make_unique<core::Federation>(cfg, specs);
  const auto traces =
      workload::generate_federation_workload(specs, cfg.window, cfg.seed);
  std::optional<workload::PopulationProfile> profile;
  if (cfg.mode == core::SchedulingMode::kEconomy ||
      cfg.mode == core::SchedulingMode::kAuction) {
    profile = workload::PopulationProfile{oft};
  }
  run.fed->load_workload(traces, profile);
  run.result = run.fed->run();
  run.hash = outcome_hash(run.fed->outcomes());
  return run;
}

[[maybe_unused]] core::FederationConfig all_on(core::FederationConfig cfg) {
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  cfg.obs.forensics = true;
  cfg.obs.metrics_epoch = 3600.0;
  return cfg;
}

// ---- disabled-path purity ---------------------------------------------------
// The default ObsConfig is all-off: these runs must reproduce the same
// goldens test_policy.cpp pins, proving the threaded instrumentation
// (null observer, one predicted branch per site) changed nothing.

TEST(ObsDisabled, IndependentMatchesGolden) {
  const auto run =
      run_federation(core::make_config(core::SchedulingMode::kIndependent), 0);
  EXPECT_EQ(run.hash, 0x6ec2c1006e3a08ebULL);
  EXPECT_EQ(run.result.total_messages, 0u);
}

TEST(ObsDisabled, FederationNoEconomyMatchesGolden) {
  const auto run = run_federation(
      core::make_config(core::SchedulingMode::kFederationNoEconomy), 0);
  EXPECT_EQ(run.hash, 0xbaf2d890e647929cULL);
  EXPECT_EQ(run.result.total_messages, 5138u);
}

TEST(ObsDisabled, DbcEconomyMatchesGolden) {
  const auto run =
      run_federation(core::make_config(core::SchedulingMode::kEconomy), 30);
  EXPECT_EQ(run.hash, 0x2514c40b32638affULL);
  EXPECT_EQ(run.result.total_messages, 14758u);
}

TEST(ObsDisabled, AuctionMatchesGolden) {
  const auto run =
      run_federation(core::make_config(core::SchedulingMode::kAuction), 30);
  EXPECT_EQ(run.hash, 0xade2c15285cc51f7ULL);
  EXPECT_EQ(run.result.total_messages, 45550u);
}

#if GRIDFED_TRACE

// ---- enabled-path passivity -------------------------------------------------

TEST(ObsEnabled, FullInstrumentationIsOutcomePassive) {
  // Trace + metrics + forensics all on: the instrumented run must still
  // land on the golden outcomes — the observer only ever reads.
  const auto dbc =
      run_federation(all_on(core::make_config(core::SchedulingMode::kEconomy)),
                     30);
  EXPECT_EQ(dbc.hash, 0x2514c40b32638affULL);
  EXPECT_EQ(dbc.result.total_messages, 14758u);

  const auto auction =
      run_federation(all_on(core::make_config(core::SchedulingMode::kAuction)),
                     30);
  EXPECT_EQ(auction.hash, 0xade2c15285cc51f7ULL);
  EXPECT_EQ(auction.result.total_messages, 45550u);
}

TEST(ObsEnabled, ObserverNullWhenConfigAllOff) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  EXPECT_FALSE(cfg.obs.any());
  const auto run = run_federation(cfg, 30);
  EXPECT_EQ(run.fed->observer(), nullptr);
}

// ---- trace well-formedness --------------------------------------------------

TEST(Trace, SpansBalanceAndTimestampsAreMonotone) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.obs.trace = true;
  const auto run = run_federation(cfg, 30);
  ASSERT_NE(run.fed->observer(), nullptr);
  const obs::Tracer* tracer = run.fed->observer()->trace();
  ASSERT_NE(tracer, nullptr);
  ASSERT_FALSE(tracer->records().empty());

  // Append order is simulation order, so timestamps never go backwards.
  sim::SimTime last = 0.0;
  for (const obs::TraceRecord& r : tracer->records()) {
    EXPECT_GE(r.t, last);
    last = r.t;
  }

  // Every end closes an open begin of the same (kind, track, id), and
  // at end of run every span is closed (jobs finalized or rejected,
  // enquiries answered, holds released, books cleared).
  std::map<std::tuple<obs::SpanKind, std::uint32_t, std::uint64_t>,
           std::int64_t>
      depth;
  for (const obs::TraceRecord& r : tracer->records()) {
    const auto key = std::make_tuple(r.kind, r.track, r.id);
    if (r.phase == obs::TracePhase::kBegin) {
      ++depth[key];
      EXPECT_EQ(depth[key], 1) << "re-opened span " << to_string(r.kind)
                               << " id " << r.id;
    } else if (r.phase == obs::TracePhase::kEnd) {
      --depth[key];
      EXPECT_GE(depth[key], 0) << "unmatched end " << to_string(r.kind)
                               << " id " << r.id;
    }
  }
  for (const auto& [key, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span " << to_string(std::get<0>(key))
                    << " id " << std::get<2>(key);
  }

  // Exactly one job span per loaded job.
  std::uint64_t job_begins = 0;
  for (const obs::TraceRecord& r : tracer->records()) {
    job_begins += r.kind == obs::SpanKind::kJob &&
                  r.phase == obs::TracePhase::kBegin;
  }
  EXPECT_EQ(job_begins, run.result.total_jobs);
}

TEST(Trace, ChromeExportIsStructurallySound) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.obs.trace = true;
  const auto run = run_federation(cfg, 30);
  std::stringstream out;
  run.fed->observer()->trace()->write_chrome_trace(out);
  const std::string json = out.str();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // track labels
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  // pid 0 is never used (Perfetto reserves it for the idle process).
  EXPECT_EQ(json.find("\"pid\":0,"), std::string::npos);
}

// ---- metrics-sum consistency ------------------------------------------------

TEST(Metrics, ClosingSampleEqualsLedgerTotalsExactly) {
  // Tree transport + coalitions: the hardest accounting case (relay
  // messages, group-addressed dissemination, surplus splits).
  auto cfg = core::make_config(core::SchedulingMode::kAuction, 90210);
  cfg.auction.clearing = market::ClearingRule::kVickrey;
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  cfg.transport.kind = transport::TransportKind::kTree;
  cfg.coalitions.enabled = true;
  cfg.coalitions.bucket_size = 4;
  cfg.obs.metrics = true;
  cfg.obs.metrics_epoch = 3600.0;
  const auto run = run_federation(cfg, 30, 20);

  ASSERT_NE(run.fed->observer(), nullptr);
  const obs::MetricsRegistry* metrics = run.fed->observer()->metrics();
  ASSERT_NE(metrics, nullptr);
  ASSERT_FALSE(metrics->series().empty());
  const obs::MetricsSample& closing = metrics->series().back();

  // The ledger columns of the closing sample are the authoritative
  // MessageLedger totals — and therefore FederationResult's, exactly.
  for (std::size_t t = 0; t < core::kMessageTypeCount; ++t) {
    EXPECT_EQ(closing.msgs_by_type[t], run.result.messages_by_type[t])
        << core::to_string(static_cast<core::MessageType>(t));
    EXPECT_EQ(closing.bytes_by_type[t], run.result.bytes_by_type[t])
        << core::to_string(static_cast<core::MessageType>(t));
  }
  EXPECT_EQ(closing.total_msgs, run.result.total_messages);
  EXPECT_EQ(closing.total_bytes, run.result.total_message_bytes);
  EXPECT_EQ(closing.relay_msgs, run.result.overlay_relay_messages);
  // (Const access: the mutable ledger() overload is the private
  // TransportContext seam.)
  const core::Federation& fed = *run.fed;
  EXPECT_EQ(closing.total_msgs, fed.ledger().total());
  EXPECT_EQ(closing.total_bytes, fed.ledger().total_bytes());

  // Sample times and cumulative columns are monotone along the series.
  for (std::size_t i = 1; i < metrics->series().size(); ++i) {
    EXPECT_GE(metrics->series()[i].t, metrics->series()[i - 1].t);
    EXPECT_GE(metrics->series()[i].total_msgs,
              metrics->series()[i - 1].total_msgs);
  }
}

TEST(Metrics, CountersAgreeWithRunAggregates) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.obs.metrics = true;
  const auto run = run_federation(cfg, 30);
  const obs::MetricsRegistry* m = run.fed->observer()->metrics();
  ASSERT_NE(m, nullptr);

  EXPECT_EQ(m->counter(obs::Counter::kJobsSubmitted), run.result.total_jobs);
  EXPECT_EQ(m->counter(obs::Counter::kJobsAccepted),
            run.result.total_accepted);
  EXPECT_EQ(m->counter(obs::Counter::kJobsRejected),
            run.result.total_rejected);
  EXPECT_EQ(m->counter(obs::Counter::kAuctionsOpened),
            run.result.auctions.held);
  EXPECT_EQ(m->counter(obs::Counter::kAwardsCleared),
            run.result.auctions.awarded);
  EXPECT_GT(m->counter(obs::Counter::kEventsDispatched), 0u);

  // The book-depth histogram saw exactly one observation per clearing.
  EXPECT_EQ(m->histogram(obs::Histo::kBookDepth).total,
            run.result.auctions.held);
  EXPECT_EQ(m->histogram(obs::Histo::kClearingPrice).total,
            run.result.auctions.awarded);

  // The JSON dump renders and carries the series.
  std::stringstream out;
  m->write_json(out);
  EXPECT_NE(out.str().find("\"samples\": ["), std::string::npos);
  EXPECT_NE(out.str().find("\"jobs_accepted\""), std::string::npos);
}

TEST(Metrics, EventsDispatchedIgnoresAnOutsideDispatchProbe) {
  // The kernel has one dispatch-probe slot.  A profiler that takes it
  // from a t = 0 event (perfbench's traced run does) must not starve
  // the registry's events_dispatched counter: each sample reads the
  // kernel's executed count.
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.obs.metrics = true;
  cfg.obs.metrics_epoch = 3600.0;
  const auto specs = cluster::replicated_specs(8);
  core::Federation fed(cfg, specs);
  fed.load_workload(
      workload::generate_federation_workload(specs, cfg.window, cfg.seed),
      workload::PopulationProfile{30});
  std::uint64_t probed = 0;
  fed.simulation().schedule_at(
      0.0, sim::EventPriority::kCompletion, [&fed, &probed] {
        fed.simulation().set_dispatch_probe(
            [](void* ctx, sim::SimTime) { ++*static_cast<std::uint64_t*>(ctx); },
            &probed);
      });
  (void)fed.run();

  const obs::MetricsRegistry* metrics = fed.observer()->metrics();
  ASSERT_NE(metrics, nullptr);
  const std::uint64_t executed = fed.simulation().events_executed();
  EXPECT_GT(probed, 0u);
  EXPECT_EQ(probed + 1, executed);  // every dispatch after the installer
  EXPECT_EQ(metrics->counter(obs::Counter::kEventsDispatched), executed);
  const auto dispatched = [](const obs::MetricsSample& s) {
    return s.counters[static_cast<std::size_t>(
        obs::Counter::kEventsDispatched)];
  };
  EXPECT_EQ(dispatched(metrics->series().back()), executed);
  ASSERT_GE(metrics->series().size(), 2u);
  for (std::size_t i = 1; i < metrics->series().size(); ++i) {
    EXPECT_GE(dispatched(metrics->series()[i]),
              dispatched(metrics->series()[i - 1]));
  }
  EXPECT_GT(dispatched(metrics->series().front()), 0u);
}

TEST(Metrics, ClosingSampleCarriesTheFelTelemetry) {
  // A zero-latency DBC run: replies and next-hop enquiries are scheduled
  // at the instant being dispatched, so the lanes serve them.  The
  // kernel's peak is the largest pending set any dispatch saw — exactly
  // what a dispatch probe reading pending_events() sees.
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  ASSERT_EQ(cfg.network_latency, 0.0);
  cfg.obs.metrics = true;
  cfg.obs.metrics_epoch = 3600.0;
  const auto specs = cluster::replicated_specs(8);
  core::Federation fed(cfg, specs);
  fed.load_workload(
      workload::generate_federation_workload(specs, cfg.window, cfg.seed),
      workload::PopulationProfile{30});
  struct Probe {
    sim::Simulation* sim;
    std::size_t max = 0;
  } probe{&fed.simulation()};
  // The first event of the run installs our probe, as perfbench's
  // traced run does.
  fed.simulation().schedule_at(0.0, sim::EventPriority::kCompletion, [&probe] {
    probe.sim->set_dispatch_probe(
        [](void* ctx, sim::SimTime) {
          auto* p = static_cast<Probe*>(ctx);
          p->max = std::max(p->max, p->sim->pending_events());
        },
        &probe);
  });
  (void)fed.run();

  const obs::MetricsRegistry* metrics = fed.observer()->metrics();
  ASSERT_NE(metrics, nullptr);
  const obs::MetricsSample& closing = metrics->series().back();
  const auto gauge = [&closing](obs::Gauge g) {
    return closing.gauges[static_cast<std::size_t>(g)];
  };
  EXPECT_GT(probe.max, 0u);
  EXPECT_EQ(gauge(obs::Gauge::kFelPeakKeys), probe.max);
  EXPECT_GT(gauge(obs::Gauge::kFelLanePops), 0u);
  const sim::FelStats& fel = fed.simulation().fel_stats();
  EXPECT_EQ(gauge(obs::Gauge::kFelLanePops), fel.lane_pops);
  EXPECT_EQ(gauge(obs::Gauge::kFelSpills), fel.spills);
  EXPECT_EQ(gauge(obs::Gauge::kFelUnspills), fel.unspills);
  // Lane pops only accumulate along the series.
  for (std::size_t i = 1; i < metrics->series().size(); ++i) {
    EXPECT_GE(metrics->series()[i].gauges[static_cast<std::size_t>(
                  obs::Gauge::kFelLanePops)],
              metrics->series()[i - 1].gauges[static_cast<std::size_t>(
                  obs::Gauge::kFelLanePops)]);
  }
}

// ---- auction forensics ------------------------------------------------------

TEST(Forensics, OneDecisionPerClearingAgreeingWithStats) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.obs.forensics = true;
  const auto run = run_federation(cfg, 30);
  const obs::ForensicsLedger* forensics = run.fed->observer()->forensics();
  ASSERT_NE(forensics, nullptr);

  EXPECT_EQ(forensics->decisions().size(), run.result.auctions.held);
  std::uint64_t awarded = 0;
  for (const obs::ClearingDecision& d : forensics->decisions()) {
    awarded += d.awarded;
    EXPECT_EQ(d.clearing, market::ClearingRule::kFirstPrice);
    if (!d.awarded) continue;
    // First price: the payment IS the winner's ask.
    EXPECT_DOUBLE_EQ(d.payment, d.winner_ask);
    // The winner is one of the recorded bids, with the best (lowest)
    // score among the feasible ones.
    const auto win = std::find_if(
        d.bids.begin(), d.bids.end(),
        [&d](const obs::ScoredBid& b) { return b.bidder == d.winner; });
    ASSERT_NE(win, d.bids.end()) << "job " << d.job;
    EXPECT_TRUE(win->feasible);
    for (const obs::ScoredBid& b : d.bids) {
      if (b.feasible) {
        EXPECT_LE(win->score, b.score);
      }
    }
    if (d.has_runner_up) {
      EXPECT_GE(d.runner_up_margin, 0.0);
    }
  }
  EXPECT_EQ(awarded, run.result.auctions.awarded);

  // for_job returns the clearing(s) of one job, in order.
  const obs::ClearingDecision& first = forensics->decisions().front();
  const auto records = forensics->for_job(first.job);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front()->job, first.job);
}

TEST(Forensics, VickreyPaymentsNeverUndercutTheAsk) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.auction.clearing = market::ClearingRule::kVickrey;
  cfg.obs.forensics = true;
  const auto run = run_federation(cfg, 30);
  const obs::ForensicsLedger* forensics = run.fed->observer()->forensics();
  ASSERT_NE(forensics, nullptr);
  std::uint64_t premium_rounds = 0;
  for (const obs::ClearingDecision& d : forensics->decisions()) {
    if (!d.awarded) continue;
    EXPECT_EQ(d.clearing, market::ClearingRule::kVickrey);
    // Generalized second price floors at the winner's own ask.
    EXPECT_GE(d.payment, d.winner_ask);
    premium_rounds += d.payment > d.winner_ask;
  }
  EXPECT_GT(premium_rounds, 0u);  // second-price actually bites sometimes
}

TEST(Forensics, CoalitionSplitsMatchTheManagerRecords) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction, 90210);
  cfg.auction.clearing = market::ClearingRule::kVickrey;
  cfg.auction.batch_solicitations = true;
  cfg.auction.solicit_batch_window = 300.0;
  cfg.transport.kind = transport::TransportKind::kTree;
  cfg.coalitions.enabled = true;
  cfg.coalitions.bucket_size = 4;
  cfg.obs.forensics = true;
  const auto run = run_federation(cfg, 30, 20);
  const obs::ForensicsLedger* forensics = run.fed->observer()->forensics();
  ASSERT_NE(forensics, nullptr);
  ASSERT_NE(run.fed->coalitions(), nullptr);
  const auto& manager_splits = run.fed->coalitions()->splits();
  ASSERT_FALSE(manager_splits.empty());
  ASSERT_EQ(forensics->splits().size(), manager_splits.size());
  for (std::size_t i = 0; i < manager_splits.size(); ++i) {
    const obs::SplitDecision& d = forensics->splits()[i];
    const coalition::SplitRecord& s = manager_splits[i];
    EXPECT_EQ(d.job, s.job);
    EXPECT_EQ(d.coalition, s.coalition.value);
    EXPECT_EQ(d.executor, s.executor);
    EXPECT_DOUBLE_EQ(d.payment, s.payment);
    ASSERT_EQ(d.shares.size(), s.shares.size());
    double sum = 0.0;
    for (const auto& [member, share] : d.shares) sum += share;
    EXPECT_NEAR(sum, d.payment, 1e-9 * std::max(1.0, d.payment));
  }
  // The settlement annotations on the outcomes line up with the splits.
  std::uint64_t split_jobs = 0;
  for (const core::JobOutcome& o : run.fed->outcomes()) {
    if (!o.accepted || o.settled_participant < 0x80000000u) continue;
    ++split_jobs;
    EXPECT_TRUE(o.via_coalition);
    EXPECT_LE(o.surplus_share, o.cost + 1e-9);
  }
  EXPECT_EQ(split_jobs, manager_splits.size());
}

#endif  // GRIDFED_TRACE

}  // namespace
}  // namespace gridfed
