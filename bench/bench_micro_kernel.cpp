// Kernel microbenchmarks (google-benchmark): event queue throughput,
// availability-profile operations, directory ranked queries, and the
// end-to-end jobs/second of a full federation run — the numbers that
// justify replacing the Java GridSim substrate (DESIGN.md substitution 2).

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cluster/availability_profile.hpp"
#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/federation.hpp"
#include "directory/federation_directory.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "transport/message_arena.hpp"

namespace {

using namespace gridfed;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1e6);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(sim::Event{times[i], sim::EventPriority::kArrival,
                        static_cast<sim::EventSeq>(i), [] {}});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
}
// 1024/16384 are the historical heap-regime points; 65536/262144 are the
// cold-cache regimes where the hybrid queue spills to the ladder and the
// O(log n) heap comparisons stop fitting in cache (bench/README.md,
// "Future-event list").
BENCHMARK(BM_EventQueuePushPop)
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(65536)
    ->Arg(262144);

// The same push-all/pop-all kernel with the future-event-list backend
// forced, one column per FelConfig::Kind: 0 = hybrid (the EventQueue
// default, heap below the spill threshold), 1 = heap-only (the seed's
// 4-ary heap), 2 = ladder-only (spilled from the first key).  The
// heap-vs-ladder columns locate the crossover; the hybrid column must
// track whichever backend wins at each size.
void BM_EventQueueFel(benchmark::State& state) {
  const auto kind = static_cast<sim::FelConfig::Kind>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  sim::Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1e6);
  for (auto _ : state) {
    sim::EventQueue q(sim::FelConfig{kind, 8192});
    for (std::size_t i = 0; i < n; ++i) {
      q.push(sim::Event{times[i], sim::EventPriority::kArrival,
                        static_cast<sim::EventSeq>(i), [] {}});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
}
BENCHMARK(BM_EventQueueFel)
    ->ArgNames({"kind", "n"})
    ->ArgsProduct({{0, 1, 2}, {1024, 16384, 65536, 262144}});

void BM_SimulationEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t acc = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(static_cast<double>(i), sim::EventPriority::kControl,
                      [&acc] { ++acc; });
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulationEventDispatch);

// A zero-latency cascade: each of 10,000 events schedules its successor
// at now() — a delivery scheduling its reply — over 0 or 16,384
// background keys pending at random future times (the larger set keeps
// the hybrid FEL spilled to the ladder; in increasing order they would
// ride the control lane instead).  The lanes serve the whole chain without
// touching the heap or the ladder, so the two columns should cost the
// same; bench/README.md "Same-instant lanes" has the before/after ratio.
void BM_SimulationSameInstantChain(benchmark::State& state) {
  struct Chain {
    sim::Simulation* sim;
    int left;
    void step() {
      if (--left > 0) {
        sim->schedule_at(sim->now(), sim::EventPriority::kMessage,
                         [this] { step(); });
      }
    }
  };
  const auto background = static_cast<int>(state.range(0));
  sim::Simulation sim;
  sim::Rng rng(7);
  for (int i = 0; i < background; ++i) {
    sim.schedule_at(1e12 + rng.uniform01() * 1e6,
                    sim::EventPriority::kControl, [] {});
  }
  Chain chain{&sim, 0};
  sim::SimTime at = 1.0;
  for (auto _ : state) {
    chain.left = 10000;
    sim.schedule_at(at, sim::EventPriority::kMessage,
                    [&chain] { chain.step(); });
    sim.run_until(at);
    at += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulationSameInstantChain)
    ->ArgName("background")
    ->Arg(0)
    ->Arg(16384);

// A fixed-latency WAN: 64 staggered chains, each event scheduling its
// successor at now + sqrt(2) — a delivery scheduling the next delivery —
// over 0 or 4,096 background keys at random future times (all but the
// few that sort after the control lane's tail stay on the heap, below
// the spill threshold).  Each hop sorts after its lane's tail, so the
// message lane serves every hop and never drains.  bench/README.md "Sorted-tail lanes"
// has the before/after ratio.
void BM_SimulationConstantDelayChain(benchmark::State& state) {
  struct Chain {
    sim::Simulation* sim;
    void step() {
      sim->schedule_in(std::sqrt(2.0), sim::EventPriority::kMessage,
                       [this] { step(); });
    }
  };
  const auto background = static_cast<int>(state.range(0));
  sim::Simulation sim;
  sim::Rng rng(7);
  for (int i = 0; i < background; ++i) {
    sim.schedule_at(1e12 + rng.uniform01() * 1e6,
                    sim::EventPriority::kControl, [] {});
  }
  Chain chain{&sim};
  for (int i = 0; i < 64; ++i) {
    sim.schedule_at(1e-3 * i, sim::EventPriority::kMessage,
                    [&chain] { chain.step(); });
  }
  for (auto _ : state) {
    sim.run_until(sim.now() + 100.0 * std::sqrt(2.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.events_executed()));
}
BENCHMARK(BM_SimulationConstantDelayChain)
    ->ArgName("background")
    ->Arg(0)
    ->Arg(4096);

// The auction's message path through a Federation: bursts of 256
// batched kCallForBids (2 jobs each, about what an auction-direct flush
// sends one provider) from 16 origins, all views of one arena.  Each
// call is delivered to its provider, answered by
// AuctionPolicy::on_call_for_bids with one batched kBid, and the answer
// is delivered and dropped at on_bid (no book is open).  Items are the
// wire messages delivered, two per call.  bench/README.md "Message
// path" has the before/after ratio.
void BM_FederationBidRoundTrip(benchmark::State& state) {
  constexpr std::size_t kSites = 16;
  constexpr std::size_t kJobsPerCall = 2;
  constexpr int kBurst = 256;
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.network_latency = 1.0;
  const auto specs = cluster::replicated_specs(kSites);
  core::Federation fed(cfg, specs);
  core::GfaHost& host = fed;
  std::vector<cluster::Job> jobs(kSites * kJobsPerCall);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = 1 + i;
    jobs[i].origin = static_cast<cluster::ResourceIndex>(i / kJobsPerCall);
    jobs[i].processors = 1;
    jobs[i].length_mi = 1000.0;
    jobs[i].budget = 1e9;
    jobs[i].deadline = 1e9;
  }
  auto arena = std::make_shared<transport::MessageArena>();
  std::vector<std::span<const cluster::Job>> calls;
  for (std::size_t origin = 0; origin < kSites; ++origin) {
    std::vector<const cluster::Job*> block;
    for (std::size_t k = 0; k < kJobsPerCall; ++k) {
      block.push_back(&jobs[origin * kJobsPerCall + k]);
    }
    calls.push_back(arena->append(block));
  }
  const transport::ArenaHandle handle = arena;
  std::uint64_t sent = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i, ++sent) {
      const auto from = static_cast<cluster::ResourceIndex>(sent % kSites);
      core::Message call;
      call.type = core::MessageType::kCallForBids;
      call.from = from;
      call.to = static_cast<cluster::ResourceIndex>(
          (from + 1 + sent / kSites % (kSites - 1)) % kSites);
      call.batch_jobs = calls[from];
      call.arena = handle;
      call.job = call.batch_jobs.front();
      host.send(std::move(call));
    }
    fed.simulation().run();
    benchmark::DoNotOptimize(std::as_const(fed).ledger().total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * kBurst);
}
BENCHMARK(BM_FederationBidRoundTrip);

#if GRIDFED_TRACE
// The observability overhead pair: dispatch with the probe slot present
// but null (runtime-disabled tracing — the default production state)
// vs. a live counting probe (the shape a profiler installs).  The
// null-probe number must stay within 2% of BM_SimulationEventDispatch on
// the pre-observability seed; see
// bench/README.md "Observability".
void BM_SimulationEventDispatchProbed(benchmark::State& state) {
  const bool live = state.range(0) != 0;
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t probed = 0;
    if (live) {
      sim.set_dispatch_probe(
          [](void* ctx, sim::SimTime) {
            ++*static_cast<std::uint64_t*>(ctx);
          },
          &probed);
    }
    std::uint64_t acc = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(static_cast<double>(i), sim::EventPriority::kControl,
                      [&acc] { ++acc; });
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(probed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulationEventDispatchProbed)
    ->Arg(0)   // probe slot compiled in, runtime-off (null probe)
    ->Arg(1);  // live counting probe
#endif  // GRIDFED_TRACE

void BM_TracedEndToEndAuction(benchmark::State& state) {
  // Full two-day auction run with every observability facility on:
  // the end-to-end cost of tracing a real experiment (spans + metrics +
  // forensics), against BM_EndToEndTwoDayEconomy-style baselines.
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
#if GRIDFED_TRACE
  cfg.obs.trace = state.range(0) != 0;
  cfg.obs.metrics = state.range(0) != 0;
  cfg.obs.forensics = state.range(0) != 0;
#endif
  for (auto _ : state) {
    const auto r = core::run_experiment(cfg, 8, 30);
    benchmark::DoNotOptimize(r.total_messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2662);
}
BENCHMARK(BM_TracedEndToEndAuction)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_AvailabilityReserve(benchmark::State& state) {
  sim::Rng rng(7);
  for (auto _ : state) {
    cluster::AvailabilityProfile p(1024);
    for (int i = 0; i < 1000; ++i) {
      const auto procs = static_cast<std::uint32_t>(rng.uniform_int(1, 256));
      const double dur = rng.uniform(1.0, 500.0);
      const double start = p.earliest_start(rng.uniform(0.0, 1e4), procs, dur);
      p.reserve(start, start + dur, procs);
    }
    benchmark::DoNotOptimize(p.step_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_AvailabilityReserve);

void BM_DirectoryRankedQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  directory::FederationDirectory dir;
  const auto specs = cluster::replicated_specs(n);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    dir.subscribe(directory::Quote::from_spec(
        static_cast<cluster::ResourceIndex>(i), specs[i]));
  }
  std::uint32_t r = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dir.query(directory::OrderBy::kCheapest,
                  1 + (r++ % static_cast<std::uint32_t>(n))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectoryRankedQuery)->Arg(8)->Arg(50);

void BM_EndToEndTwoDayEconomy(benchmark::State& state) {
  const auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  for (auto _ : state) {
    const auto r = core::run_experiment(cfg, 8, 50);
    benchmark::DoNotOptimize(r.total_messages);
  }
  // 2662 jobs per run: report jobs/second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2662);
}
BENCHMARK(BM_EndToEndTwoDayEconomy)->Unit(benchmark::kMillisecond);

void BM_EndToEndScaling50(benchmark::State& state) {
  const auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  for (auto _ : state) {
    const auto r = core::run_experiment(cfg, 50, 50);
    benchmark::DoNotOptimize(r.total_messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (2662 * 50 / 8));
}
BENCHMARK(BM_EndToEndScaling50)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
