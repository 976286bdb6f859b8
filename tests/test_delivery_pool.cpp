// Tests for the pooled sequential delivery path: messages in flight wait in
// a recycled core::MessageSlots slot and the delivery event captures only
// {federation, slot}.  Pinned here:
//  * the slot store reuses freed slots and grows only to the peak number
//    of messages in flight;
//  * steady-state unicast deliveries through a Federation allocate
//    nothing once the store (and the event queue) is warm;
//  * every delivery frees its slot — lost, duplicated and crashed-
//    destination ones included — and the store never outgrows the peak
//    in flight.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/federation.hpp"
#include "core/message_slots.hpp"
#include "workload/synthetic.hpp"

// ---- allocation counting ----------------------------------------------------
// Replacing global new/delete in this test binary lets the zero-allocation
// contract be asserted instead of assumed.  The counter only ever
// increments, so tests measure deltas around the region of interest.

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

namespace gridfed {
namespace {

core::Message bid_message(cluster::ResourceIndex from,
                          cluster::ResourceIndex to, cluster::JobId job) {
  core::Message msg;
  msg.type = core::MessageType::kBid;
  msg.from = from;
  msg.to = to;
  msg.job.id = job;
  msg.job.origin = to;
  return msg;
}

// ---- MessageSlots -------------------------------------------------------------

TEST(MessageSlots, ReusesFreedSlots) {
  core::MessageSlots slots;
  const std::uint32_t a = slots.park(bid_message(0, 1, 1));
  const std::uint32_t b = slots.park(bid_message(0, 1, 2));
  EXPECT_NE(a, b);
  EXPECT_EQ(slots.take(a).job.id, 1u);
  EXPECT_EQ(slots.in_flight(), 1u);
  const std::uint32_t c = slots.park(bid_message(0, 1, 3));
  EXPECT_EQ(c, a);  // the freed slot, not a new one
  EXPECT_EQ(slots.capacity(), 2u);
  EXPECT_EQ(slots.take(b).job.id, 2u);
  EXPECT_EQ(slots.take(c).job.id, 3u);
  EXPECT_EQ(slots.in_flight(), 0u);
}

TEST(MessageSlots, GrowsOnlyToPeakInFlight) {
  core::MessageSlots slots;
  std::vector<std::uint32_t> held;
  // A sawtooth: 20 messages stay in flight while bursts of 150 come and
  // go, so the peak is 170 (more than two growth chunks).
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 150; ++i) {
      held.push_back(slots.park(bid_message(0, 1, i)));
    }
    while (held.size() > 20) {
      (void)slots.take(held.back());
      held.pop_back();
    }
  }
  EXPECT_EQ(slots.capacity(), 170u);
  EXPECT_EQ(slots.in_flight(), 20u);
}

TEST(MessageSlots, TakeOfUnknownSlotThrows) {
  core::MessageSlots slots;
  EXPECT_THROW((void)slots.take(0), sim::ContractViolation);
}

// ---- Federation delivery --------------------------------------------------------

TEST(FederationDelivery, SteadyStateUnicastAllocatesNothing) {
  // Auction mode with no open book: every kBid lands in on_bid, finds no
  // auction and is dropped, so the delivery path alone is measured.
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.network_latency = 1.0;
  const auto specs = cluster::replicated_specs(8);
  core::Federation fed(cfg, specs);
  core::GfaHost& host = fed;
  constexpr int kBurst = 200;
  const auto burst = [&] {
    for (int i = 0; i < kBurst; ++i) {
      const auto from = static_cast<cluster::ResourceIndex>(i % 8);
      host.send(bid_message(from, (from + 1) % 8, 1000 + i));
    }
    fed.simulation().run();
  };
  burst();  // warm: slot store, free list and event queue reach the peak
  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 10; ++round) burst();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(fed.delivery_slots().capacity(),
            static_cast<std::size_t>(kBurst));
  EXPECT_EQ(fed.delivery_slots().in_flight(), 0u);
  EXPECT_EQ(std::as_const(fed).ledger().count_of(core::MessageType::kBid),
            11u * kBurst);
}

#if GRIDFED_TRACE
TEST(FederationDelivery, LossDuplicationAndCrashFreeEverySlot) {
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.network_latency = 1.0;
  cfg.negotiate_timeout = 200.0;
  cfg.auction.bid_timeout = 200.0;
  cfg.message_drop_rate = 0.1;
  cfg.transport.duplicate_rate = 0.1;
  cfg.membership.enabled = true;
  cfg.membership.churn.events.push_back(
      membership::ChurnEvent{40000.0, 2, membership::ChurnKind::kCrash});
  const auto specs = cluster::replicated_specs(8);
  core::Federation fed(cfg, specs);
  const auto traces =
      workload::generate_federation_workload(specs, cfg.window, cfg.seed);
  fed.load_workload(traces, workload::PopulationProfile{30});

  // Messages in flight can only peak at an event boundary (a delivery
  // event frees its slot before it posts anything), so sampling before
  // every dispatch observes the true peak.
  struct Peak {
    const core::MessageSlots* slots;
    std::size_t max = 0;
  } peak{&fed.delivery_slots()};
  fed.simulation().set_dispatch_probe(
      [](void* ctx, sim::SimTime) {
        auto* p = static_cast<Peak*>(ctx);
        p->max = std::max(p->max, p->slots->in_flight());
      },
      &peak);
  (void)fed.run();

  EXPECT_GT(fed.messages_dropped(), 0u);
  EXPECT_GT(fed.membership()->telemetry().churn_applied, 0u);
  EXPECT_EQ(fed.delivery_slots().in_flight(), 0u);
  EXPECT_GT(peak.max, 0u);
  EXPECT_EQ(fed.delivery_slots().capacity(), peak.max);
}
#endif

}  // namespace
}  // namespace gridfed
