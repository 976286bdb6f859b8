// Tests for the pooled sequential delivery path: messages in flight wait in
// a recycled core::MessageSlots slot, are delivered from it in place, and
// the delivery event captures only {federation, slot}.  Pinned here:
//  * the slot store reuses freed slots and grows only to the peak number
//    of messages in flight;
//  * releasing a slot drops the message's arena at once and keeps the
//    bid buffer's capacity, which the next bid-carrying park hands back;
//  * steady-state unicast deliveries and batched bid answers through a
//    Federation allocate nothing once the store (and the event queue) is
//    warm;
//  * every delivery frees its slot — lost, duplicated and crashed-
//    destination ones included — and the store never outgrows the peak
//    in flight.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/federation.hpp"
#include "core/message_slots.hpp"
#include "transport/message_arena.hpp"
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
  EXPECT_EQ(slots[a].job.id, 1u);
  slots.release(a);
  EXPECT_EQ(slots.in_flight(), 1u);
  const std::uint32_t c = slots.park(bid_message(0, 1, 3));
  EXPECT_EQ(c, a);  // the freed slot, not a new one
  EXPECT_EQ(slots.capacity(), 2u);
  EXPECT_EQ(slots[b].job.id, 2u);
  slots.release(b);
  EXPECT_EQ(slots[c].job.id, 3u);
  slots.release(c);
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
      slots.release(held.back());
      held.pop_back();
    }
  }
  EXPECT_EQ(slots.capacity(), 170u);
  EXPECT_EQ(slots.in_flight(), 20u);
}

TEST(MessageSlots, UnknownSlotThrows) {
  core::MessageSlots slots;
  EXPECT_THROW((void)slots[0], sim::ContractViolation);
  EXPECT_THROW(slots.release(0), sim::ContractViolation);
}

TEST(MessageSlots, ReleaseDropsTheArenaAndKeepsBidCapacity) {
  core::MessageSlots slots;
  core::Message bids = bid_message(0, 1, 1);
  auto arena = std::make_shared<const transport::MessageArena>();
  const std::weak_ptr<const transport::MessageArena> watch = arena;
  bids.arena = std::move(arena);
  bids.batch_bids.resize(16);
  const core::BatchedBid* buffer = bids.batch_bids.data();
  const std::uint32_t slot = slots.park(std::move(bids));
  EXPECT_EQ(slots[slot].batch_bids.data(), buffer);  // moved, not copied
  EXPECT_FALSE(watch.expired());  // the parked message keeps it alive

  slots.release(slot);
  EXPECT_TRUE(watch.expired());  // dropped as soon as release returns
  // The free slot still holds the emptied buffer for its next message.
  EXPECT_TRUE(slots[slot].batch_bids.empty());
  EXPECT_GE(slots[slot].batch_bids.capacity(), 16u);

  // A message without bids leaves the released buffer in the slot...
  const std::uint32_t plain = slots.park(bid_message(0, 1, 2));
  ASSERT_EQ(plain, slot);
  EXPECT_EQ(slots[plain].batch_bids.data(), buffer);
  slots.release(plain);

  // ...and the next bid-carrying park hands it back to the sender.
  core::Message answer = bid_message(0, 1, 3);
  answer.batch_bids.resize(4);
  const std::uint32_t again = slots.park(std::move(answer));
  ASSERT_EQ(again, slot);
  EXPECT_EQ(slots[again].batch_bids.size(), 4u);
  EXPECT_TRUE(answer.batch_bids.empty());
  EXPECT_EQ(answer.batch_bids.data(), buffer);
  EXPECT_GE(answer.batch_bids.capacity(), 16u);
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

TEST(FederationDelivery, SteadyStateBatchedBidAnswersAllocateNothing) {
  // Auction mode with no open book: each provider answers a batched
  // kCallForBids through AuctionPolicy::on_call_for_bids, and the batched
  // kBid answer lands in on_bid, finds no auction and is dropped.
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.network_latency = 1.0;
  constexpr std::size_t kSites = 8;
  const auto specs = cluster::replicated_specs(kSites);
  core::Federation fed(cfg, specs);
  core::GfaHost& host = fed;

  // One test-owned arena holds every origin's job list; each call views
  // its origin's block and shares the arena, as a solicitation flush's
  // copies do.
  constexpr std::size_t kJobsPerCall = 6;
  std::vector<cluster::Job> jobs(kSites * kJobsPerCall);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = 1000 + i;
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

  constexpr int kBurst = 200;
  const auto burst = [&] {
    for (int i = 0; i < kBurst; ++i) {
      const auto from = static_cast<cluster::ResourceIndex>(i % kSites);
      core::Message call;
      call.type = core::MessageType::kCallForBids;
      call.from = from;
      call.to = static_cast<cluster::ResourceIndex>(
          (from + 1 + i / kSites % (kSites - 1)) % kSites);
      call.batch_jobs = calls[from];
      call.arena = handle;
      call.job = call.batch_jobs.front();
      host.send(std::move(call));
    }
    fed.simulation().run();
  };
  // Warm: the slot store, the event queue and the recycled bid buffers
  // (one per slot an answer ever sat in) reach their steady state.
  for (int round = 0; round < 3; ++round) burst();
  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 10; ++round) burst();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(fed.delivery_slots().in_flight(), 0u);
  const core::MessageLedger& ledger = std::as_const(fed).ledger();
  EXPECT_EQ(ledger.count_of(core::MessageType::kCallForBids), 13u * kBurst);
  EXPECT_EQ(ledger.count_of(core::MessageType::kBid), 13u * kBurst);
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

  // Messages in flight peak inside an event: a delivery keeps its own
  // slot until its handler returns, and every message the event posts
  // takes another.  So the peak of one event is the number in flight
  // when it starts plus the messages it parks, and on the direct
  // transport every message parks unless it is lost: the event's ledger
  // records minus its drops.  Folding that in before every dispatch and
  // once after the run measures the true peak.
  struct Peak {
    const core::Federation* fed;
    std::size_t max = 0;
    std::size_t in_flight = 0;  // at the start of the current event
    std::uint64_t parked = 0;   // messages parked before it
    void close_event() {
      const std::uint64_t now_parked =
          fed->ledger().total() - fed->messages_dropped();
      max = std::max<std::size_t>(max, in_flight + (now_parked - parked));
      parked = now_parked;
      in_flight = fed->delivery_slots().in_flight();
    }
  } peak{&fed};
  fed.simulation().set_dispatch_probe(
      [](void* ctx, sim::SimTime) { static_cast<Peak*>(ctx)->close_event(); },
      &peak);
  (void)fed.run();
  peak.close_event();

  EXPECT_GT(fed.messages_dropped(), 0u);
  EXPECT_GT(fed.membership()->telemetry().churn_applied, 0u);
  EXPECT_EQ(fed.delivery_slots().in_flight(), 0u);
  EXPECT_GT(peak.max, 0u);
  EXPECT_EQ(fed.delivery_slots().capacity(), peak.max);
}
#endif

}  // namespace
}  // namespace gridfed
