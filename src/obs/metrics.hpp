#pragma once
// Metrics registry: enum-indexed counters and gauges, fixed-bucket
// power-of-two histograms, and per-participant decline/miss tallies —
// everything backed by flat arrays sized at construction, so the hot
// path (count / observe) is an index and an add with no allocation and
// no hashing.  Gauges are not written on the hot path: the
// Federation-supplied LedgerSampler fills them into each sample.
//
// A sim-time epoch sampler snapshots the registry into a time-series.
// The message/byte columns are not double-instrumented: each sample
// delegates to a Federation-supplied LedgerSampler that copies the
// authoritative MessageLedger totals, so the final sample (taken after
// the run drains) equals FederationResult's per-type totals *exactly* —
// the consistency the observability tests pin.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "sim/types.hpp"

namespace gridfed::obs {

enum class Counter : std::uint8_t {
  kEventsDispatched = 0,  ///< the kernel's executed-event count, per sample
  kJobsSubmitted,
  kJobsAccepted,
  kJobsRejected,
  kEnquiriesStarted,      ///< remote negotiations begun
  kEnquiriesDeclined,     ///< replies that refused the job
  kHoldsPlaced,           ///< provider-side admission holds
  kHoldsCancelled,        ///< holds that timed out unused
  kHoldsPhantom,          ///< holds cleared by a phantom completion
  kAuctionsOpened,
  kSolicitFlushes,
  kBidsAnswered,          ///< provider priced a call-for-bids
  kAwardsCleared,         ///< books cleared with a winner
  kCoalitionsFormed,
  kCoalitionPlacements,
  kCoalitionSplits,
  kChurnEvents,            ///< scripted join/leave/crash applied
  kGossipRounds,           ///< anti-entropy rounds run
  kSuspicions,             ///< view transitions to suspect or dead
  kDeadConfirmed,          ///< crashes confirmed by the failure detector
  kTreeRepairs,            ///< dead relays excised from the overlay
  kReplayedSolicitations,  ///< call-for-bids segments replayed by repair
  kCoalitionReforms,       ///< coalitions re-formed after churn
  kJobsOrphaned,           ///< placements swept off a confirmed-dead peer
  kBidsPruned,             ///< bid entries tombstoned by convergecast relays
  kBidPruneBytesSaved,     ///< wire bytes saved by prune + delta encoding
  kCount,
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

[[nodiscard]] constexpr const char* to_string(Counter c) noexcept {
  switch (c) {
    case Counter::kEventsDispatched: return "events_dispatched";
    case Counter::kJobsSubmitted: return "jobs_submitted";
    case Counter::kJobsAccepted: return "jobs_accepted";
    case Counter::kJobsRejected: return "jobs_rejected";
    case Counter::kEnquiriesStarted: return "enquiries_started";
    case Counter::kEnquiriesDeclined: return "enquiries_declined";
    case Counter::kHoldsPlaced: return "holds_placed";
    case Counter::kHoldsCancelled: return "holds_cancelled";
    case Counter::kHoldsPhantom: return "holds_phantom";
    case Counter::kAuctionsOpened: return "auctions_opened";
    case Counter::kSolicitFlushes: return "solicit_flushes";
    case Counter::kBidsAnswered: return "bids_answered";
    case Counter::kAwardsCleared: return "awards_cleared";
    case Counter::kCoalitionsFormed: return "coalitions_formed";
    case Counter::kCoalitionPlacements: return "coalition_placements";
    case Counter::kCoalitionSplits: return "coalition_splits";
    case Counter::kChurnEvents: return "churn_events";
    case Counter::kGossipRounds: return "gossip_rounds";
    case Counter::kSuspicions: return "suspicions";
    case Counter::kDeadConfirmed: return "dead_confirmed";
    case Counter::kTreeRepairs: return "tree_repairs";
    case Counter::kReplayedSolicitations: return "replayed_solicitations";
    case Counter::kCoalitionReforms: return "coalition_reforms";
    case Counter::kJobsOrphaned: return "jobs_orphaned";
    case Counter::kBidsPruned: return "bids_pruned";
    case Counter::kBidPruneBytesSaved: return "bid_prune_bytes_saved";
    case Counter::kCount: break;
  }
  return "?";
}

enum class Gauge : std::uint8_t {
  kOpenBooks = 0,  ///< auction books currently awaiting clearing
  // The kernel's future-event list (sim::FelStats), read at each sample.
  kFelPeakKeys,    ///< largest pending-event count seen at a dispatch
  kFelSpills,      ///< heap -> ladder migrations so far
  kFelUnspills,    ///< ladder -> heap migrations so far
  kFelLanePops,    ///< events dispatched from a lane so far
  kCount,
};
inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::kCount);

[[nodiscard]] constexpr const char* to_string(Gauge g) noexcept {
  switch (g) {
    case Gauge::kOpenBooks: return "open_books";
    case Gauge::kFelPeakKeys: return "fel_peak_keys";
    case Gauge::kFelSpills: return "fel_spills";
    case Gauge::kFelUnspills: return "fel_unspills";
    case Gauge::kFelLanePops: return "fel_lane_pops";
    case Gauge::kCount: break;
  }
  return "?";
}

enum class Histo : std::uint8_t {
  kBookDepth = 0,   ///< bids present when a book cleared
  kClearingPrice,   ///< payment charged at clearing (G$, floored)
  kFanoutTargets,   ///< targets per tree multicast epoch
  kCount,
};
inline constexpr std::size_t kHistoCount =
    static_cast<std::size_t>(Histo::kCount);

[[nodiscard]] constexpr const char* to_string(Histo h) noexcept {
  switch (h) {
    case Histo::kBookDepth: return "book_depth";
    case Histo::kClearingPrice: return "clearing_price";
    case Histo::kFanoutTargets: return "fanout_targets";
    case Histo::kCount: break;
  }
  return "?";
}

/// Power-of-two bucket histogram: bucket i counts values in
/// [2^(i-1), 2^i), bucket 0 counts zeros, the last bucket is open.
struct Histogram {
  static constexpr std::size_t kBuckets = 16;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t total = 0;
  double sum = 0.0;

  void observe(double value) {
    const auto u =
        value <= 0.0 ? 0ull : static_cast<std::uint64_t>(value);
    std::size_t b = 0;
    while (b + 1 < kBuckets && (1ull << b) <= u) ++b;
    ++buckets[u == 0 ? 0 : b];
    ++total;
    sum += value;
  }
};

/// Number of core::MessageType values, i.e. the per-type ledger columns.
/// Kept here so obs does not include core; core/federation.cpp, which
/// fills the columns, asserts it equals core::kMessageTypeCount.
inline constexpr std::size_t kMessageTypeCount = 8;

/// One epoch snapshot of the registry plus the ledger totals.
struct MetricsSample {
  sim::SimTime t = 0.0;
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kGaugeCount> gauges{};
  std::array<std::uint64_t, kMessageTypeCount> msgs_by_type{};
  std::array<std::uint64_t, kMessageTypeCount> bytes_by_type{};
  std::uint64_t total_msgs = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t relay_msgs = 0;
};

class MetricsRegistry {
 public:
  /// Fills a sample's ledger columns from the authoritative
  /// MessageLedger, and its gauges; installed by the Federation at
  /// construction.
  using LedgerSampler = std::function<void(MetricsSample&)>;

  MetricsRegistry(std::size_t participants, sim::SimTime epoch);

  // ---- hot path -------------------------------------------------------------
  void count(Counter c, std::uint64_t n = 1) noexcept {
    counters_[static_cast<std::size_t>(c)] += n;
  }
  void observe(Histo h, double value) {
    histograms_[static_cast<std::size_t>(h)].observe(value);
  }
  void count_decline(std::size_t participant) noexcept {
    if (participant < declines_.size()) ++declines_[participant];
  }
  void count_miss(std::size_t participant) noexcept {
    if (participant < misses_.size()) ++misses_[participant];
  }

  // ---- sampling -------------------------------------------------------------
  void set_ledger_sampler(LedgerSampler sampler) {
    ledger_sampler_ = std::move(sampler);
  }
  /// Snapshots the counters, then the sampler's gauges and ledger
  /// columns, at sim-time `t` onto the series.
  void take_sample(sim::SimTime t);

  [[nodiscard]] sim::SimTime epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const Histogram& histogram(Histo h) const noexcept {
    return histograms_[static_cast<std::size_t>(h)];
  }
  [[nodiscard]] const std::vector<MetricsSample>& series() const noexcept {
    return series_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& declines() const noexcept {
    return declines_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& misses() const noexcept {
    return misses_;
  }

  /// Renders the whole registry — series, histograms, per-participant
  /// tallies — as a single JSON document.
  void write_json(std::ostream& out) const;

 private:
  sim::SimTime epoch_;
  std::array<std::uint64_t, kCounterCount> counters_{};
  std::array<Histogram, kHistoCount> histograms_{};
  std::vector<std::uint64_t> declines_;
  std::vector<std::uint64_t> misses_;
  std::vector<MetricsSample> series_;
  LedgerSampler ledger_sampler_;
};

}  // namespace gridfed::obs
