#pragma once
// Dynamic-membership configuration.  The seed federation (and the paper)
// fixes the roster at construction; this header adds the knobs that let a
// run inject joins, cooperative leaves, and crashes mid-window, plus the
// gossip cadence used to detect them (membership_view.hpp).
//
// Kept dependency-free below sim/cluster so core/config.hpp can embed a
// MembershipOptions by value: everything membership-related in a run is
// declared up front, which is what keeps churn-off runs bit-identical to
// the static seed (no schedule, no gossip events, no extra RNG draws).

#include <cstdint>
#include <vector>

#include "cluster/resource.hpp"
#include "sim/types.hpp"

namespace gridfed::membership {

enum class ChurnKind : std::uint8_t {
  kJoin = 0,   ///< a previously departed member re-enters the federation
  kLeave = 1,  ///< cooperative departure: announced, in-flight work drains
  kCrash = 2,  ///< fail-stop: the site goes silent, peers must detect it
};

[[nodiscard]] constexpr const char* to_string(ChurnKind kind) noexcept {
  switch (kind) {
    case ChurnKind::kJoin:
      return "join";
    case ChurnKind::kLeave:
      return "leave";
    case ChurnKind::kCrash:
      return "crash";
  }
  return "?";
}

/// One scripted membership change.  Times are absolute simulation
/// seconds; events at the same instant apply in schedule order.
struct ChurnEvent {
  sim::SimTime time = 0.0;
  cluster::ResourceIndex site = 0;
  ChurnKind kind = ChurnKind::kCrash;
};

/// The run's scripted churn.  Deterministic by construction — the
/// schedule is part of the config, not drawn at runtime — so a churn run
/// replays exactly like any other gridfed experiment.
struct ChurnSchedule {
  std::vector<ChurnEvent> events;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
};

/// Gossip/failure-detector knobs plus the churn script.
struct MembershipOptions {
  /// Run the gossip rounds even with an empty churn schedule (lets a
  /// test observe pure dissemination).  A non-empty schedule implies
  /// the subsystem regardless.
  bool enabled = false;

  /// Seconds between anti-entropy rounds.
  sim::SimTime gossip_period = 120.0;

  /// Distinct partners each member pushes its digest to per round (the
  /// partner pulls back, SWIM-style push-pull).
  std::uint32_t gossip_fanout = 2;

  /// Rounds without a fresher heartbeat before a member is suspected.
  std::uint32_t suspect_after = 4;

  /// Further stale rounds before a suspect is declared dead.
  std::uint32_t dead_after = 3;

  ChurnSchedule churn;

  [[nodiscard]] bool active() const noexcept {
    return enabled || !churn.empty();
  }

  /// Upper bound on crash → federation-wide confirmation: every live
  /// view's own staleness clock trips within suspect_after + dead_after
  /// rounds of the last heartbeat it heard, plus slack for round
  /// alignment and heartbeat propagation.
  [[nodiscard]] sim::SimTime confirmation_bound() const noexcept {
    return static_cast<sim::SimTime>(suspect_after + dead_after + 4) *
           gossip_period;
  }
};

}  // namespace gridfed::membership
