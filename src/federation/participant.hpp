#pragma once
// The participant identity layer.  Everywhere below this header a market
// actor used to BE a cluster: `market::Bid::bidder`, the auction book's
// solicited set, the award target, the GridBank settlement beneficiary —
// all raw cluster::ResourceIndex.  The coalition extension (Guazzone et
// al.-style cooperative groups that bid as one and split the surplus)
// needs an actor that is *either* a single cluster *or* a registered
// group of clusters, so this header carves that seam out:
//
//  * a ParticipantId names one market participant.  Ids below
//    kCoalitionBase are *singletons* and equal the cluster's
//    ResourceIndex bit-for-bit — which is what keeps the solo path
//    (no coalitions registered) bit-identical to the pre-participant
//    code: every ordering, tie-break and hash that used to see a
//    ResourceIndex sees the same integer through the ParticipantId.
//  * a ParticipantRegistry maps clusters to their participant and a
//    participant to its members and its *representative* — the member
//    cluster that speaks for the group on the wire (group-addressed
//    dissemination delivers once to the representative; the intra-
//    coalition fan-out rides cheap local links).
//
// ParticipantId converts implicitly FROM a ResourceIndex (a cluster is
// always a participant) but never back: code that needs a wire address
// must go through ParticipantRegistry::representative(), which is
// exactly where the group-addressing decision lives.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/resource.hpp"

namespace gridfed::federation {

/// Coalition ids live in the top half of the 32-bit space so they can
/// never collide with a cluster index (a federation of 2^31 clusters is
/// far beyond any simulated run).
inline constexpr std::uint32_t kCoalitionBase = 0x8000'0000u;

/// One market participant: a singleton cluster (value == its
/// ResourceIndex) or a registered coalition (value >= kCoalitionBase).
struct ParticipantId {
  std::uint32_t value = static_cast<std::uint32_t>(-1);

  constexpr ParticipantId() = default;
  /// A cluster is always a participant (its singleton).  Implicit by
  /// design: the solo path flows ResourceIndex into the market layer
  /// unchanged, preserving bit-identical ordering and tie-breaking.
  constexpr ParticipantId(cluster::ResourceIndex cluster)  // NOLINT
      : value(cluster) {}

  [[nodiscard]] constexpr bool operator==(const ParticipantId&) const =
      default;
  [[nodiscard]] constexpr auto operator<=>(const ParticipantId&) const =
      default;

  /// True for a registered coalition id (never for a singleton or the
  /// no-participant sentinel).
  [[nodiscard]] constexpr bool is_coalition() const noexcept {
    return value >= kCoalitionBase &&
           value != static_cast<std::uint32_t>(-1);
  }
  /// The cluster of a singleton id.  Precondition: !is_coalition().
  [[nodiscard]] constexpr cluster::ResourceIndex cluster() const noexcept {
    return static_cast<cluster::ResourceIndex>(value);
  }
};

/// Dense array index of `id`: singletons and coalitions interleave
/// (cluster c -> 2c, coalition kCoalitionBase + k -> 2k + 1), so one
/// vector sized by the largest id in use indexes both kinds in O(1).
[[nodiscard]] constexpr std::size_t dense_index(ParticipantId id) noexcept {
  return id.value < kCoalitionBase
             ? 2 * static_cast<std::size_t>(id.value)
             : 2 * static_cast<std::size_t>(id.value - kCoalitionBase) + 1;
}

/// Sentinel mirroring cluster::kNoResource (and equal to its singleton,
/// so a defaulted "no cluster" flows through unchanged).
inline constexpr ParticipantId kNoParticipant{};

/// Who participates in the market: every cluster starts as its own
/// singleton; register_coalition() groups clusters under one id.  The
/// grouping is quasi-static — it only changes through the membership
/// layer's churn hooks (remove_member/add_member/set_representative),
/// never mid-protocol on its own.
class ParticipantRegistry {
 public:
  explicit ParticipantRegistry(std::size_t n_clusters);

  /// Groups `members` (distinct, previously-singleton clusters) under a
  /// fresh coalition id with `representative` (one of the members)
  /// speaking for it on the wire.  Returns the new id.
  ParticipantId register_coalition(std::vector<cluster::ResourceIndex> members,
                                   cluster::ResourceIndex representative);

  // -- membership churn ---------------------------------------------------
  /// Removes `member` from coalition `id`; the member reverts to its
  /// singleton.  Precondition: the coalition has at least one OTHER
  /// member — a coalition never empties (callers leave the last member
  /// in place; an all-departed group is never solicited anyway).  A
  /// removed representative must be replaced via set_representative()
  /// before the group's next wire interaction.
  void remove_member(ParticipantId id, cluster::ResourceIndex member);
  /// Re-admits `member` (currently a singleton) into coalition `id`,
  /// keeping ascending member order.
  void add_member(ParticipantId id, cluster::ResourceIndex member);
  /// Re-points the coalition's wire representative (must be a member).
  void set_representative(ParticipantId id, cluster::ResourceIndex member);

  /// The participant `resource` belongs to (its singleton when it joined
  /// no coalition).
  [[nodiscard]] ParticipantId participant_of(
      cluster::ResourceIndex resource) const;

  /// The member cluster addressed on the wire for `id` (a singleton
  /// represents itself).
  [[nodiscard]] cluster::ResourceIndex representative(ParticipantId id) const;

  /// Member clusters of `id`, ascending index order (a singleton's span
  /// is itself).
  [[nodiscard]] std::span<const cluster::ResourceIndex> members(
      ParticipantId id) const;

  /// True when `resource` represents its participant (always true for
  /// singletons).
  [[nodiscard]] bool is_representative(cluster::ResourceIndex resource) const {
    return representative(participant_of(resource)) == resource;
  }

  [[nodiscard]] std::size_t clusters() const noexcept {
    return identity_.size();
  }
  [[nodiscard]] std::size_t coalitions() const noexcept {
    return coalitions_.size();
  }
  /// Distinct market participants: singletons still on their own plus
  /// the registered coalitions.
  [[nodiscard]] std::size_t participants() const noexcept;

 private:
  struct Coalition {
    std::vector<cluster::ResourceIndex> members;  // ascending index
    cluster::ResourceIndex representative = cluster::kNoResource;
  };

  /// identity_[r] == r; members() of a singleton returns a 1-span into it.
  std::vector<cluster::ResourceIndex> identity_;
  std::vector<ParticipantId> participant_of_;  // by cluster
  std::vector<Coalition> coalitions_;
};

}  // namespace gridfed::federation
