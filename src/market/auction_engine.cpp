#include "market/auction_engine.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace gridfed::market {

AuctionBook::AuctionBook(cluster::JobId job,
                         std::vector<federation::ParticipantId> solicited)
    : job_(job),
      solicited_(std::move(solicited)),
      outstanding_(solicited_.size()) {
  index_solicited();
  bids_.reserve(solicited_.size());
}

void AuctionBook::reopen(cluster::JobId job,
                         std::span<const federation::ParticipantId> solicited) {
  for (const federation::ParticipantId pid : solicited_) {
    flags_[federation::dense_index(pid)] = 0;
  }
  job_ = job;
  solicited_.assign(solicited.begin(), solicited.end());
  outstanding_ = solicited_.size();
  pruned_ = 0;
  index_solicited();
  bids_.clear();
  bids_.reserve(solicited_.size());
}

void AuctionBook::index_solicited() {
  for (const federation::ParticipantId pid : solicited_) {
    GF_EXPECTS(pid != federation::kNoParticipant);
    const std::size_t key = federation::dense_index(pid);
    if (key >= flags_.size()) flags_.resize(key + 1, 0);
    flags_[key] = kSolicited;
  }
}

bool AuctionBook::answer(federation::ParticipantId bidder) {
  if (flags_of(bidder) != kSolicited) return false;  // unsolicited/duplicate
  flags_[federation::dense_index(bidder)] = kSolicited | kAnswered;
  --outstanding_;
  return true;
}

bool AuctionBook::add(const Bid& bid) {
  if (!answer(bid.bidder)) return false;
  bids_.push_back(bid);
  return true;
}

bool AuctionBook::add_pruned(federation::ParticipantId bidder) {
  if (!answer(bidder)) return false;  // also a re-delivered tombstone
  ++pruned_;
  return true;
}

std::vector<Award> AuctionEngine::clear(const cluster::Job& job,
                                        const std::vector<Bid>& bids) const {
  struct Scored {
    Bid bid;
    double score;
  };
  const JobQos qos = JobQos::of(job);
  std::vector<Scored> feasible;
  feasible.reserve(bids.size());
  for (const Bid& bid : bids) {
    GF_EXPECTS(bid.ask >= 0.0 || !bid.feasible);
    if (!scorer_.admissible(qos, bid)) continue;
    feasible.push_back(Scored{bid, scorer_.score(qos, bid)});
  }
  // Best score wins under the scorer's shared total order (score, ask,
  // completion guarantee, participant id), so clearing is deterministic
  // for any arrival order of the bids — and identical to the rank order
  // the pruning relays preserve.  (Singleton ids equal their cluster
  // index, so solo clearing orders exactly as the pre-participant
  // engine did.)
  std::sort(feasible.begin(), feasible.end(),
            [](const Scored& a, const Scored& b) {
              return BidScorer::rank_less(a.score, a.bid, b.score, b.bid);
            });

  std::vector<Award> ranking;
  ranking.reserve(feasible.size());
  for (std::size_t i = 0; i < feasible.size(); ++i) {
    double payment = feasible[i].bid.ask;
    if (rule_ == ClearingRule::kVickrey) {
      if (i + 1 < feasible.size()) {
        // Under a non-price score the next-ranked ask can undercut this
        // one; flooring at the own ask keeps the payment individually
        // rational (generalized second price, see file comment).
        payment = std::max(feasible[i].bid.ask, feasible[i + 1].bid.ask);
      } else if (scorer_.enforce_budget()) {
        // Lone (or last-ranked) bidder: the reserve price — the user's
        // budget — plays the second bid, as in a Vickrey auction with a
        // reserve.  Without budget enforcement there is no reserve and the
        // ask itself is the only defensible payment.
        payment = job.budget;
      }
    }
    ranking.push_back(Award{feasible[i].bid, payment});
  }
  return ranking;
}

}  // namespace gridfed::market
