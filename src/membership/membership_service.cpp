#include "membership/membership_service.hpp"

#include <algorithm>
#include <utility>

#include "sim/check.hpp"

namespace gridfed::membership {

MembershipService::MembershipService(MembershipContext& ctx)
    : ctx_(ctx),
      opts_(ctx.config().membership),
      crashed_(ctx.sites(), 0),
      left_(ctx.sites(), 0),
      confirmed_(ctx.sites(), 0),
      rng_(sim::Rng::stream(ctx.config().seed, "membership")) {
  GF_EXPECTS(opts_.active());
  GF_EXPECTS(opts_.gossip_period > 0.0);
  GF_EXPECTS(opts_.gossip_fanout >= 1);
  GF_EXPECTS(opts_.suspect_after >= 1 && opts_.dead_after >= 1);
  const std::size_t n = ctx.sites();
  views_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    views_.emplace_back(n, static_cast<cluster::ResourceIndex>(i));
  }
}

void MembershipService::start() {
  sim::SimTime last_churn = 0.0;
  for (const ChurnEvent& ev : opts_.churn.events) {
    GF_EXPECTS(ev.site < views_.size());
    GF_EXPECTS(ev.time > 0.0);
    last_churn = std::max(last_churn, ev.time);
    const ChurnEvent event = ev;
    ctx_.sim().schedule_at(ev.time, sim::EventPriority::kControl,
                           [this, event] { apply(event); });
  }
  horizon_ = std::max(ctx_.config().window, last_churn) +
             opts_.confirmation_bound();
  ctx_.sim().schedule_at(opts_.gossip_period, sim::EventPriority::kControl,
                         [this] { run_round(); });
}

std::size_t MembershipService::live_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < crashed_.size(); ++i) {
    if (live(static_cast<cluster::ResourceIndex>(i))) ++n;
  }
  return n;
}

void MembershipService::run_round() {
  ++round_;
  ++tel_.rounds;
  GF_OBS(ctx_.observer(), count(obs::Counter::kGossipRounds));
  const std::size_t n = views_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto site = static_cast<cluster::ResourceIndex>(i);
    if (!live(site)) continue;
    views_[i].beat(round_);
    scratch_transitions_.clear();
    views_[i].advance(round_, opts_.suspect_after, opts_.dead_after,
                      scratch_transitions_);
    note_transitions(site);
    push_to_partners(site);
  }
  const sim::SimTime next = ctx_.sim().now() + opts_.gossip_period;
  if (next <= horizon_) {
    ctx_.sim().schedule_at(next, sim::EventPriority::kControl,
                           [this] { run_round(); });
  }
}

void MembershipService::push_to_partners(cluster::ResourceIndex from) {
  const MembershipView& view = views_[from];
  scratch_candidates_.clear();
  for (std::size_t j = 0; j < view.size(); ++j) {
    const auto peer = static_cast<cluster::ResourceIndex>(j);
    if (peer == from) continue;
    const MemberStatus believed = view.status(peer);
    if (believed == MemberStatus::kAlive ||
        believed == MemberStatus::kSuspect) {
      scratch_candidates_.push_back(peer);
    }
  }
  const std::size_t picks = std::min<std::size_t>(opts_.gossip_fanout,
                                                  scratch_candidates_.size());
  for (std::size_t k = 0; k < picks; ++k) {
    // Partial Fisher–Yates: distinct partners, uniform, one draw each.
    const std::size_t limit = scratch_candidates_.size() - 1 - k;
    const auto at = static_cast<std::size_t>(rng_.uniform_int(0, limit));
    std::swap(scratch_candidates_[at], scratch_candidates_[limit]);
    send_digest(from, scratch_candidates_[limit], /*pull_reply=*/false);
  }
}

void MembershipService::send_digest(cluster::ResourceIndex from,
                                    cluster::ResourceIndex to,
                                    bool pull_reply) {
  core::Message msg;
  msg.type = core::MessageType::kGossip;
  msg.from = from;
  msg.to = to;
  // The answering half of push-pull carries accept=true so the receiver
  // does not answer again.
  msg.accept = pull_reply;
  // The ledger classifies by job.origin; a digest is the sender's own
  // traffic.
  msg.job.origin = from;
  views_[from].fill_digest(msg.gossip);
  ++tel_.gossip_messages;
  ctx_.send(std::move(msg));
}

void MembershipService::on_gossip(const core::Message& msg) {
  GF_EXPECTS(msg.type == core::MessageType::kGossip);
  GF_EXPECTS(msg.to < views_.size());
  if (!live(msg.to)) return;  // departed members are out of the protocol
  scratch_transitions_.clear();
  views_[msg.to].merge(msg.gossip, round_, scratch_transitions_);
  note_transitions(msg.to);
  // Pull half of push-pull anti-entropy: answer a push with our digest
  // (delivery to a since-crashed pusher is suppressed at the sink).
  if (!msg.accept) send_digest(msg.to, msg.from, /*pull_reply=*/true);
}

void MembershipService::note_transitions(
    [[maybe_unused]] cluster::ResourceIndex observer_site) {
  for (const auto& [subject, status] : scratch_transitions_) {
    ++tel_.suspicions;
    GF_OBS(ctx_.observer(), count(obs::Counter::kSuspicions));
    GF_OBS(ctx_.observer(),
           instant(ctx_.sim().now(), obs::SpanKind::kSuspicion,
                   observer_site, subject, subject,
                   status == MemberStatus::kSuspect ? 1 : 2));
    if (status == MemberStatus::kDead) maybe_confirm(subject);
  }
}

void MembershipService::maybe_confirm(cluster::ResourceIndex subject) {
  if (confirmed_[subject] != 0) return;
  // Only a genuine crash confirms: a live member refutes the rumor with
  // a higher incarnation, a left member already departed cooperatively.
  if (crashed_[subject] == 0) return;
  confirmed_[subject] = 1;
  ++tel_.confirmations;
  GF_OBS(ctx_.observer(), count(obs::Counter::kDeadConfirmed));
  ctx_.member_confirmed_dead(subject);
}

void MembershipService::apply(const ChurnEvent& ev) {
  ++tel_.churn_applied;
  GF_OBS(ctx_.observer(), count(obs::Counter::kChurnEvents));
  GF_OBS(ctx_.observer(),
         instant(ctx_.sim().now(), obs::SpanKind::kChurn, ev.site, ev.site,
                 ev.site, static_cast<std::uint64_t>(ev.kind)));
  switch (ev.kind) {
    case ChurnKind::kCrash: {
      if (!live(ev.site)) return;  // already gone: nothing to kill
      crashed_[ev.site] = 1;
      ctx_.churn_crash(ev.site);
      return;
    }
    case ChurnKind::kLeave: {
      if (!live(ev.site)) return;
      left_[ev.site] = 1;
      // Courtesy announcement: the leaver pushes its kLeft record (with
      // a bumped incarnation, beating circulating alive records) to its
      // partners on the way out.
      views_[ev.site].declare_left();
      const cluster::ResourceIndex from = ev.site;
      const MembershipView& view = views_[from];
      scratch_candidates_.clear();
      for (std::size_t j = 0; j < view.size(); ++j) {
        const auto peer = static_cast<cluster::ResourceIndex>(j);
        if (peer != from && view.status(peer) == MemberStatus::kAlive) {
          scratch_candidates_.push_back(peer);
        }
      }
      const std::size_t picks = std::min<std::size_t>(
          opts_.gossip_fanout, scratch_candidates_.size());
      for (std::size_t k = 0; k < picks; ++k) {
        const std::size_t limit = scratch_candidates_.size() - 1 - k;
        const auto at = static_cast<std::size_t>(rng_.uniform_int(0, limit));
        std::swap(scratch_candidates_[at], scratch_candidates_[limit]);
        send_digest(from, scratch_candidates_[limit], /*pull_reply=*/true);
      }
      ctx_.churn_leave(ev.site);
      return;
    }
    case ChurnKind::kJoin: {
      if (live(ev.site)) return;  // never departed: nothing to do
      crashed_[ev.site] = 0;
      left_[ev.site] = 0;
      confirmed_[ev.site] = 0;
      // Rejoin under an incarnation above anything any view has seen, so
      // the fresh alive record beats every circulating dead/left one.
      std::uint32_t seen = 0;
      for (const MembershipView& view : views_) {
        seen = std::max(seen, view.incarnation(ev.site));
      }
      views_[ev.site].resurrect(seen + 1, round_);
      ctx_.churn_join(ev.site);
      return;
    }
  }
}

}  // namespace gridfed::membership
