#include "cluster/availability_profile.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace gridfed::cluster {

AvailabilityProfile::AvailabilityProfile(std::uint32_t capacity)
    : capacity_(capacity) {
  GF_EXPECTS(capacity > 0);
  steps_.push_back(Step{0.0, capacity});
}

std::size_t AvailabilityProfile::first_after(sim::SimTime t) const {
  const auto it = std::upper_bound(
      steps_.begin(), steps_.end(), t,
      [](sim::SimTime value, const Step& step) { return value < step.time; });
  return static_cast<std::size_t>(it - steps_.begin());
}

std::uint32_t AvailabilityProfile::available_at(sim::SimTime t) const {
  const std::size_t i = first_after(t);
  if (i == 0) return capacity_;  // before recorded history
  return steps_[i - 1].available;
}

sim::SimTime AvailabilityProfile::earliest_start(sim::SimTime not_before,
                                                 std::uint32_t procs,
                                                 sim::SimTime duration) const {
  GF_EXPECTS(procs > 0 && procs <= capacity_);
  GF_EXPECTS(duration >= 0.0);

  sim::SimTime candidate = not_before;
  // Walk the steps; whenever a step inside the candidate window dips below
  // `procs`, restart the window just after that step.
  std::size_t i = first_after(candidate);
  if (i != 0) --i;  // step in force at `candidate`
  const std::size_t n = steps_.size();
  for (; i < n; ++i) {
    const sim::SimTime seg_start = std::max(steps_[i].time, candidate);
    if (seg_start >= candidate + duration) break;  // window fully verified
    if (steps_[i].available < procs) {
      // Window fails here; candidate moves past this segment.
      GF_ENSURES(i + 1 < n);  // last segment has full capacity
      candidate = steps_[i + 1].time;
    }
  }
  return candidate;
}

std::size_t AvailabilityProfile::ensure_boundary(sim::SimTime t) {
  const auto it = std::lower_bound(
      steps_.begin(), steps_.end(), t,
      [](const Step& step, sim::SimTime value) { return step.time < value; });
  const auto i = static_cast<std::size_t>(it - steps_.begin());
  if (i < steps_.size() && steps_[i].time == t) return i;
  // Value in force just before t.
  const std::uint32_t value = (i == 0) ? capacity_ : steps_[i - 1].available;
  steps_.insert(it, Step{t, value});
  return i;
}

void AvailabilityProfile::reserve(sim::SimTime start, sim::SimTime end,
                                  std::uint32_t procs) {
  GF_EXPECTS(procs > 0 && procs <= capacity_);
  GF_EXPECTS(start <= end);
  if (start == end) return;  // zero-length reservation is a no-op

  const std::size_t first = ensure_boundary(start);
  ensure_boundary(end);  // lies after `first`, so that index stays valid
  for (std::size_t i = first; i < steps_.size() && steps_[i].time < end;
       ++i) {
    GF_EXPECTS(steps_[i].available >= procs);  // caller verified the window
    steps_[i].available -= procs;
  }
}

void AvailabilityProfile::release(sim::SimTime start, sim::SimTime end,
                                  std::uint32_t procs) {
  GF_EXPECTS(procs > 0 && procs <= capacity_);
  GF_EXPECTS(start <= end);
  if (start == end) return;

  const std::size_t first = ensure_boundary(start);
  ensure_boundary(end);
  for (std::size_t i = first; i < steps_.size() && steps_[i].time < end;
       ++i) {
    GF_EXPECTS(steps_[i].available + procs <= capacity_);  // match a reserve
    steps_[i].available += procs;
  }
}

void AvailabilityProfile::trim(sim::SimTime now) {
  std::size_t i = first_after(now);
  if (i == 0) return;
  --i;  // step in force at `now`
  if (i == 0) return;
  // Re-anchor the in-force step at `now` and drop everything earlier.
  steps_[i].time = now;
  steps_.erase(steps_.begin(),
               steps_.begin() + static_cast<std::ptrdiff_t>(i));
}

bool AvailabilityProfile::valid() const {
  if (steps_.empty()) return false;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (steps_[i].available > capacity_) return false;
    if (i > 0 && !(steps_[i - 1].time < steps_[i].time)) return false;
  }
  return steps_.back().available == capacity_;
}

}  // namespace gridfed::cluster
