// EventQueue cold paths: the heap↔ladder migrations and the structural
// self-check.  The push/pop hot loop is header-inline
// (event_queue_inl.hpp).

#include "sim/event_queue.hpp"

#include "sim/check.hpp"

namespace gridfed::sim {

void EventQueue::migrate_to_ladder() {
  migrate_scratch_.clear();
  heap_.drain_into(migrate_scratch_);
  ladder_.build_from(migrate_scratch_);
  spilled_ = true;
}

void EventQueue::migrate_to_heap() {
  migrate_scratch_.clear();
  ladder_.drain_into(migrate_scratch_);
  heap_.build_from(migrate_scratch_);
  spilled_ = false;
}

bool EventQueue::consistent() {
  if (!(spilled_ ? heap_.empty() : ladder_.empty())) return false;
  if (empty()) return next_time_ == kTimeInfinity;
  if (spilled_ && !ladder_.min_materialized()) {
    // A fresh Top batch with no bucket sorted yet: deriving the true min
    // would force a sort the hot path deliberately defers.  The cached
    // value is maintained by the push-side min-fold; the cross-check
    // resumes at the next pop.
    return true;
  }
  const FelKey m = spilled_ ? ladder_.materialized_min() : heap_.min_key();
  return next_time_ == fel_time_of(m);
}

void EventQueue::debug_validate() {
  if (spilled_) ladder_.debug_validate();
  GF_ENSURES(consistent());
}

}  // namespace gridfed::sim
