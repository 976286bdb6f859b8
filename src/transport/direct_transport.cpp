#include "transport/direct_transport.hpp"

#include <utility>

namespace gridfed::transport {

std::uint64_t DirectTransport::multicast(
    core::Message&& msg, std::span<const cluster::ResourceIndex> targets,
    sim::SimTime not_after) {
  (void)not_after;  // point-to-point sends nothing later than now
  targets = collapse_groups(targets);  // one delivery per participant
  for (std::size_t i = 0; i < targets.size(); ++i) {
    msg.to = targets[i];
    if (i + 1 == targets.size()) {
      direct_unicast(std::move(msg));
    } else {
      direct_unicast(core::Message(msg));  // shares the arena-backed batch
    }
  }
  return targets.size();
}

}  // namespace gridfed::transport
