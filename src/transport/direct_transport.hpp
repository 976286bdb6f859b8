#pragma once
// Point-to-point delivery — the paper's model, and bit-identical to the
// pre-transport Federation::send() seam (pinned by the golden digests in
// tests/test_transport.cpp): every message is recorded, runs the loss
// lottery, and arrives after the configured one-way delay.  A multicast
// is simply one unicast per target, in target order.

#include <optional>

#include "transport/transport.hpp"

namespace gridfed::transport {

class DirectTransport final : public Transport {
 public:
  DirectTransport(TransportContext& ctx,
                  std::optional<network::LatencyModel> wan)
      : Transport(ctx, std::move(wan)) {}

  void unicast(core::Message&& msg) override {
    direct_unicast(std::move(msg));
  }

  std::uint64_t multicast(core::Message&& msg,
                          std::span<const cluster::ResourceIndex> targets,
                          sim::SimTime not_after) override;
};

}  // namespace gridfed::transport
