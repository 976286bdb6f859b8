#include "cluster/utilization.hpp"

namespace gridfed::cluster {

void UtilizationIntegrator::set_busy(sim::SimTime now,
                                     std::uint32_t busy) noexcept {
  // Contract relaxed to noexcept-friendly clamping: the LRMS is the only
  // caller and already guarantees busy <= capacity and monotone time.
  if (now > last_change_) {
    area_ += static_cast<double>(busy_now_) * (now - last_change_);
    last_change_ = now;
  }
  busy_now_ = busy;
}

double UtilizationIntegrator::busy_area(sim::SimTime now) const noexcept {
  double area = area_;
  if (now > last_change_) {
    area += static_cast<double>(busy_now_) * (now - last_change_);
  }
  return area;
}

double UtilizationIntegrator::utilization(sim::SimTime horizon) const noexcept {
  if (horizon <= 0.0 || capacity_ == 0) return 0.0;
  return busy_area(horizon) / (static_cast<double>(capacity_) * horizon);
}

}  // namespace gridfed::cluster
