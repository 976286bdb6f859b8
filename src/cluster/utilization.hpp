#pragma once
// Utilization integration.  Tracks busy processor-seconds of a cluster over
// simulated time so that "average resource utilization (%)" — the headline
// per-resource metric of Tables 2/3 and Figure 4 — is an exact integral,
// not a sampled approximation.

#include <cstdint>

#include "sim/types.hpp"

namespace gridfed::cluster {

/// Exact integral of (busy processors / total processors) dt.
///
/// The LRMS reports every change in the number of busy processors via
/// `set_busy`; the integrator accumulates the piecewise-constant integral.
/// Utilization over [0, t_end] is busy-area / (capacity * t_end).
class UtilizationIntegrator {
 public:
  explicit UtilizationIntegrator(std::uint32_t capacity) noexcept
      : capacity_(capacity) {}

  /// Records that from `now` onwards, `busy` processors are in use.
  /// Calls must have non-decreasing `now`.
  void set_busy(sim::SimTime now, std::uint32_t busy) noexcept;

  /// Busy processor-seconds accumulated in [0, now] (after flushing the
  /// current segment up to `now`).
  [[nodiscard]] double busy_area(sim::SimTime now) const noexcept;

  /// Mean utilization in [0, horizon] as a fraction in [0, 1].
  [[nodiscard]] double utilization(sim::SimTime horizon) const noexcept;

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

 private:
  std::uint32_t capacity_;
  std::uint32_t busy_now_ = 0;
  sim::SimTime last_change_ = 0.0;
  double area_ = 0.0;
};

}  // namespace gridfed::cluster
