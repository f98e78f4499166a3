// Counter-feedback demand correction (extension).
//
// The paper's related-work discussion proposes combining demand-aware
// scheduling with real-time hardware counters: "using real-time hardware
// counters to determine current resource usage, in combination with demand
// aware scheduling, would be able to schedule processes much more
// efficiently ... and is therefore a subject to explore in later work."
//
// This module implements that hybrid: each completed period's observed peak
// usage (the counter view) is compared with its declared demand, and future
// instances of the same period — identified by its label, i.e. its static
// code location, which the paper argues is the stable key — are charged a
// corrected demand. Over-declaring code stops wasting capacity;
// under-declaring code stops thrashing its neighbours. The ratio update
// is update_usage_ratio below, the one rule TenantLedger also runs.
//
// Vector demands (PR 8) made declarations multi-resource, so correction
// state is kept per (label, resource kind): a loop that over-declares its
// LLC working set but nails its DRAM bandwidth gets its LLC charge shrunk
// without its bandwidth charge moving, and vice versa. The kind-less
// overloads are the original LLC-only API and keep every existing call
// site and trace bit-identical.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/types.hpp"

namespace rda::core {

/// The one usage-ratio rule behind both demand estimators — DemandCorrector
/// (per label, here) and TenantLedger (per tenant): the decayed running max
/// of observed/declared. Shrinking a demand is only safe once several
/// consecutive observations confirm the period really uses less than
/// declared, so the state relaxes by `decay` per observation. A
/// `lower_bound` observation (the resource was saturated, so the peak may
/// understate the period's appetite) may only grow the value. Each caller
/// decides what counts as a lower bound and keeps its own clamps and gating.
inline double update_usage_ratio(double current, double observed_ratio,
                                 double decay, bool lower_bound) {
  return lower_bound ? std::max(current, observed_ratio)
                     : std::max(observed_ratio, current * decay);
}

struct FeedbackOptions {
  bool enable = false;
  /// Per-observation decay of the correction state toward new evidence.
  /// The state tracks the MAXIMUM observed usage ratio with this decay:
  /// shrinking a demand is only safe once several consecutive observations
  /// confirm the period really uses less than declared (a contended period
  /// may simply have been unable to grow its occupancy).
  double decay = 0.90;
  /// Clamp on the correction factor.
  static constexpr double kMinCorrection = 0.25;
  static constexpr double kMaxCorrection = 4.0;
  /// Observations required before a correction is applied (per kind).
  std::uint32_t min_samples = 2;
};

class DemandCorrector {
 public:
  explicit DemandCorrector(FeedbackOptions options = {});

  /// Multiplier to apply to the declared demand of a period with this
  /// label on this resource kind; 1.0 while unknown or under-sampled.
  double correction(const std::string& label, ResourceKind kind) const;
  /// LLC shorthand (the original single-resource API).
  double correction(const std::string& label) const {
    return correction(label, ResourceKind::kLLC);
  }

  /// Records one completed period on one resource kind: what it declared vs
  /// the peak usage the counters saw. `contended` should be true when the
  /// resource was saturated while the period ran (its peak is then a lower
  /// bound, not a measurement, and must not shrink the correction).
  void observe(const std::string& label, ResourceKind kind,
               double declared_demand, double observed_peak, bool contended);
  /// LLC shorthand (the original single-resource API).
  void observe(const std::string& label, double declared_demand,
               double observed_peak, bool contended) {
    observe(label, ResourceKind::kLLC, declared_demand, observed_peak,
            contended);
  }

  std::size_t tracked_labels() const { return states_.size(); }
  std::uint64_t observations() const { return observations_; }
  const FeedbackOptions& options() const { return options_; }

 private:
  struct State {
    double ratio = 1.0;  ///< decayed max of observed/declared
    std::uint32_t samples = 0;
  };

  FeedbackOptions options_;
  /// One independent correction state per resource kind under each label.
  std::unordered_map<std::string, std::array<State, kNumResourceKinds>>
      states_;
  std::uint64_t observations_ = 0;
};

}  // namespace rda::core
