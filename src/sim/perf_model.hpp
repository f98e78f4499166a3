// Per-thread execution-rate model.
//
// A thread in a phase retires flops at a rate set by how much of its working
// set is LLC-resident: misses add an exposed stall per line. A global DRAM
// bandwidth cap inflates everyone's effective stall when aggregate traffic
// oversubscribes memory (queueing), which produces the memory-bound plateau
// the paper observes in Fig. 13.
#pragma once

#include <limits>
#include <vector>

#include "common/types.hpp"
#include "sim/calibration.hpp"

namespace rda::sim {

/// Instantaneous rates of one running thread.
struct PhaseRate {
  double flops_per_sec = 0.0;
  double dram_bytes_per_sec = 0.0;       ///< all miss traffic
  double residency_bytes_per_sec = 0.0;  ///< reuse fills (grow occupancy)
  double streaming_bytes_per_sec = 0.0;  ///< pass-through traffic
};

/// Inputs for one running thread when solving the shared-bandwidth cap.
struct RateRequest {
  ReuseLevel reuse = ReuseLevel::kLow;
  double resident_fraction = 1.0;  ///< LLC occupancy / wss, in [0,1]
};

/// Uncontended rate (no bandwidth queueing).
PhaseRate compute_rate(const Calibration& calib, ReuseLevel reuse,
                       double resident_fraction);

/// Rates for a co-running set under the machine's DRAM bandwidth cap.
/// When aggregate traffic exceeds `bandwidth`, a common queueing factor q>=1
/// inflates every miss stall until traffic fits; q is found by bisection
/// (the aggregate is strictly decreasing in q). Compute-bound threads are
/// barely affected; memory-bound threads absorb the queueing.
std::vector<PhaseRate> compute_rates_capped(
    const Calibration& calib, const std::vector<RateRequest>& requests,
    double bandwidth);

/// Allocation-free form of compute_rates_capped for the simulator's inner
/// loop: per-thread miss terms are derived once per call (not once per
/// bisection probe) and both the term scratch and `out` keep their capacity
/// across calls. Bit-identical to the vector-returning function.
///
/// The bisection is guided: Newton's method first estimates the root r of
/// aggregate(q) = bandwidth, then the bracket-and-bisect loop runs with each
/// "aggregate(mid) > bandwidth" decided by the side of r that mid lies on,
/// computing the aggregate only for probes inside a guard band around r
/// (at least 1e-7 r wide: the last few halvings), far wider than the region
/// where floating-point rounding could flip the comparison. q is therefore
/// bit-identical to a bisection that computes every probe (DESIGN.md §4).
class RateSolver {
 public:
  void solve(const Calibration& calib,
             const std::vector<RateRequest>& requests, double bandwidth,
             std::vector<PhaseRate>& out);

 private:
  struct Term {
    double mpf = 0.0;         ///< total misses per flop
    double miss_seconds = 0.0;  ///< mpf * miss_stall (stall share at q=1)
  };

  /// Aggregate traffic at q and its slope, -d(aggregate)/dq.
  struct Probe {
    double aggregate = 0.0;
    double slope = 0.0;
  };
  /// Probes q in [lo, hi] are computed; below lo the aggregate exceeds the
  /// bandwidth, above hi it does not. The default band computes every probe.
  struct Band {
    double lo = 0.0;
    double hi = std::numeric_limits<double>::infinity();
  };

  double aggregate_traffic(const Calibration& calib, double q) const;
  Probe probe(const Calibration& calib, double q) const;
  /// Guard band around the Newton estimate of the root; the aggregate at
  /// q = 1 must be above the bandwidth.
  Band root_band(const Calibration& calib, double bandwidth) const;

  std::vector<Term> terms_;
};

}  // namespace rda::sim
