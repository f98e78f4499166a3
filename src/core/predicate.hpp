// Scheduling predicate (§3.3, Algorithm 1).
//
//   function TrySchedule(pp, resource)
//     remaining <- resource.capacity - resource.usage
//     outcome   <- remaining - pp.demand
//     runnable  <- apply_policy(outcome, resource)
//     if runnable then increment_load(pp.demand); schedule(get_process(pp))
//     else waitlist(pp)
//
// apply_policy has one parameter, the oversubscription factor x: a period
// may run while usage + demand <= x × capacity, i.e. outcome >= −(x−1) ×
// capacity. The paper ships two configurations:
//   * RDA:Strict      — x = 1: deny anything that would exceed capacity.
//                       Maximum resource efficiency.
//   * RDA:Compromise  — x >= 1, 2 by default. "The policy allows users to
//                       specify that a certain amount of oversubscription
//                       is allowed to provide more concurrency."
// The Linux-default baseline is x = +inf: every period runs.
//
// A period declares a vector of {resource, amount} demands; Algorithm 1 runs
// on each row under the one factor, and the period is admitted only when
// every row fits. This class is the pure decision + load update; queueing
// the loser is the progress monitor's job.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/resource_monitor.hpp"
#include "util/check.hpp"

namespace rda::core {

/// Named configurations used throughout the benches and tests.
enum class PolicyKind {
  kLinuxDefault,  ///< no admission control (baseline; gate never attached)
  kStrict,        ///< RDA: Strict
  kCompromise,    ///< RDA: Compromise (oversubscription factor x)
};

inline std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLinuxDefault: return "Linux default";
    case PolicyKind::kStrict: return "RDA:Strict";
    case PolicyKind::kCompromise: return "RDA:Compromise";
  }
  return "?";
}

/// The oversubscription factor of a configuration: Strict 1, Compromise x,
/// Linux default +inf (admit anything).
inline double policy_factor(PolicyKind kind, double oversubscription) {
  switch (kind) {
    case PolicyKind::kStrict: return 1.0;
    case PolicyKind::kCompromise:
      RDA_CHECK_MSG(oversubscription >= 1.0,
                    "oversubscription factor below 1 is stricter than "
                    "Strict; use PolicyKind::kStrict");
      return oversubscription;
    case PolicyKind::kLinuxDefault: break;
  }
  return std::numeric_limits<double>::infinity();
}

class SchedulingPredicate {
 public:
  /// `factor` as policy_factor returns it; `resources` is non-owning and
  /// must outlive the predicate.
  SchedulingPredicate(double factor, ResourceMonitor& resources)
      : factor_(factor), resources_(&resources) {}

  /// The aggregate demand the factor admits against `capacity`: the budget
  /// the striped resource monitor partitions across its stripes. +inf for
  /// an infinite factor whatever the capacity.
  double bound(double capacity) const {
    return std::isinf(factor_) ? factor_ : factor_ * capacity;
  }

  /// Algorithm 1 on every row, with an all-or-nothing charge: on admit each
  /// declared demand is charged on `stripe` (reversible by one
  /// decrement_load per demand); on deny the load table is exactly as it
  /// was (partial claims rolled back).
  ///
  /// apply_policy(remaining − demand) ⟺ usage + demand ≤ factor × capacity,
  /// the admission bound the resource monitor partitions across its
  /// stripes, so the check-then-increment is an atomic budget acquisition
  /// per row — the same code whether the caller holds the slow-lane lock or
  /// is racing through the lock-free lane.
  bool try_schedule(const std::vector<ResourceDemand>& demands,
                    std::uint32_t stripe) {
    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (!resources_->try_acquire(demands[i].resource, demands[i].amount,
                                   stripe)) {
        for (std::size_t j = 0; j < i; ++j) {
          resources_->decrement_load(demands[j].resource, demands[j].amount,
                                     stripe);
        }
        return false;
      }
    }
    return true;
  }
  bool try_schedule(const PeriodRecord& pp) {
    return try_schedule(pp.demands, pp.stripe);
  }

  /// Decision only, no load change: apply_policy on every row. Used by wake
  /// strategies to enumerate fitting waitlist candidates and for group
  /// (thread-pool) checks, where the pool's summed per-resource demands are
  /// the vector. A pure read that never passes where a serialized
  /// try_schedule against the same state would fail — the rescan relies on
  /// would_admit ⇒ try_schedule under the slow-lane lock.
  bool would_admit(const std::vector<ResourceDemand>& demands) const {
    if (std::isinf(factor_)) return true;
    for (const ResourceDemand& d : demands) {
      const ResourceState res = resources_->state(d.resource);
      if (!(res.remaining() - d.amount >= -(factor_ - 1.0) * res.capacity)) {
        return false;
      }
    }
    return true;
  }
  bool would_admit(const PeriodRecord& pp) const {
    return would_admit(pp.demands);
  }

 private:
  double factor_;
  ResourceMonitor* resources_;
};

}  // namespace rda::core
