// Scheduling predicate (§3.3, Algorithm 1).
//
//   function TrySchedule(pp, resource)
//     remaining <- resource.capacity - resource.usage
//     outcome   <- remaining - pp.demand
//     runnable  <- apply_policy(outcome, resource)
//     if runnable then increment_load(pp.demand); schedule(get_process(pp))
//     else waitlist(pp)
//
// A period declares a vector of {resource, amount} demands; Algorithm 1 runs
// on each row under the one configured policy, and the period is admitted
// only when every row fits. This class is the pure decision + load update;
// queueing the loser is the progress monitor's job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/policy.hpp"
#include "core/registry.hpp"
#include "core/resource_monitor.hpp"

namespace rda::core {

class SchedulingPredicate {
 public:
  /// Non-owning references; both must outlive the predicate.
  SchedulingPredicate(const SchedulingPolicy& policy,
                      ResourceMonitor& resources)
      : policy_(&policy), resources_(&resources) {}

  /// Algorithm 1 on every row, with an all-or-nothing charge: on admit each
  /// declared demand is charged on `stripe` (reversible by one
  /// decrement_load per demand); on deny the load table is exactly as it
  /// was (partial claims rolled back).
  ///
  /// apply_policy(remaining − demand) ⟺ usage + demand ≤ admission_bound for
  /// every shipped policy (Strict: bound = capacity; Compromise:
  /// x·capacity; AlwaysAdmit: +inf), so the check-then-increment is an
  /// atomic budget acquisition per row — the same code whether the caller
  /// holds the slow-lane lock or is racing through the lock-free lane.
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

  /// Decision only, no load change: the check try_schedule performs. Used
  /// by wake strategies to enumerate fitting waitlist candidates and for
  /// group (thread-pool) checks, where the pool's summed per-resource
  /// demands are the vector. A pure read that never passes where a
  /// serialized try_schedule against the same state would fail — the
  /// rescan relies on would_admit ⇒ try_schedule under the slow-lane lock.
  bool would_admit(const std::vector<ResourceDemand>& demands) const {
    for (const ResourceDemand& d : demands) {
      const ResourceState& res = resources_->state(d.resource);
      if (!policy_->allow(res.remaining() - d.amount, res)) return false;
    }
    return true;
  }
  bool would_admit(const PeriodRecord& pp) const {
    return would_admit(pp.demands);
  }

 private:
  const SchedulingPolicy* policy_;
  ResourceMonitor* resources_;
};

}  // namespace rda::core
