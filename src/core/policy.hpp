// Scheduling policies (§3.3).
//
// Algorithm 1 computes outcome = (capacity − usage) − demand and asks
// apply_policy(outcome, resource) whether the period may run. The paper
// ships two configurations:
//   * RDA:Strict      — deny anything that would exceed capacity
//                       (outcome >= 0). Maximum resource efficiency.
//   * RDA:Compromise  — allow while usage + demand <= x × capacity, i.e.
//                       outcome >= −(x−1) × capacity, with x = 2 by default.
//                       Trades some efficiency for concurrency.
// "The policy allows users to specify that a certain amount of
//  oversubscription is allowed to provide more concurrency."
#pragma once

#include <memory>
#include <string>

#include "core/registry.hpp"
#include "core/resource_monitor.hpp"

namespace rda::core {

/// Named configurations used throughout the benches and tests.
enum class PolicyKind {
  kLinuxDefault,  ///< no admission control (baseline; gate never attached)
  kStrict,        ///< RDA: Strict
  kCompromise,    ///< RDA: Compromise (oversubscription factor x)
};

std::string to_string(PolicyKind kind);

/// apply_policy(outcome, resource) of Algorithm 1.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// `outcome` is remaining-after-admission (may be negative); `resource`
  /// carries capacity and current usage.
  virtual bool allow(double outcome, const ResourceState& resource) const = 0;

  /// Total aggregate demand this policy admits against `capacity` — the
  /// budget the striped resource monitor partitions across its stripes.
  /// allow(remaining − demand) ⟺ usage + demand ≤ admission_bound(capacity),
  /// which is what lets the lock-free fast lane replace the policy check
  /// with an atomic budget acquisition.
  virtual double admission_bound(double capacity) const { return capacity; }

  virtual std::string name() const = 0;
};

/// RDA:Strict — never oversubscribe.
class StrictPolicy final : public SchedulingPolicy {
 public:
  bool allow(double outcome, const ResourceState& resource) const override;
  std::string name() const override { return "RDA:Strict"; }
};

/// RDA:Compromise — allow up to factor × capacity of aggregate demand.
class CompromisePolicy final : public SchedulingPolicy {
 public:
  explicit CompromisePolicy(double oversubscription_factor = 2.0);
  bool allow(double outcome, const ResourceState& resource) const override;
  double admission_bound(double capacity) const override;
  std::string name() const override;
  double factor() const { return factor_; }

 private:
  double factor_;
};

/// Admits everything (useful for overhead-only measurements: the API calls
/// are made, the predicate always says yes).
class AlwaysAdmitPolicy final : public SchedulingPolicy {
 public:
  bool allow(double outcome, const ResourceState& resource) const override;
  double admission_bound(double capacity) const override;
  std::string name() const override { return "AlwaysAdmit"; }
};

/// Factory for the named configurations. kLinuxDefault maps to AlwaysAdmit
/// (callers normally just skip attaching the gate for the baseline).
std::unique_ptr<SchedulingPolicy> make_policy(PolicyKind kind,
                                              double oversubscription = 2.0);

}  // namespace rda::core
