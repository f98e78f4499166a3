// Resource monitor (§3.2): real-time estimation of hardware load.
//
// "A table is used to keep track of the current load level for the
//  resources, where an entry is allocated to each resource to save its
//  current usage level. The resource manager keeps the usage estimation
//  up-to-date any time a process enters or completes a progress period."
//
// Sharded-core edition: the single usage double per resource is split into
// kStripes cacheline-padded stripes so concurrent admissions do not bounce
// one cacheline. The admission bound — the policy factor times capacity:
// capacity for Strict, x·capacity for Compromise, +inf for the Linux
// default (see core/predicate.hpp) — is partitioned across the stripes as a
// *budget*: each stripe holds `free` headroom, and an admission succeeds by
// atomically taking `demand` out of the free pool (own stripe first, then
// stealing from siblings). Free is never negative — a FORCED charge
// (watchdog rung 2, liveness admit, pool group admit) takes whatever free
// exists and books the shortfall in a per-resource `overdraft` counter,
// which later releases pay down before refilling any free pool. The
// invariant
//
//     Σ usage[s] + Σ free[s] − overdraft == admission_bound   (finite bounds)
//
// makes "usage + demand <= bound" — exactly the Strict/Compromise predicate
// — equivalent to "the acquisition found enough free budget", without any
// global lock or any torn read of the aggregate: positive free is always
// genuinely grantable budget, even while forced admissions overshoot.
//
// The per-stripe version counters move on every load change (try_acquire,
// forced admissions, decrements). A parked pool's second look compares
// version() before and after its park to learn whether a lock-free release
// moved the budget meanwhile; version() sums the stripes (plus 1 so a fresh
// monitor matches the legacy epoch), and usage() reads the stripes under a
// bounded seqlock retry loop keyed on the same counters.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "common/types.hpp"

namespace rda::core {

/// Capacity + current aggregate demand of one hardware resource.
struct ResourceState {
  double capacity = 0.0;
  double usage = 0.0;

  double remaining() const { return capacity - usage; }
};

class ResourceMonitor {
 public:
  /// Stripe count. 16 matches the shard count of the sharded registry, so
  /// a thread's home shard maps one-to-one onto a budget stripe.
  static constexpr std::uint32_t kStripes = 16;

  ResourceMonitor();

  /// Configures the maximum capacity of a resource (e.g. LLC bytes from the
  /// machine description). Capacity must be positive before use. Resets the
  /// admission bound to `capacity` (Strict semantics) until
  /// set_admission_bound says otherwise.
  void set_capacity(ResourceKind kind, double capacity);

  /// Partitions `bound` (policy admission budget; may be +inf) across the
  /// stripes. Call after set_capacity, before concurrent use.
  void set_admission_bound(ResourceKind kind, double bound);
  double admission_bound(ResourceKind kind) const {
    return bounds_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }

  /// Snapshot of capacity + aggregate usage. By value: the aggregate is
  /// assembled from the stripes at call time.
  ResourceState state(ResourceKind kind) const;
  double capacity(ResourceKind kind) const {
    return capacities_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  /// Aggregate usage across stripes, read under a bounded seqlock retry
  /// loop: if the stripes keep churning the last (possibly slightly torn)
  /// sum is returned — admission skew from a torn advisory read is
  /// transient and self-correcting, a livelocked reader is not.
  double usage(ResourceKind kind) const;
  double remaining(ResourceKind kind) const {
    return capacity(kind) - usage(kind);
  }
  /// Aggregate unclaimed admission budget (plain sum; pair with usage()
  /// only at quiescence, e.g. in AdmissionCore::audit).
  double total_free(ResourceKind kind) const;

  /// Atomically claims `demand` of admission budget and charges it as usage
  /// on `stripe`. Tries the stripe's own free pool first, then steals the
  /// shortfall from sibling stripes; on failure every partial claim is
  /// rolled back and false is returned. This IS the Strict/Compromise
  /// predicate: it succeeds iff usage + demand <= admission_bound in some
  /// serialization of the concurrent admissions.
  bool try_acquire(ResourceKind kind, double demand, std::uint32_t stripe);

  /// Adds a progress period's demand to the active load (paper Fig. 5,
  /// "increment load value") WITHOUT consulting the budget — the forced
  /// path (watchdog rung 2, liveness admit, pool group admit). Whatever
  /// free budget exists is consumed; the shortfall is booked as overdraft,
  /// so free pools never go negative and try_acquire stays sound.
  void increment_load(ResourceKind kind, double demand,
                      std::uint32_t stripe = 0);

  /// Removes a completed period's demand (paper Fig. 6, "decrement load")
  /// from the stripe it was charged on. The returned budget pays down any
  /// overdraft first; the remainder refills that stripe's free pool. Checks
  /// the stripe's load never goes negative (up to floating-point dust,
  /// which is snapped to zero).
  void decrement_load(ResourceKind kind, double demand,
                      std::uint32_t stripe = 0);

  /// Budget overshoot from forced charges not yet repaid by releases.
  double overdraft(ResourceKind kind) const {
    return overdraft_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }

  /// Forced-oversubscription tally: load admitted by the watchdog BEYOND
  /// what the policy would allow. It rides on top of the ordinary usage
  /// (the load itself is still charged via increment_load) purely as an
  /// audit trail — the fault-matrix ledger asserts it returns to zero.
  void add_oversubscribed(ResourceKind kind, double demand);
  void remove_oversubscribed(ResourceKind kind, double demand);
  double oversubscribed(ResourceKind kind) const {
    return oversub_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }

  /// True when the resource carries no load beyond floating-point dust.
  /// Admission liveness decisions must use this, never `usage() > 0`: a
  /// long sequence of increment/decrement pairs at megabyte scale leaves
  /// residues of ~1e-2 bytes.
  bool effectively_free(ResourceKind kind) const;

  /// True when `demand` fits the admission bound on top of any dust the
  /// resource may carry while effectively free: a demand for which this is
  /// false can never be admitted by try_acquire once the resource is free.
  bool fits_when_free(ResourceKind kind, double demand) const {
    return demand + dust_threshold(kind) <= admission_bound(kind);
  }

  /// Bumped on every load change; the pool park's second look compares it
  /// across the park. Sum of the per-stripe counters (+1 to match the
  /// legacy initial epoch).
  std::uint64_t version() const;

 private:
  // One budget stripe. usage/free/version share a line on purpose: the
  // owning shard's admissions touch all three together, and different
  // stripes never share a line.
  struct alignas(64) Stripe {
    std::atomic<double> usage{0.0};
    std::atomic<double> free{0.0};
    std::atomic<std::uint64_t> version{0};
  };

  double dust_threshold(ResourceKind kind) const;
  std::uint64_t version_sum(ResourceKind kind) const;

  std::array<std::array<Stripe, kStripes>, kNumResourceKinds> stripes_{};
  std::array<std::atomic<double>, kNumResourceKinds> capacities_{};
  std::array<std::atomic<double>, kNumResourceKinds> bounds_{};
  std::array<std::atomic<double>, kNumResourceKinds> oversub_{};
  std::array<std::atomic<double>, kNumResourceKinds> overdraft_{};
};

}  // namespace rda::core
