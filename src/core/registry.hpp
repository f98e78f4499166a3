// Progress-period registry (§3.1).
//
// "The progress monitor stores all active progress period information in a
//  registry, so the resource usage footprint of each progress period can be
//  removed from our environment after the period completes."
//
// pp_begin returns a PeriodId that uniquely identifies the period (paper
// Fig. 4 line 6); pp_end passes it back. Ids are never reused within a
// registry's lifetime so a stale pp_end is detected, not misattributed.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/ids.hpp"

namespace rda::core {

/// One declared demand of a progress period.
struct ResourceDemand {
  ResourceKind resource = ResourceKind::kLLC;
  double amount = 0.0;  ///< bytes for kLLC, bytes/second for kMemBandwidth
};

/// Everything the scheduler knows about one active progress period. A
/// period may target several resources at once (§3.2's per-resource load
/// table; the conclusion's "configurable to allow multiple hardware
/// resources to be targeted") — admission requires every declared demand to
/// fit its resource.
struct PeriodRecord {
  PeriodId id = kInvalidPeriod;
  sim::ThreadId thread = sim::kInvalidThread;
  sim::ProcessId process = sim::kInvalidProcess;
  std::vector<ResourceDemand> demands;
  ReuseLevel reuse = ReuseLevel::kLow;
  std::string label;
  /// Primary-resource demand as the caller DECLARED it, before
  /// counter-feedback correction and partition capping reshaped the charged
  /// amount; what observed hardware counters are compared against at
  /// release. 0 only for records built outside AdmissionCore.
  double declared_demand = 0.0;
  /// DRAM-bandwidth demand as DECLARED (before counter-feedback reshaped
  /// the charged amount); what observed bandwidth is compared against at
  /// release. 0 when the period declared none.
  double declared_bandwidth = 0.0;
  /// Lease epoch at begin (refreshed by heartbeat); sweep() reaps periods
  /// whose lease is older than the configured age.
  std::uint64_t lease_epoch = 0;
  /// Admitted by the watchdog's forced-oversubscription rung: its load is
  /// mirrored in the resource monitor's oversubscription tally and must be
  /// removed from both sides on release/reap.
  bool oversub = false;
  /// Currently admitted (load charged)? False while parked on a waitlist.
  /// Replaces the old monitor-side admitted set so the lock-free release
  /// path learns the period's fate from the record it removed.
  bool admitted = false;
  /// ResourceMonitor stripe this period's load was charged on; its pp_end
  /// must discharge the same stripe.
  std::uint32_t stripe = 0;

  /// Declares a single-resource period (the common, paper-default case).
  void set_single(ResourceKind resource, double amount) {
    demands = {{resource, amount}};
  }
  /// Adds one more targeted resource.
  void add_demand(ResourceKind resource, double amount) {
    demands.push_back({resource, amount});
  }
  /// Demand on one resource (0 when the period does not target it).
  double demand_for(ResourceKind resource) const {
    for (const ResourceDemand& d : demands) {
      if (d.resource == resource) return d.amount;
    }
    return 0.0;
  }
  /// The primary (first-declared) resource and demand — convenience for the
  /// single-resource call sites.
  ResourceKind primary_resource() const {
    return demands.empty() ? ResourceKind::kLLC : demands.front().resource;
  }
  double primary_demand() const {
    return demands.empty() ? 0.0 : demands.front().amount;
  }
};

/// One registry shard's live periods. A shard holds a handful at a time
/// (at most 14 live, 1–2 on average, across the perfbench workloads), so
/// records live in a slot array that is scanned linearly instead of hashed.
/// Slots have stable addresses: a record never moves while it is live and
/// a freed slot is reused by a later insert, so find() pointers stay valid
/// until their record is removed, and a steady state allocates nothing.
class PeriodRegistry {
 public:
  /// Ids are assigned first_id, first_id+stride, first_id+2·stride, … —
  /// the sharded registry gives each shard a distinct residue class so ids
  /// stay globally unique without cross-shard coordination.
  explicit PeriodRegistry(PeriodId first_id = 1, PeriodId stride = 1)
      : next_id_(first_id), stride_(stride) {}

  /// A copy would point into the source's slots; a move takes the slots'
  /// blocks along, so every live pointer stays valid.
  PeriodRegistry(const PeriodRegistry&) = delete;
  PeriodRegistry& operator=(const PeriodRegistry&) = delete;
  PeriodRegistry(PeriodRegistry&&) = default;
  PeriodRegistry& operator=(PeriodRegistry&&) = default;

  /// Registers a new active period; assigns and returns its unique id.
  /// Validates before moving: if it throws (nested begin, negative demand)
  /// the caller's record is untouched and still owns its demands.
  PeriodId insert(PeriodRecord&& record);

  /// nullptr if the id is not active.
  const PeriodRecord* find(PeriodId id) const;

  /// Mutable lookup for in-place reshaping (watchdog demand clamp, lease
  /// refresh). The id and thread keys must not be modified through this.
  PeriodRecord* find_mutable(PeriodId id);

  /// Removes and returns the record; throws util::CheckFailure if the id is
  /// unknown (double pp_end or a forged id).
  PeriodRecord remove(PeriodId id);

  std::size_t active_count() const { return live_.size(); }

  /// Active period of a given thread, if any (a thread can be inside at
  /// most one period at a time — periods do not nest in the paper's model).
  std::optional<PeriodId> active_for_thread(sim::ThreadId thread) const;

  /// Snapshot for diagnostics, sorted by id.
  std::vector<PeriodRecord> snapshot() const;

 private:
  /// Keys of one live record, kept apart from the record so a lookup scans
  /// one small contiguous array.
  struct Live {
    PeriodId id;
    sim::ThreadId thread;
    PeriodRecord* record;
  };

  /// Index into live_ of the record with this id; live_.size() if none.
  std::size_t index_of(PeriodId id) const;

  std::deque<PeriodRecord> slots_;   ///< grows only at the back: stable
  std::vector<PeriodRecord*> free_;  ///< vacated slots, reused first
  std::vector<Live> live_;           ///< one entry per live record
  PeriodId next_id_ = 1;
  PeriodId stride_ = 1;
};

}  // namespace rda::core
