#include "core/admission.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace rda::core {

AdmissionCore::AdmissionCore(AdmissionConfig config)
    : config_(config),
      predicate_(policy_factor(config.policy, config.oversubscription),
                 resources_),
      monitor_(predicate_, resources_, config.monitor),
      corrector_(config.feedback) {
  // Every configured resource's budget is the one policy factor's bound on
  // its capacity. Unconfigured kinds keep a zero budget — callers only
  // declare demands on configured resources.
  const auto configure = [&](ResourceKind kind, double capacity) {
    resources_.set_capacity(kind, capacity);
    resources_.set_admission_bound(kind, predicate_.bound(capacity));
  };
  configure(ResourceKind::kLLC, config_.llc_capacity_bytes);
  if (config_.bandwidth_capacity > 0.0) {
    configure(ResourceKind::kMemBandwidth, config_.bandwidth_capacity);
  }
  if (config_.energy_capacity_watts > 0.0) {
    configure(ResourceKind::kEnergyBudget, config_.energy_capacity_watts);
  }
  monitor_.set_trace_sink(config_.trace_sink);
}

void AdmissionCore::trace(obs::EventKind kind, double now,
                          const PeriodRecord& record) {
  if (config_.trace_sink == nullptr) return;
  obs::Event e;
  e.time = now;
  e.kind = kind;
  e.thread = record.thread;
  e.process = record.process;
  e.period = record.id;
  e.resource = record.primary_resource();
  e.demand = record.primary_demand();
  e.set_label(record.label);
  config_.trace_sink->record(e);
}

bool AdmissionCore::partition_on_entry(ResourceDemand& primary,
                                       AdmitTicket& ticket) const {
  if (config_.feedback.enable || primary.resource != ResourceKind::kLLC ||
      !config_.partitioning.enable ||
      primary.amount <= resources_.capacity(ResourceKind::kLLC)) {
    return false;
  }
  ticket.occupancy_cap = PartitionOptions::kStreamingFraction *
                         resources_.capacity(ResourceKind::kLLC);
  primary.amount = ticket.occupancy_cap;
  return true;
}

AdmitTicket AdmissionCore::admit(AdmitRequest&& request, LazyTime now) {
  RDA_CHECK_MSG(!request.demands.empty(),
                "pp_begin with no declared demand from thread "
                    << request.thread);
  AdmitTicket ticket;
  const double declared = request.demands.front().amount;
  const bool partitioned = partition_on_entry(request.demands.front(), ticket);
  if (calm() && fast_admit(request, now, partitioned, declared, ticket)) {
    return ticket;
  }
  return slow_admit(std::move(request), now.get(), partitioned, declared,
                    ticket.occupancy_cap);
}

bool AdmissionCore::fast_admit(AdmitRequest& request, LazyTime& now,
                               bool partitioned, double declared,
                               AdmitTicket& ticket) {
  const std::uint32_t shard = shard_of_thread(request.thread);
  ShardSlot& slot = slots_[shard];

  // The predicate claims the budget row by row; a denial has rolled back
  // every partial claim and routes the decision to the slow lane (which
  // can park us — the fast lane never parks anybody).
  if (!predicate_.try_schedule(request.demands, shard)) return false;

  PeriodRecord record;
  record.thread = request.thread;
  record.process = request.process;
  record.demands = std::move(request.demands);
  record.reuse = request.reuse;
  record.label = std::move(request.label);
  record.declared_demand = declared;
  record.declared_bandwidth = record.demand_for(ResourceKind::kMemBandwidth);
  record.lease_epoch = monitor_.epoch();
  record.admitted = true;  // budget already charged
  PeriodId id = kInvalidPeriod;
  try {
    id = monitor_.mutable_registry().insert(std::move(record));
  } catch (...) {
    // Nested begin: return the budget so the thrown begin leaves no
    // footprint, exactly like the slow lane's pre-stats registry check.
    // insert validates before moving, so the record still owns the demands.
    for (const ResourceDemand& d : record.demands) {
      resources_.decrement_load(d.resource, d.amount, shard);
    }
    throw;
  }
  slot.begins.fetch_add(1);
  if (partitioned) partitioned_periods_.fetch_add(1);
  if (config_.trace_sink != nullptr) {
    const PeriodRecord* stored = monitor_.registry().find(id);
    RDA_CHECK(stored != nullptr);  // our own record; only we can end it
    trace(obs::EventKind::kBegin, now.get(), *stored);
    trace(obs::EventKind::kAdmit, now.get(), *stored);
  }
  ticket.id = id;
  ticket.admitted = true;
  ticket.fast_path = true;
  return true;
}

namespace {

/// Set when the calling thread's spare batch is destroyed. A plain bool
/// has no destructor, so it stays readable through the rest of thread
/// exit: the gate's exit guard reaps from a thread_local destructor that
/// may run after the spare's.
thread_local bool spare_gone = false;

/// Per-thread recycled wake batch: on_slow_lane takes it, the monitor's
/// pending lists swap their filled buffers into it, and after delivery it
/// comes back cleared. Buffers circulate between the spare and the
/// monitor instead of being allocated per grant.
struct SpareDelivery {
  ProgressMonitor::PendingDelivery batch;
  ~SpareDelivery() { spare_gone = true; }
};

/// The thread's spare, or null once thread exit has destroyed it.
ProgressMonitor::PendingDelivery* spare_delivery() {
  if (spare_gone) return nullptr;
  thread_local SpareDelivery spare;
  return &spare.batch;
}

}  // namespace

template <typename Fn>
void AdmissionCore::on_slow_lane(Fn&& fn) {
  // Take the thread's spare buffers; a slow-lane call made from inside a
  // wake callback finds the spare empty and allocates its own, and one
  // made after the spare's destruction keeps its buffers local.
  ProgressMonitor::PendingDelivery* spare = spare_delivery();
  ProgressMonitor::PendingDelivery pending;
  if (spare != nullptr) pending = std::move(*spare);
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    ProgressMonitor::WakeBatch batch(monitor_, &pending);
    fn();
  }
  monitor_.deliver(pending);
  pending.wakes.clear();
  pending.evicts.clear();
  if (spare != nullptr) *spare = std::move(pending);
}

AdmitTicket AdmissionCore::slow_admit(AdmitRequest request, double now,
                                      bool partitioned, double declared,
                                      double occupancy_cap) {
  AdmitTicket ticket;
  on_slow_lane([&] {
    ticket = slow_admit_locked(std::move(request), now, partitioned, declared,
                               occupancy_cap);
  });
  return ticket;
}

AdmitTicket AdmissionCore::slow_admit_locked(AdmitRequest request, double now,
                                             bool partitioned, double declared,
                                             double occupancy_cap) {
  AdmitTicket ticket;
  ticket.occupancy_cap = occupancy_cap;
  const double declared_bandwidth =
      [&] {
        for (const ResourceDemand& d : request.demands) {
          if (d.resource == ResourceKind::kMemBandwidth) return d.amount;
        }
        return 0.0;
      }();
  ResourceDemand& primary = request.demands.front();
  if (primary.resource == ResourceKind::kLLC) {
    // Counter-feedback: charge the corrected demand learned from previous
    // instances of this period (keyed by its static code location). Only
    // reachable with feedback enabled — admit() skipped the transform then.
    if (config_.feedback.enable) {
      primary.amount *= corrector_.correction(request.label);
    }
    if (config_.partitioning.enable &&
        primary.amount > resources_.capacity(ResourceKind::kLLC)) {
      ticket.occupancy_cap = PartitionOptions::kStreamingFraction *
                             resources_.capacity(ResourceKind::kLLC);
      primary.amount = ticket.occupancy_cap;
      partitioned = true;
    }
  }
  if (config_.feedback.enable) {
    // Vector-demand feedback: bandwidth corrections live in their own
    // per-kind state, so an LLC-only misdeclaration never reshapes the
    // bandwidth charge (and vice versa).
    for (ResourceDemand& d : request.demands) {
      if (d.resource == ResourceKind::kMemBandwidth) {
        d.amount *= corrector_.correction(request.label, d.resource);
      }
    }
  }

  PeriodRecord record;
  record.thread = request.thread;
  record.process = request.process;
  record.demands = std::move(request.demands);
  record.reuse = request.reuse;
  record.label = std::move(request.label);
  record.declared_demand = declared;
  record.declared_bandwidth = declared_bandwidth;
  const ProgressMonitor::BeginOutcome outcome =
      monitor_.begin_period(std::move(record), now);
  if (partitioned) partitioned_periods_.fetch_add(1);

  ticket.id = outcome.id;
  ticket.admitted = outcome.admitted;
  ticket.forced = outcome.forced;
  ticket.woke_from_waitlist = outcome.woke_from_waitlist;
  return ticket;
}

std::vector<AdmitTicket> AdmissionCore::admit_batch(
    std::vector<AdmitRequest> requests, double now) {
  std::vector<AdmitTicket> tickets(requests.size());
  struct Leftover {
    std::size_t index;
    bool partitioned;
    double declared;
  };
  std::vector<Leftover> leftovers;
  LazyTime lazy_now(now);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    AdmitRequest& request = requests[i];
    RDA_CHECK_MSG(!request.demands.empty(),
                  "pp_begin with no declared demand from thread "
                      << request.thread);
    AdmitTicket& ticket = tickets[i];
    const double declared = request.demands.front().amount;
    const bool partitioned =
        partition_on_entry(request.demands.front(), ticket);
    if (calm() &&
        fast_admit(request, lazy_now, partitioned, declared, ticket)) {
      continue;
    }
    leftovers.push_back({i, partitioned, declared});
  }
  if (!leftovers.empty()) {
    on_slow_lane([&] {
      for (const Leftover& l : leftovers) {
        tickets[l.index] =
            slow_admit_locked(std::move(requests[l.index]), now, l.partitioned,
                              l.declared, tickets[l.index].occupancy_cap);
      }
    });
  }
  return tickets;
}

bool AdmissionCore::withdraw(PeriodId id, double now) {
  bool cancelled;
  on_slow_lane([&] {
    RDA_CHECK_MSG(monitor_.registry().find(id) != nullptr,
                  "withdraw of unknown period id " << id);
    cancelled = monitor_.cancel_waiting(id, now);
  });
  return cancelled;
}

WithdrawResult AdmissionCore::try_withdraw(PeriodId id, double now) {
  WithdrawResult result;
  on_slow_lane([&] {
    if (monitor_.registry().find(id) == nullptr) {
      result = WithdrawResult::kGone;
    } else if (monitor_.cancel_waiting(id, now)) {
      result = WithdrawResult::kCancelled;
    } else {
      // cancel_waiting refused: either the grant won the race (record is
      // admitted) or the period vanished meanwhile.
      result = monitor_.registry().find(id) != nullptr
                   ? WithdrawResult::kAlreadyAdmitted
                   : WithdrawResult::kGone;
    }
  });
  return result;
}

bool AdmissionCore::fast_release(PeriodId id, LazyTime& now,
                                 ReleaseTicket& ticket) {
  // Calm lock-free release: claim the record off its shard (only records
  // that are admitted and not force-oversubscribed qualify — everything
  // else carries slow-lane obligations) and return its budget.
  std::optional<PeriodRecord> record =
      monitor_.mutable_registry().take_if_calm(id);
  if (!record.has_value()) return false;
  ticket.fast_path = true;
  if (config_.trace_sink != nullptr) {
    trace(obs::EventKind::kEnd, now.get(), *record);
  }
  for (const ResourceDemand& d : record->demands) {
    resources_.decrement_load(d.resource, d.amount, record->stripe);
  }
  slots_[shard_of_thread(record->thread)].ends.fetch_add(1);
  ticket.record = std::move(*record);
  return true;
}

ReleaseTicket AdmissionCore::release(PeriodId id,
                                     const ReleaseObservation& observed,
                                     LazyTime now) {
  if (calm()) {
    ReleaseTicket ticket;
    if (fast_release(id, now, ticket)) {
      // Dekker handshake, releaser side: the budget is returned (seq_cst);
      // now re-read the park flags. A parker whose push we miss here saw
      // our budget on its own second look — either way somebody rescans.
      if (monitor_.waitlist().size() != 0 ||
          monitor_.disabled_pool_count() != 0) {
        const double t = now.get();
        on_slow_lane([&] { monitor_.rescan_release(t); });
      }
      return ticket;
    }
  }
  return slow_release(id, observed, now.get());
}

std::vector<ReleaseTicket> AdmissionCore::release_batch(
    const std::vector<PeriodId>& ids, double now) {
  std::vector<ReleaseTicket> tickets(ids.size());
  std::vector<std::size_t> leftovers;
  bool any_fast = false;
  LazyTime lazy_now(now);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (calm() && fast_release(ids[i], lazy_now, tickets[i])) {
      any_fast = true;
      continue;
    }
    leftovers.push_back(i);
  }
  if (!leftovers.empty()) {
    // One slow-mutex hold, one rescan, one wake flush for every record the
    // calm lane could not claim. (end_periods rescans after all the budget
    // is back, which also covers the Dekker obligation of the fast ones.)
    std::vector<PeriodId> leftover_ids;
    leftover_ids.reserve(leftovers.size());
    for (const std::size_t i : leftovers) leftover_ids.push_back(ids[i]);
    on_slow_lane([&] {
      std::vector<PeriodRecord> records =
          monitor_.end_periods(leftover_ids, now);
      for (std::size_t j = 0; j < leftovers.size(); ++j) {
        tickets[leftovers[j]].record = std::move(records[j]);
      }
    });
  } else if (any_fast && (monitor_.waitlist().size() != 0 ||
                          monitor_.disabled_pool_count() != 0)) {
    // Purely fast batch: the Dekker re-check escalates at most once for the
    // whole batch instead of once per release.
    on_slow_lane([&] { monitor_.rescan_release(now); });
  }
  return tickets;
}

ReleaseTicket AdmissionCore::slow_release(PeriodId id,
                                          const ReleaseObservation& observed_in,
                                          double now) {
  ReleaseTicket ticket;
  on_slow_lane([&] {
    ReleaseObservation observed = observed_in;
    if (config_.fault_injector != nullptr && observed.has_counters) {
      const PeriodRecord* active = monitor_.registry().find(id);
      RDA_CHECK_MSG(active != nullptr, "pp_end with unknown period id " << id);
      const fault::FaultSpec* fired = config_.fault_injector->consult(
          fault::Hook::kRelease, active->thread);
      if (fired != nullptr &&
          fired->kind == fault::FaultKind::kCorruptCounter) {
        // A garbage counter read: the corrector must stay within its clamp
        // bounds instead of poisoning future demands.
        observed.peak_occupancy *= fired->factor;
      }
    }
    if (observed.has_counters && config_.feedback.enable) {
      // A reaped or reclaimed period may already be gone (end_period below
      // rejects unknown ids itself); a vanished record simply has no
      // declaration left to learn from.
      const PeriodRecord* active = monitor_.registry().find(id);
      if (active != nullptr) {
        corrector_.observe(active->label, active->declared_demand,
                           observed.peak_occupancy, observed.cache_contended);
        if (observed.has_bandwidth && active->declared_bandwidth > 0.0) {
          corrector_.observe(active->label, ResourceKind::kMemBandwidth,
                             active->declared_bandwidth,
                             observed.peak_bandwidth,
                             observed.bandwidth_contended);
        }
      }
    }
    // end_period itself rejects unknown ids; no pre-lookup needed.
    ticket.record = monitor_.end_period(id, now);
  });
  return ticket;
}

ProgressMonitor::ReapOutcome AdmissionCore::reap(sim::ThreadId thread,
                                                 double now,
                                                 bool remember_waiter) {
  ProgressMonitor::ReapOutcome outcome;
  on_slow_lane(
      [&] { outcome = monitor_.reap_thread(thread, now, remember_waiter); });
  return outcome;
}

std::size_t AdmissionCore::sweep(std::uint64_t max_epoch_age, double now,
                                 bool remember_waiters) {
  std::size_t reaped;
  on_slow_lane(
      [&] { reaped = monitor_.sweep(max_epoch_age, now, remember_waiters); });
  return reaped;
}

void AdmissionCore::heartbeat(sim::ThreadId thread) {
  std::lock_guard<std::mutex> lock(slow_mu_);
  monitor_.heartbeat(thread);
}

bool AdmissionCore::watchdog_tick(double now) {
  bool any;
  on_slow_lane([&] { any = monitor_.watchdog_tick(now); });
  return any;
}

bool AdmissionCore::watchdog_stalled(double now) {
  bool any;
  on_slow_lane([&] { any = monitor_.watchdog_stalled(now); });
  return any;
}

bool AdmissionCore::is_admitted(PeriodId id) const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return monitor_.is_admitted(id);
}

bool AdmissionCore::is_reclaimed(PeriodId id) const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return monitor_.is_reclaimed(id);
}

bool AdmissionCore::take_reclaimed(PeriodId id) {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return monitor_.take_reclaimed(id);
}

MonitorStats AdmissionCore::stats() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  MonitorStats merged = monitor_.stats();
  for (const ShardSlot& slot : slots_) {
    const std::uint64_t begins = slot.begins.load();
    merged.begins += begins;
    merged.ends += slot.ends.load();
    merged.immediate_admissions += begins;
  }
  return merged;
}

std::vector<obs::ResourceRow> AdmissionCore::resource_rows() const {
  std::vector<obs::ResourceRow> rows;
  for (std::size_t r = 0; r < kNumResourceKinds; ++r) {
    const ResourceKind kind = static_cast<ResourceKind>(r);
    if (resources_.capacity(kind) <= 0.0) continue;  // not configured
    obs::ResourceRow row;
    row.kind = kind;
    row.capacity = resources_.capacity(kind);
    row.bound = resources_.admission_bound(kind);
    row.usage = resources_.usage(kind);
    row.free = resources_.total_free(kind);
    row.overdraft = resources_.overdraft(kind);
    row.oversubscribed = resources_.oversubscribed(kind);
    rows.push_back(row);
  }
  return rows;
}

AdmissionCore::AuditReport AdmissionCore::audit() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  AuditReport report;
  const auto fail = [&report](const std::string& detail) {
    if (report.ok) {
      report.ok = false;
      report.detail = detail;
    }
  };

  double ground[kNumResourceKinds] = {};
  double oversub_ground[kNumResourceKinds] = {};
  for (const PeriodRecord& r : monitor_.registry().snapshot()) {
    if (!r.admitted) continue;
    for (const ResourceDemand& d : r.demands) {
      ground[static_cast<std::size_t>(d.resource)] += d.amount;
      if (r.oversub) {
        oversub_ground[static_cast<std::size_t>(d.resource)] += d.amount;
      }
    }
  }
  for (std::size_t r = 0; r < kNumResourceKinds; ++r) {
    const ResourceKind kind = static_cast<ResourceKind>(r);
    const double cap = resources_.capacity(kind);
    if (cap <= 0.0) continue;  // resource not configured
    const double tol = 1e-3 * std::max(1.0, cap);
    const double usage = resources_.usage(kind);
    if (std::abs(usage - ground[r]) > tol) {
      std::ostringstream os;
      os << "striped usage " << usage << " != admitted-record ground truth "
         << ground[r] << " on " << to_string(kind);
      fail(os.str());
    }
    const double bound = resources_.admission_bound(kind);
    if (std::isfinite(bound)) {
      const double free = resources_.total_free(kind);
      const double overdraft = resources_.overdraft(kind);
      if (std::abs(usage + free - overdraft - bound) > tol) {
        std::ostringstream os;
        os << "budget not conserved on " << to_string(kind) << ": usage "
           << usage << " + free " << free << " - overdraft " << overdraft
           << " != bound " << bound;
        fail(os.str());
      }
    }
    const double oversub = resources_.oversubscribed(kind);
    if (std::abs(oversub - oversub_ground[r]) > tol) {
      std::ostringstream os;
      os << "oversubscription tally " << oversub
         << " != oversub-record ground truth " << oversub_ground[r] << " on "
         << to_string(kind);
      fail(os.str());
    }
  }
  const std::size_t counted = monitor_.waitlist().size();
  const std::size_t held = monitor_.waitlist().entries().size();
  if (counted != held) {
    std::ostringstream os;
    os << "waitlist entry counter " << counted << " != contents " << held;
    fail(os.str());
  }
  return report;
}

}  // namespace rda::core
