#include "core/progress_monitor.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rda::core {

ProgressMonitor::ProgressMonitor(SchedulingPredicate& predicate,
                                 ResourceMonitor& resources,
                                 MonitorOptions options)
    : predicate_(&predicate),
      resources_(&resources),
      options_(options),
      strategy_(make_wake_strategy(options.wake_order,
                                   options.work_conserving)) {}

void ProgressMonitor::set_wake_strategy(
    std::unique_ptr<WakeStrategy> strategy) {
  RDA_CHECK(strategy != nullptr);
  strategy_ = std::move(strategy);
}

void ProgressMonitor::admit(PeriodId id) {
  RDA_CHECK(registry_.mark_admitted(id));
}

void ProgressMonitor::disable_pool(sim::ProcessId process) {
  if (disabled_pools_.insert(process).second) disabled_pool_count_.fetch_add(1);
}

void ProgressMonitor::enable_pool(sim::ProcessId process) {
  if (disabled_pools_.erase(process) != 0) disabled_pool_count_.fetch_sub(1);
}

void ProgressMonitor::trace(obs::EventKind kind, double now,
                            const PeriodRecord& record) {
  if (sink_ == nullptr) return;
  obs::Event e;
  e.time = now;
  e.kind = kind;
  e.thread = record.thread;
  e.process = record.process;
  e.period = record.id;
  e.resource = record.primary_resource();
  e.demand = record.primary_demand();
  e.set_label(record.label);
  sink_->record(e);
}

void ProgressMonitor::wake_entry(const Waitlist::Entry& entry, double now,
                                 bool notify) {
  ++stats_.wakes;
  if (sink_ != nullptr) {
    const PeriodRecord* record = registry_.find(entry.period);
    RDA_CHECK(record != nullptr);
    trace(obs::EventKind::kWake, now, *record);
  }
  if (notify) pending_wakes_.push_back({entry.thread, entry.period});
}

void ProgressMonitor::deliver(const PendingDelivery& batch) {
  if (!batch.wakes.empty() && batch_waker_) batch_waker_(batch.wakes);
  if (!batch.evicts.empty() && evict_notifier_) evict_notifier_(batch.evicts);
}

void ProgressMonitor::flush_batch() {
  // Callbacks run outside any batch; should one re-enter the monitor, the
  // nested operation opens its own batch and drains its own additions.
  PendingDelivery batch;
  while (!pending_wakes_.empty() || !pending_evicts_.empty()) {
    batch.wakes.swap(pending_wakes_);
    batch.evicts.swap(pending_evicts_);
    deliver(batch);
    batch.wakes.clear();
    batch.evicts.clear();
  }
  // Hand the delivered buffers back, so the next batch allocates nothing.
  pending_wakes_.swap(batch.wakes);
  pending_evicts_.swap(batch.evicts);
}

bool ProgressMonitor::try_admit_pool(sim::ProcessId process, bool force,
                                     double now) {
  // Collect per-resource demand sums of the pool's waiting members.
  double sums[kNumResourceKinds] = {};
  bool any = false;
  for (const Waitlist::Entry& e : waitlist_.entries()) {
    if (e.process != process) continue;
    const PeriodRecord* record = registry_.find(e.period);
    RDA_CHECK(record != nullptr);
    for (const ResourceDemand& d : record->demands) {
      sums[static_cast<std::size_t>(d.resource)] += d.amount;
    }
    any = true;
  }
  if (!any) {
    enable_pool(process);
    return true;
  }
  if (!force) {
    // The pool admits as one aggregate period: its summed per-resource
    // demands form a vector the predicate judges exactly like a single
    // period's.
    std::vector<ResourceDemand> group_demand;
    for (std::size_t r = 0; r < kNumResourceKinds; ++r) {
      if (sums[r] <= 0.0) continue;
      group_demand.push_back({static_cast<ResourceKind>(r), sums[r]});
    }
    if (!predicate_->would_admit(group_demand)) return false;
  }
  // Whole group fits (or is forced): admit and wake every member.
  std::vector<Waitlist::Entry> group = waitlist_.remove_process(process);
  for (const Waitlist::Entry& e : group) {
    const PeriodRecord* record = registry_.find(e.period);
    RDA_CHECK(record != nullptr);
    for (const ResourceDemand& d : record->demands) {
      resources_->increment_load(d.resource, d.amount, record->stripe);
    }
    admit(e.period);
    if (force) {
      ++stats_.forced_admissions;
      trace(obs::EventKind::kForceAdmit, now, *record);
    }
    wake_entry(e, now);
  }
  enable_pool(process);
  ++stats_.pool_group_admissions;
  return true;
}

ProgressMonitor::BeginOutcome ProgressMonitor::begin_period(
    PeriodRecord record, double now) {
  WakeBatch batch(*this);
  record.lease_epoch = epoch_.load();
  const sim::ThreadId thread = record.thread;
  const sim::ProcessId process = record.process;
  // insert rejects a nested begin (periods do not nest, §2.3) before any
  // stats or trace mutation: a thrown begin leaves no footprint.
  const PeriodId id = registry_.insert(std::move(record));
  ++stats_.begins;
  const PeriodRecord* stored = registry_.find(id);
  trace(obs::EventKind::kBegin, now, *stored);

  BeginOutcome outcome;
  outcome.id = id;

  const bool member_of_disabled_pool =
      options_.pool_guard && pool_disabled(process);

  if (!member_of_disabled_pool) {
    bool admitted = predicate_->try_schedule(*stored);
    if (!admitted) {
      // Liveness override: nothing else holds any targeted resource, yet
      // the demand is over the policy bound — it can never fit, so run
      // solo.
      bool targets_free = true;
      bool ever_fits = true;
      for (const ResourceDemand& d : stored->demands) {
        if (!resources_->effectively_free(d.resource)) {
          targets_free = false;
          break;
        }
        ever_fits =
            ever_fits && resources_->fits_when_free(d.resource, d.amount);
      }
      if (targets_free && !ever_fits) {
        for (const ResourceDemand& d : stored->demands) {
          resources_->increment_load(d.resource, d.amount, stored->stripe);
        }
        admit(id);
        ++stats_.forced_admissions;
        trace(obs::EventKind::kForceAdmit, now, *stored);
        outcome.admitted = true;
        outcome.forced = true;
        return outcome;
      }
      // Free targets under a demand that fits mean a lock-free release
      // landed after the failed try_schedule. Charge it the normal way,
      // racing any lock-free admission for the freed budget, and park if
      // that admission wins: forcing it would run it beside the winner.
      // (Serialized, free targets after a failed try_schedule imply a
      // demand over the bound, so this re-run never happens there.)
      admitted = targets_free && predicate_->try_schedule(*stored);
    }
    if (admitted) {
      admit(id);
      ++stats_.immediate_admissions;
      trace(obs::EventKind::kAdmit, now, *stored);
      outcome.admitted = true;
      return outcome;
    }
    if (options_.pool_guard && is_pool(process)) {
      // §3.4: one denied member disables the whole pool.
      disable_pool(process);
      ++stats_.pool_disables;
      trace(obs::EventKind::kPoolDisable, now, *stored);
    }
  }

  Waitlist::Entry entry;
  entry.period = id;
  entry.thread = thread;
  entry.process = process;
  entry.enqueue_time = now;
  entry.demand = stored->primary_demand();
  entry.last_escalation_time = now;
  const std::uint64_t pre_park_version = resources_->version();
  waitlist_.push(entry);  // seq_cst publish: the parker's Dekker store
  ++stats_.blocks;
  trace(obs::EventKind::kBlock, now, *stored);

  // Second look after the park is published — the parker's half of the
  // lost-wake Dekker handshake with the lock-free release lane. A release
  // that drained its budget before our push also missed our waitlist entry;
  // re-running the predicate here sees its returned capacity. When calls
  // are serialized this provably never fires (nothing changed since the
  // failed try_schedule above), so sim traces are untouched.
  if (!(options_.pool_guard && pool_disabled(process))) {
    if (predicate_->try_schedule(*stored)) {
      const std::vector<Waitlist::Entry> self = waitlist_.drain_admissible(
          [id](const Waitlist::Entry& e) { return e.period == id; },
          /*head_only=*/false);
      RDA_CHECK(self.size() == 1);
      admit(id);
      wake_entry(self.front(), now, /*notify=*/false);  // we ARE the waiter
      outcome.admitted = true;
      outcome.woke_from_waitlist = true;
      return outcome;
    }
  } else if (resources_->version() != pre_park_version &&
             try_admit_pool(process, /*force=*/false, now) &&
             is_admitted(id)) {
    // Pool flavour of the same handshake, run only when a lock-free release
    // moved the budget while we parked (version changed) — a release whose
    // Dekker flag load missed our push can have made the whole group fit.
    // Serialized runs never re-check here, keeping legacy trace order. The
    // group admission queued a self-wake for us; withdraw it — we return
    // admitted instead of sleeping.
    for (auto it = pending_wakes_.rbegin(); it != pending_wakes_.rend();
         ++it) {
      if (it->thread == thread) {
        pending_wakes_.erase(std::next(it).base());
        break;
      }
    }
    outcome.admitted = true;
    outcome.woke_from_waitlist = true;
    return outcome;
  }
  return outcome;
}

void ProgressMonitor::rescan_release(double now) {
  WakeBatch batch(*this);
  rescan(now);
}

void ProgressMonitor::rescan(double now) {
  // 1. Disabled pools first: they have been waiting as a group.
  //    (copy — try_admit_pool mutates disabled_pools_)
  const std::vector<sim::ProcessId> disabled(disabled_pools_.begin(),
                                             disabled_pools_.end());
  for (sim::ProcessId p : disabled) try_admit_pool(p, /*force=*/false, now);

  // 2. Ordinary entries, in the order the wake strategy picks them. The
  //    fits check is side-effect-free; the load charge happens only after a
  //    candidate is committed, so a strategy can rank all fitting entries
  //    against the same free capacity.
  const auto fits = [&](const Waitlist::Entry& e) {
    if (options_.pool_guard && pool_disabled(e.process)) return false;
    const PeriodRecord* record = registry_.find(e.period);
    RDA_CHECK(record != nullptr);
    return predicate_->would_admit(*record);
  };
  for (;;) {
    const std::size_t i = strategy_->select(waitlist_.entries(), fits);
    if (i == WakeStrategy::npos) break;
    Waitlist::Entry e = waitlist_.remove_at(i);
    const PeriodRecord* record = registry_.find(e.period);
    RDA_CHECK(record != nullptr);
    if (!predicate_->try_schedule(*record)) {
      // The advisory would_admit read a budget a concurrent fast-lane
      // admission claimed first. Re-park at the original FIFO position and
      // stop: this pass's capacity view is stale. (Serialized, the charge
      // cannot fail — would_admit and try_schedule see the same budget.)
      waitlist_.restore(std::move(e));
      break;
    }
    admit(e.period);
    wake_entry(e, now);
  }

  // 3. Liveness: if nothing holds any resource but threads still wait, the
  //    head can never fit under the policy — force it through.
  if (!waitlist_.empty()) {
    bool all_free = true;
    for (std::size_t r = 0; r < kNumResourceKinds; ++r) {
      if (!resources_->effectively_free(static_cast<ResourceKind>(r))) {
        all_free = false;
        break;
      }
    }
    if (all_free) {
      const Waitlist::Entry head = waitlist_.entries().front();
      if (options_.pool_guard && pool_disabled(head.process)) {
        try_admit_pool(head.process, /*force=*/true, now);
      } else {
        const PeriodRecord* record = registry_.find(head.period);
        RDA_CHECK(record != nullptr);
        bool ever_fits = true;
        for (const ResourceDemand& d : record->demands) {
          ever_fits =
              ever_fits && resources_->fits_when_free(d.resource, d.amount);
        }
        if (ever_fits) {
          // A head that fits was only passed over because a lock-free
          // admission raced step 2 and has since ended: charge it the
          // normal way, or leave it parked if another claim won again (that
          // claim's release rescans). Serialized, a head left here never
          // fits, as in begin_period.
          if (predicate_->try_schedule(*record)) {
            Waitlist::Entry e = waitlist_.remove_at(0);
            admit(e.period);
            wake_entry(e, now);
          }
        } else {
          for (const ResourceDemand& d : record->demands) {
            resources_->increment_load(d.resource, d.amount, record->stripe);
          }
          admit(head.period);
          ++stats_.forced_admissions;
          trace(obs::EventKind::kForceAdmit, now, *record);
          const std::vector<Waitlist::Entry> forced =
              waitlist_.drain_admissible(
                  [&](const Waitlist::Entry& e) {
                    return e.period == head.period;
                  },
                  /*head_only=*/false);
          for (const Waitlist::Entry& e : forced) wake_entry(e, now);
        }
      }
    }
  }

  // 4. Starvation watchdog, round trigger: everything still parked after
  //    the offers above survived one more fruitless wake round.
  if (options_.watchdog.enable) watchdog_rounds(now);
}

void ProgressMonitor::watchdog_rounds(double now) {
  const std::uint32_t rounds = options_.watchdog.max_wake_rounds;
  if (rounds == 0) return;
  escalate_where(now, /*first_only=*/false, [rounds](Waitlist::Entry& e) {
    return e.ladder.worse(rounds, kForceRung);
  });
}

bool ProgressMonitor::watchdog_tick(double now) {
  WakeBatch batch(*this);
  const WatchdogOptions& wd = options_.watchdog;
  if (!wd.enable || wd.max_wait_seconds <= 0.0) return false;
  return escalate_where(now, /*first_only=*/false, [&](Waitlist::Entry& e) {
    return now - e.last_escalation_time >= wd.max_wait_seconds &&
           e.ladder.climb(kForceRung);
  });
}

bool ProgressMonitor::watchdog_stalled(double now) {
  WakeBatch batch(*this);
  if (!options_.watchdog.enable) return false;
  return escalate_where(now, /*first_only=*/true, [](Waitlist::Entry& e) {
    return e.ladder.climb(kForceRung);
  });
}

bool ProgressMonitor::escalate_where(
    double now, bool first_only,
    const std::function<bool(Waitlist::Entry&)>& trigger) {
  // One forward FIFO pass: escalate() removes at most the entry it acts on
  // and touches no other, so every entry is visited exactly once.
  bool any = false;
  for (std::size_t i = 0; i < waitlist_.size() && !(any && first_only);) {
    const bool moved = trigger(waitlist_.entry_at(i));
    any = any || moved;
    if (!moved || !escalate(i, now)) ++i;
  }
  return any;
}

bool ProgressMonitor::escalate(std::size_t index, double now) {
  const WatchdogOptions& wd = options_.watchdog;
  Waitlist::Entry& e = waitlist_.entry_at(index);
  e.last_escalation_time = now;
  PeriodRecord* record = registry_.find_mutable(e.period);
  RDA_CHECK(record != nullptr);

  // Rung 1: clamp oversized demands to a feasible charge. Applies only when
  // something actually exceeds the bound — a feasible-but-starved waiter
  // (leaked capacity, lost wake) climbs straight on to the next rung.
  if (e.ladder.rung() == 1) {
    bool clamped = false;
    for (ResourceDemand& d : record->demands) {
      const double bound = wd.clamp_fraction * resources_->capacity(d.resource);
      if (d.amount > bound) {
        d.amount = bound;
        clamped = true;
      }
    }
    if (clamped) {
      e.demand = record->primary_demand();
      ++stats_.demand_clamps;
      trace(obs::EventKind::kDemandClamp, now, *record);
      if (!(options_.pool_guard && pool_disabled(e.process)) &&
          predicate_->try_schedule(*record)) {
        const Waitlist::Entry woken = waitlist_.remove_at(index);
        admit(woken.period);
        wake_entry(woken, now);
        return true;
      }
      // Feasible now; competes normally from here on.
      return false;
    }
    e.ladder.climb(kForceRung);
  }

  // Rung 2: forced admission, with the charge mirrored into the separate
  // oversubscription tally so the conservation ledger can audit it.
  for (const ResourceDemand& d : record->demands) {
    resources_->increment_load(d.resource, d.amount, record->stripe);
    resources_->add_oversubscribed(d.resource, d.amount);
  }
  record->oversub = true;
  admit(e.period);
  ++stats_.forced_admissions;
  ++stats_.watchdog_force_admissions;
  trace(obs::EventKind::kForceAdmit, now, *record);
  const Waitlist::Entry woken = waitlist_.remove_at(index);
  wake_entry(woken, now);
  return true;
}

ProgressMonitor::ReapOutcome ProgressMonitor::reap_period(
    PeriodId id, double now, bool remember_waiter) {
  ReapOutcome outcome;
  // try_remove claims the record atomically against a racing fast-lane
  // release: whoever removes it owns its discharge, the loser sees nothing.
  std::optional<PeriodRecord> record = registry_.try_remove(id);
  if (!record.has_value()) return outcome;
  outcome.reaped = true;
  outcome.period = id;
  outcome.was_admitted = record->admitted;
  if (!outcome.was_admitted) {
    const std::vector<Waitlist::Entry> drained = waitlist_.drain_admissible(
        [&](const Waitlist::Entry& e) { return e.period == id; },
        /*head_only=*/false);
    if (remember_waiter) {
      reclaimed_.insert(id);
      for (const Waitlist::Entry& e : drained) {
        pending_evicts_.push_back(
            {e.thread, id, "waitlisted period was reclaimed"});
      }
    }
  }
  ++stats_.reclaims;
  trace(obs::EventKind::kReclaim, now, *record);
  if (outcome.was_admitted) {
    for (const ResourceDemand& d : record->demands) {
      resources_->decrement_load(d.resource, d.amount, record->stripe);
      if (record->oversub) {
        resources_->remove_oversubscribed(d.resource, d.amount);
      }
    }
  }
  // Either load was returned or a (possibly pool-disabling) waiter left —
  // both can unblock someone.
  rescan(now);
  return outcome;
}

ProgressMonitor::ReapOutcome ProgressMonitor::reap_thread(
    sim::ThreadId thread, double now, bool remember_waiter) {
  WakeBatch batch(*this);
  const std::optional<PeriodId> id = registry_.active_for_thread(thread);
  if (!id.has_value()) return {};
  return reap_period(*id, now, remember_waiter);
}

std::size_t ProgressMonitor::sweep(std::uint64_t max_epoch_age, double now,
                                   bool remember_waiters) {
  WakeBatch batch(*this);
  const std::uint64_t epoch = epoch_.load();
  std::vector<PeriodId> stale;
  for (const PeriodRecord& r : registry_.snapshot()) {
    if (epoch - r.lease_epoch > max_epoch_age) stale.push_back(r.id);
  }
  std::sort(stale.begin(), stale.end());  // deterministic reap order
  std::size_t reaped = 0;
  for (PeriodId id : stale) {
    if (reap_period(id, now, remember_waiters).reaped) ++reaped;
  }
  return reaped;
}

void ProgressMonitor::heartbeat(sim::ThreadId thread) {
  const std::optional<PeriodId> id = registry_.active_for_thread(thread);
  if (!id.has_value()) return;
  PeriodRecord* record = registry_.find_mutable(*id);
  RDA_CHECK(record != nullptr);
  record->lease_epoch = epoch_.load();
}

PeriodRecord ProgressMonitor::discharge(PeriodId id, double now) {
  ++stats_.ends;
  PeriodRecord record = registry_.remove(id);
  RDA_CHECK_MSG(record.admitted,
                "pp_end on period " << id
                                    << " that was never admitted (still "
                                       "waitlisted?)");
  trace(obs::EventKind::kEnd, now, record);
  for (const ResourceDemand& d : record.demands) {
    resources_->decrement_load(d.resource, d.amount, record.stripe);
    if (record.oversub) {
      resources_->remove_oversubscribed(d.resource, d.amount);
    }
  }
  return record;
}

PeriodRecord ProgressMonitor::end_period(PeriodId id, double now) {
  WakeBatch batch(*this);
  PeriodRecord record = discharge(id, now);
  rescan(now);
  return record;
}

bool ProgressMonitor::cancel_waiting(PeriodId id, double now) {
  WakeBatch batch(*this);
  {
    const PeriodRecord* record = registry_.find(id);
    if (record == nullptr || record->admitted) return false;
  }
  waitlist_.drain_admissible(
      [&](const Waitlist::Entry& e) { return e.period == id; },
      /*head_only=*/false);
  const PeriodRecord record = registry_.remove(id);
  ++stats_.cancels;
  trace(obs::EventKind::kCancel, now, record);
  // The withdrawn waiter may have been what kept its pool disabled (a
  // timed-out last member used to strand the pool until some unrelated
  // end_period), and under head-only scanning it may have been the barrier
  // in front of admissible entries — re-evaluate both.
  rescan(now);
  return true;
}

}  // namespace rda::core
