// Progress monitor (§3.1, Figs. 2/5/6): the component that tracks pp_begin /
// pp_end transitions, keeps the period registry, and re-schedules waitlisted
// threads when capacity frees up.
//
// Behaviour on begin (paper Fig. 5):
//   create period -> scheduling predicate -> run (load incremented) or
//   pause (placed on the resource waitlist).
// Behaviour on end (paper Fig. 6):
//   remove from registry -> decrement load -> attempt to schedule waiting
//   threads.
//
// Extensions faithful to §3.4:
//   * thread-pool guard: when a member of a pool process is denied, the
//     whole pool is disabled; it is re-admitted only when the pool's entire
//     pending demand fits ("until there is sufficient resources for all of
//     them").
//   * liveness override: a period whose demand can never fit (larger than
//     the policy bound) is force-admitted when the resource is completely
//     free — otherwise a paper-conform system would hang forever on it.
//
// Sharded-core edition: this is the SLOW LANE of the two-lane AdmissionCore.
// All calls are serialized by the core's slow mutex (or by the caller, for
// direct users like the unit tests); internally the monitor sits on the
// sharded registry and the one FIFO waitlist and stripes its load charges,
// so its bookkeeping composes with the lock-free fast lane running beside
// it. Wakes are BATCHED: a rescan appends woken threads to a pending list
// and the outermost operation flushes them in one pass (one notify for the
// whole pp_end storm instead of one per admission).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "core/predicate.hpp"
#include "core/registry.hpp"
#include "core/sharding.hpp"
#include "core/waitlist.hpp"
#include "obs/sink.hpp"

namespace rda::core {

/// Starvation watchdog: detects waiters that make no progress (infeasible
/// demand, lost wake, leaked capacity) and escalates them through a
/// degradation ladder instead of letting them wait forever. Disabled by
/// default — the paper's cooperative model needs none of it, and the default
/// hot path must stay branch-free.
struct WatchdogOptions {
  bool enable = false;
  /// Escalate a waiter one rung after this many rescans that left it parked
  /// (a "wake round" = one release/cancel-driven waitlist re-evaluation).
  /// 0 disables the round trigger.
  std::uint32_t max_wake_rounds = 0;
  /// Escalate a waiter one rung after this much time (sim seconds on the
  /// sim substrate, wall-clock seconds on the native gate) without progress,
  /// measured from enqueue or the previous escalation. Checked only from
  /// watchdog_tick(). 0 disables the time trigger.
  double max_wait_seconds = 0.0;
  /// Ladder rung 1 clamps each declared demand to clamp_fraction × capacity,
  /// making an infeasible request feasible (it then competes normally); a
  /// demand already under the bound is left alone. Rung 2, the top,
  /// force-admits with the excess booked in the resource monitor's separate
  /// oversubscription tally.
  double clamp_fraction = 1.0;
};

struct MonitorOptions {
  /// Waitlist scan mode on release: admit every fitting entry (true) or stop
  /// at the first non-fitting one (false; stricter FIFO fairness). Only
  /// meaningful under WakeOrder::kFifo.
  bool work_conserving = true;
  /// Enable the §3.4 thread-pool group pause.
  bool pool_guard = true;
  /// Order in which freed capacity is re-offered to parked periods.
  WakeOrder wake_order = WakeOrder::kFifo;
  WatchdogOptions watchdog{};
};

struct MonitorStats {
  std::uint64_t begins = 0;
  std::uint64_t ends = 0;
  std::uint64_t immediate_admissions = 0;
  std::uint64_t blocks = 0;
  std::uint64_t wakes = 0;              ///< admissions from the waitlist
  std::uint64_t forced_admissions = 0;  ///< liveness overrides
  std::uint64_t pool_disables = 0;
  std::uint64_t pool_group_admissions = 0;
  std::uint64_t cancels = 0;       ///< waitlisted requests withdrawn
  std::uint64_t reclaims = 0;      ///< orphaned periods reaped
  std::uint64_t demand_clamps = 0; ///< watchdog rung 1 applications
  /// Always 0: the watchdog never evicts a waiter. Kept because perfbench's
  /// ledger checks read it.
  std::uint64_t rejections = 0;
  /// Watchdog rung-2 admits; a subset of forced_admissions (each also emits
  /// kForceAdmit so the event/stat reconciliation stays one-to-one).
  std::uint64_t watchdog_force_admissions = 0;

  /// Field-wise accumulation (fleet-wide admission totals across node cores).
  MonitorStats& operator+=(const MonitorStats& o) {
    begins += o.begins;
    ends += o.ends;
    immediate_admissions += o.immediate_admissions;
    blocks += o.blocks;
    wakes += o.wakes;
    forced_admissions += o.forced_admissions;
    pool_disables += o.pool_disables;
    pool_group_admissions += o.pool_group_admissions;
    cancels += o.cancels;
    reclaims += o.reclaims;
    demand_clamps += o.demand_clamps;
    rejections += o.rejections;
    watchdog_force_admissions += o.watchdog_force_admissions;
    return *this;
  }
};

class ProgressMonitor {
 public:
  /// One admission grant bound for a sleeping owner. Carrying the PERIOD id
  /// (not just the thread) lets an asynchronous substrate discard a grant
  /// that was delivered late — after its period was already recovered,
  /// withdrawn, or ended — instead of mistaking it for the thread's next
  /// period's grant.
  struct WakeGrant {
    sim::ThreadId thread = sim::kInvalidThread;
    PeriodId period = kInvalidPeriod;
  };

  /// One call per flush with every grant issued by the operation, in wake
  /// order — lets the native gate hand out all grants under one lock and
  /// issue a single notify for the whole batch, and the simulator resume
  /// each woken thread in turn.
  using BatchWakeFn = std::function<void(const std::vector<WakeGrant>&)>;

  /// A waiter reaped off the waitlist without a wake grant: the substrate
  /// must rouse the sleeping owner so it can observe the error instead of
  /// sleeping to its timeout.
  struct EvictNotice {
    sim::ThreadId thread = sim::kInvalidThread;
    PeriodId period = kInvalidPeriod;
    const char* reason = "";
  };
  using EvictFn = std::function<void(const std::vector<EvictNotice>&)>;

  /// Non-owning references must outlive the monitor.
  ProgressMonitor(SchedulingPredicate& predicate, ResourceMonitor& resources,
                  MonitorOptions options = {});

  /// Channel used to resume previously paused threads once their periods
  /// are admitted (the kernel wake event of the paper's implementation).
  /// Wakes are delivered at the end of the outermost monitor operation, in
  /// the order the admissions happened.
  void set_batch_waker(BatchWakeFn waker) { batch_waker_ = std::move(waker); }
  /// Eviction-notice channel (flushed with the wakes).
  void set_evict_notifier(EvictFn notifier) {
    evict_notifier_ = std::move(notifier);
  }

  /// Replaces the wake-order strategy (defaults to the one selected by
  /// MonitorOptions::wake_order). Must not be null.
  void set_wake_strategy(std::unique_ptr<WakeStrategy> strategy);
  const WakeStrategy& wake_strategy() const { return *strategy_; }

  /// Attaches a lifecycle-event sink (non-owning; nullptr disables tracing
  /// at the cost of one branch per transition).
  void set_trace_sink(obs::TraceSink* sink) { sink_ = sink; }

  /// Declares a process as a task-pool (§3.4 group semantics).
  void mark_pool(sim::ProcessId process) { pools_.insert(process); }
  bool is_pool(sim::ProcessId process) const { return pools_.count(process); }
  bool pool_disabled(sim::ProcessId process) const {
    return disabled_pools_.count(process) != 0;
  }
  /// Lock-free count of currently disabled pools — part of the fast lane's
  /// calm check (a disabled pool means §3.4 group semantics are live and
  /// every admission must go through the slow lane).
  std::size_t disabled_pool_count() const {
    return disabled_pool_count_.load();
  }

  struct BeginOutcome {
    PeriodId id = kInvalidPeriod;
    bool admitted = false;
    bool forced = false;  ///< admitted via the liveness override
    /// Admitted on the post-park second look (the in-monitor half of the
    /// lost-wake Dekker handshake): the period visited the waitlist but the
    /// caller never needs to sleep. Impossible when calls are serialized.
    bool woke_from_waitlist = false;
  };

  /// pp_begin. The record's id field is assigned by the registry.
  BeginOutcome begin_period(PeriodRecord record, double now);

  /// pp_end. Throws if the id is unknown. Returns the closed record.
  PeriodRecord end_period(PeriodId id, double now);

  /// Batched pp_end: removes and discharges every id first, then re-offers
  /// the freed capacity with ONE waitlist rescan for the whole batch (one
  /// release storm = one scheduling pass = one wake flush, instead of a
  /// rescan per end). Records are returned in id-argument order. Throws on
  /// the first unknown or never-admitted id, like end_period.
  std::vector<PeriodRecord> end_periods(const std::vector<PeriodId>& ids,
                                        double now);

  /// Cancels a period that is still waitlisted (native-runtime timeout /
  /// shutdown path). Returns false if the period was already admitted or
  /// unknown. Rescans afterwards: removing the waiter can re-enable a pool
  /// it had disabled (and thereby admit the remaining members).
  bool cancel_waiting(PeriodId id, double now);

  /// Re-offers freed capacity to the waitlist. The fast release lane calls
  /// this (under the core's slow mutex) when its Dekker check sees parked
  /// waiters or a disabled pool after a lock-free discharge.
  void rescan_release(double now);

  /// --- Orphan reclamation (lease/heartbeat) -------------------------------

  struct ReapOutcome {
    bool reaped = false;
    bool was_admitted = false;  ///< held load (vs parked on the waitlist)
    PeriodId period = kInvalidPeriod;
  };

  /// Reaps whatever period `thread` still holds (admitted: load returned,
  /// waiters rescanned; waitlisted: entry evicted). Driven by the native
  /// gate's thread-exit detection and the sim's task teardown. When
  /// `remember_waiter` is set, a reaped WAITLISTED period is remembered so a
  /// live waiter polling on it can observe the eviction (take_reclaimed).
  ReapOutcome reap_thread(sim::ThreadId thread, double now,
                          bool remember_waiter = false);

  /// Reaps every period whose lease is more than `max_epoch_age` epochs
  /// stale. Returns the number of periods reaped.
  std::size_t sweep(std::uint64_t max_epoch_age, double now,
                    bool remember_waiters = false);

  /// Refreshes the lease of the thread's active period (no-op when none).
  void heartbeat(sim::ThreadId thread);
  void advance_epoch() { epoch_.fetch_add(1); }
  std::uint64_t epoch() const { return epoch_.load(); }

  /// --- Starvation watchdog -------------------------------------------------

  /// Time-triggered escalation pass (the round-triggered pass runs inside
  /// every rescan). Returns true when any waiter moved a ladder rung.
  bool watchdog_tick(double now);

  /// Stall-triggered escalation: the substrate proved nothing else can make
  /// progress (all threads blocked), so waiting is futile regardless of the
  /// round/time triggers — escalate the head-most unexhausted waiter one
  /// rung immediately. Returns true when a waiter moved.
  bool watchdog_stalled(double now);

  /// Reclaim bookkeeping the substrates poll to surface errors: a period
  /// reclaimed while waiting never gets a wake grant, so its (possibly
  /// still sleeping) owner must be able to learn its fate.
  bool is_reclaimed(PeriodId id) const { return reclaimed_.count(id) != 0; }
  bool take_reclaimed(PeriodId id) { return reclaimed_.erase(id) != 0; }

  bool is_admitted(PeriodId id) const {
    const PeriodRecord* record = registry_.find(id);
    return record != nullptr && record->admitted;
  }

  const MonitorStats& stats() const { return stats_; }
  const Waitlist& waitlist() const { return waitlist_; }
  const ShardedRegistry& registry() const { return registry_; }
  /// Fast-lane access: the core's lock-free admit inserts pre-admitted
  /// records and its release claims calm records directly off the shards.
  ShardedRegistry& mutable_registry() { return registry_; }

  /// Wakes/evictions captured by a redirected WakeBatch for delivery after
  /// the caller releases its locks: substrate wake callbacks may re-enter
  /// the core (the sim engine's death-at-wake fault path reaps the dying
  /// thread from inside the wake), so they must never run under the slow
  /// mutex.
  struct PendingDelivery {
    std::vector<WakeGrant> wakes;
    std::vector<EvictNotice> evicts;
  };

  /// Invokes the wake/evict callbacks for a captured batch. Call WITHOUT
  /// the core's slow mutex held.
  void deliver(const PendingDelivery& batch);

  /// Scopes one logical monitor operation: wakes/evictions accumulated by
  /// nested calls are flushed when the outermost batch closes. Every public
  /// mutating entry point opens one, so direct users need not bother; the
  /// admission core opens a REDIRECTED one (outermost, under its slow
  /// mutex) so the callbacks can be invoked after the mutex is released.
  class WakeBatch {
   public:
    explicit WakeBatch(ProgressMonitor& monitor,
                       PendingDelivery* redirect = nullptr)
        : monitor_(monitor), redirect_(redirect) {
      ++monitor_.batch_depth_;
    }
    WakeBatch(const WakeBatch&) = delete;
    WakeBatch& operator=(const WakeBatch&) = delete;
    ~WakeBatch() {
      if (--monitor_.batch_depth_ != 0) return;
      if (redirect_ != nullptr) {
        // Swapped, not moved: the pending lists keep the redirect's
        // (empty, recycled) buffers, so the next wake allocates nothing.
        redirect_->wakes.swap(monitor_.pending_wakes_);
        redirect_->evicts.swap(monitor_.pending_evicts_);
      } else {
        monitor_.flush_batch();
      }
    }

   private:
    ProgressMonitor& monitor_;
    PendingDelivery* redirect_;
  };

 private:
  void admit(PeriodId id);  ///< bookkeeping common to every admission
  /// Removes one admitted period and returns its budget (the shared body
  /// of end_period and end_periods); the caller rescans afterwards.
  PeriodRecord discharge(PeriodId id, double now);
  void wake_entry(const Waitlist::Entry& entry, double now,
                  bool notify = true);
  void flush_batch();
  /// Re-evaluates the waitlist after load decreased.
  void rescan(double now);
  /// Reap implementation shared by reap_thread and sweep.
  ReapOutcome reap_period(PeriodId id, double now, bool remember_waiter);
  /// The watchdog ladder's top rung (1 = clamp, 2 = force).
  static constexpr int kForceRung = 2;
  /// Round-triggered watchdog pass over the entries a rescan left parked.
  void watchdog_rounds(double now);
  /// Escalates, in FIFO order, every parked entry whose `trigger` moved its
  /// ladder (only the first such entry when `first_only`). Returns true
  /// when any entry moved.
  bool escalate_where(double now, bool first_only,
                      const std::function<bool(Waitlist::Entry&)>& trigger);
  /// Applies the action of the rung the entry at `index` has just climbed
  /// to, climbing on past a clamp that does not apply. Returns true when
  /// the entry left the waitlist (admitted).
  bool escalate(std::size_t index, double now);
  /// Group admission check for one disabled pool; admits and wakes the whole
  /// group when it fits. Returns true if the pool was re-enabled.
  bool try_admit_pool(sim::ProcessId process, bool force, double now);
  void disable_pool(sim::ProcessId process);
  void enable_pool(sim::ProcessId process);
  /// Emits one lifecycle event when a sink is attached.
  void trace(obs::EventKind kind, double now, const PeriodRecord& record);

  SchedulingPredicate* predicate_;
  ResourceMonitor* resources_;
  MonitorOptions options_;
  std::unique_ptr<WakeStrategy> strategy_;
  BatchWakeFn batch_waker_;
  EvictFn evict_notifier_;
  obs::TraceSink* sink_ = nullptr;

  ShardedRegistry registry_;
  Waitlist waitlist_;
  std::set<sim::ProcessId> pools_;
  std::set<sim::ProcessId> disabled_pools_;
  std::atomic<std::size_t> disabled_pool_count_{0};
  MonitorStats stats_;

  std::atomic<std::uint64_t> epoch_{0};  ///< lease clock (advance_epoch)
  /// Waitlisted periods reaped out from under a live waiter.
  std::unordered_set<PeriodId> reclaimed_;

  /// Batched wake/evict delivery (see WakeBatch).
  int batch_depth_ = 0;
  std::vector<WakeGrant> pending_wakes_;
  std::vector<EvictNotice> pending_evicts_;
};

}  // namespace rda::core
