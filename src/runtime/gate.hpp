// Native userspace admission gate.
//
// This is the paper's scheduling extension realized for real threads without
// a kernel patch: a thin adapter over core::AdmissionCore. pp_begin runs the
// same transactional admit pipeline as the simulator gate (shared verbatim —
// registry, predicate, waitlist, fast path, partitioning, feedback all live
// in the core); a denied caller blocks on a condition variable (standing in
// for the kernel wait queue + wake events of §3) until a completing period
// releases enough capacity.
//
// Sharded-core edition: the core is internally synchronized (lock-free calm
// lane + slow mutex), so the gate holds NO lock across core calls. Its one
// mutex (wait_mu_) guards only the wait-channel state: the grant/evict maps
// the core's batch waker and evict notifier fill in, and the pool-group
// table. The core delivers wakes AFTER releasing its slow mutex, so the
// callbacks lock wait_mu_ themselves; a grant carries its period id so a
// late delivery (racing a timeout-recovery) can never be mistaken for a
// newer period's grant. Every fate transition — grant, watchdog rejection,
// orphan reclaim — pings the condition variable, which is what lets plain
// (non-hardened) waiters use a simple predicate wait without a lost-wakeup
// window.
//
// Threads that never call the API are simply never throttled — exactly the
// paper's behaviour for un-instrumented processes ("our system ignores
// processes that have not provided progress period information").
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/admission.hpp"
#include "fault/fault.hpp"
#include "obs/sink.hpp"

namespace rda::rt {

/// Thrown by a blocking begin whose waitlisted request was evicted instead
/// of granted: the starvation watchdog exhausted its degradation ladder
/// (rung 3), or the period was reclaimed out from under the waiter.
class AdmissionRejected : public std::runtime_error {
 public:
  AdmissionRejected(core::PeriodId period, const std::string& why)
      : std::runtime_error("admission rejected for period " +
                           std::to_string(period) + ": " + why),
        period_(period) {}
  core::PeriodId period() const { return period_; }

 private:
  core::PeriodId period_;
};

/// Sliced-wait retry/backoff used when the gate runs hardened (a fault
/// injector is attached or the watchdog is enabled): a sleeper re-checks its
/// fate every slice instead of trusting a single notification, so a lost or
/// delayed wake degrades latency instead of hanging the caller.
struct RetryOptions {
  double initial_slice_seconds = 0.0005;
  double backoff_multiplier = 2.0;
  double max_slice_seconds = 0.05;
};

struct GateConfig {
  /// LLC capacity the admission decisions are made against.
  double llc_capacity_bytes = 15360.0 * 1024.0;  // paper Table 1 default
  /// Multi-resource extension: when > 0, DRAM bandwidth (bytes/second)
  /// becomes a second gated resource (used via begin_multi).
  double bandwidth_capacity = 0.0;
  /// Multi-resource extension: when > 0, a package power budget (watts)
  /// becomes a gated resource (kEnergyBudget demands via begin_multi).
  double energy_capacity_watts = 0.0;
  core::PolicyKind policy = core::PolicyKind::kStrict;
  double oversubscription = 2.0;
  /// Per-resource bound overrides + demand-vector combining policy; see
  /// core::AdmissionConfig.
  std::vector<core::PerResourcePolicy> resource_policies;
  core::CombinerOptions combiner{};
  /// §6 streaming partitioning for larger-than-LLC working sets.
  core::PartitionOptions partitioning{};
  /// Counter-feedback demand correction (fed via end(id, observation)).
  core::FeedbackOptions feedback{};
  core::MonitorOptions monitor{};
  /// Admission-lifecycle event sink (non-owning; nullptr = tracing off).
  /// Events are stamped with gate-epoch seconds.
  obs::TraceSink* trace_sink = nullptr;
  /// Fault injection (non-owning; nullptr = off). The gate consults kWake
  /// when delivering a grant (lost/delayed wake); the core consults kRelease
  /// (corrupted counters). Attaching one switches waits to sliced mode.
  fault::FaultInjector* fault_injector = nullptr;
  /// Reap whatever period the calling thread still holds when it exits
  /// (thread_local guard armed on the thread's first begin). Off by default:
  /// the guard registers the gate in a process-wide registry.
  bool reap_on_thread_exit = false;
  RetryOptions retry{};
};

struct GateStats {
  core::MonitorStats monitor;
  /// Begins that had to park AND sleep, counted ONCE per logical wait (a
  /// hardened sliced wait is still one wait; see wait_slices for the slice
  /// count). waits + no_sleep_blocks accounts for every monitor block.
  std::uint64_t waits = 0;
  /// Individual cv sleeps performed by hardened sliced waits (>= waits when
  /// hardened; 0 on the plain path, whose single predicate wait is 1 wait).
  std::uint64_t wait_slices = 0;
  /// Begins whose period visited the waitlist but was admitted on the
  /// in-core second look before the caller ever slept.
  std::uint64_t no_sleep_blocks = 0;
  double total_wait_seconds = 0.0;  ///< cumulative blocked time
  std::uint64_t partitioned_periods = 0;
  std::uint64_t lost_wakes = 0;       ///< grants whose notification was dropped
  std::uint64_t recovered_wakes = 0;  ///< dropped grants found by slice polls
};

class AdmissionGate {
 public:
  explicit AdmissionGate(GateConfig config = {});
  ~AdmissionGate();

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// pp_begin: blocks until the demand is admitted. Returns the period id
  /// to pass to end().
  core::PeriodId begin(ResourceKind resource, double demand, ReuseLevel reuse,
                       std::string label = {});

  /// Multi-resource pp_begin: blocks until EVERY declared demand is
  /// admitted atomically (e.g. LLC bytes + DRAM bandwidth). Every begin
  /// copies its demands into the calling thread's recycled buffer, which
  /// end() hands back, so a steady state allocates nothing.
  core::PeriodId begin_multi(std::span<const core::ResourceDemand> demands,
                             ReuseLevel reuse, std::string label = {});

  /// Non-blocking begin: admitted immediately or not at all (the request is
  /// withdrawn, not waitlisted).
  std::optional<core::PeriodId> try_begin(ResourceKind resource,
                                          double demand, ReuseLevel reuse,
                                          std::string label = {});

  /// Bounded-wait begin: gives up (withdrawing the request) after `timeout`.
  /// If the wake races the timeout, the grant is consumed and the id
  /// returned — capacity is never charged to a caller that walked away.
  std::optional<core::PeriodId> begin_for(ResourceKind resource,
                                          double demand, ReuseLevel reuse,
                                          std::chrono::nanoseconds timeout,
                                          std::string label = {});

  /// pp_end.
  void end(core::PeriodId id);

  /// pp_end with observed hardware counters, feeding the demand corrector
  /// (GateConfig::feedback) exactly like the simulator's phase observation.
  void end(core::PeriodId id, const core::ReleaseObservation& observed);

  /// Declares a group of callers (identified by `group`) a task pool
  /// (§3.4): one denied member pauses the group until all fit.
  void mark_pool(std::uint32_t group);

  /// Associates the calling thread with a pool group (default: each thread
  /// is its own singleton group).
  void join_group(std::uint32_t group);

  /// --- Self-healing lifecycle ---------------------------------------------

  /// Reclaims whatever period `thread_id` (a token from
  /// current_thread_token()) left behind: an admitted orphan's load is
  /// returned, a waitlisted orphan is evicted, and the thread's grant flag
  /// and group membership are dropped. Invoked automatically on thread exit
  /// when GateConfig::reap_on_thread_exit is set.
  void reap_thread(std::uint32_t thread_id);

  /// Lease-based reclamation: reaps every period more than `max_epoch_age`
  /// advance_epoch() calls stale. Evicted live waiters observe the reclaim
  /// through their wait (AdmissionRejected / nullopt).
  std::size_t sweep(std::uint64_t max_epoch_age);
  /// Refreshes the calling thread's lease.
  void heartbeat();
  void advance_epoch();

  /// The calling thread's stable gate token (never reused in-process).
  static std::uint32_t current_thread_token() { return self_id(); }

  GateStats stats() const;
  double usage(ResourceKind resource) const;
  std::size_t waiting() const;

  /// Diagnostics for scenario/stress ledgers: the reversible
  /// oversubscription tally (must drain to zero at quiescence) and the
  /// core's shard-accounting audit.
  double oversubscribed(ResourceKind resource) const;
  core::AdmissionCore::AuditReport audit() const;
  /// Per-resource ledger snapshot (see core::AdmissionCore::resource_rows).
  std::vector<obs::ResourceRow> resource_rows() const {
    return core_.resource_rows();
  }

 private:
  enum class WaitMode { kBlocking, kTry, kTimed };

  struct WaitOutcome {
    std::optional<core::PeriodId> id;
    const char* failure = nullptr;  ///< non-null: rejected / reclaimed
  };

  std::optional<core::PeriodId> begin_impl(
      std::span<const core::ResourceDemand> demands, ReuseLevel reuse,
      std::string label, WaitMode mode, std::chrono::nanoseconds timeout);

  /// Single predicate wait on the grant/evict channel (paper-faithful
  /// cooperative path; no injector, no watchdog). Called unlocked.
  WaitOutcome plain_wait(std::uint32_t tid, core::PeriodId id, WaitMode mode,
                         std::chrono::nanoseconds timeout);

  /// Sliced wait with exponential backoff: re-checks grant / rejection /
  /// reclaim / silent admission every slice and drives the time-triggered
  /// watchdog. Called unlocked; core probes run outside wait_mu_.
  WaitOutcome hardened_wait(std::uint32_t tid, core::PeriodId id,
                            WaitMode mode, std::chrono::nanoseconds timeout);

  /// Eats the (possibly still in-flight) grant for `id` after try_withdraw
  /// reported kAlreadyAdmitted, so it cannot linger and satisfy the
  /// thread's NEXT begin.
  void consume_grant(std::uint32_t tid, core::PeriodId id);
  /// Erases and reports the injector's drop of `id`'s grant to `tid`, if
  /// one is on record. Takes wait_mu_.
  bool take_dropped(std::uint32_t tid, core::PeriodId id);

  bool hardened() const {
    return config_.fault_injector != nullptr ||
           config_.monitor.watchdog.enable;
  }

  /// Stable small id for the calling thread: a process-lifetime token that
  /// is never reused, unlike std::this_thread::get_id() (which the OS
  /// recycles after thread exit, letting a new thread inherit a dead
  /// thread's group membership and stale granted_ flag).
  static std::uint32_t self_id();
  double now_seconds() const;
  /// now_seconds(), read only if the core call consumes the time.
  core::LazyTime lazy_now() const;

  GateConfig config_;
  core::AdmissionCore core_;

  /// Wait-channel lock. Guards granted_, dropped_, evicted_, groups_ and
  /// nothing else. NEVER held across a core_ call: the core's delivery
  /// callbacks (batch waker, evict notifier) take it, so a core call made
  /// with it held would self-deadlock when the operation delivers.
  mutable std::mutex wait_mu_;
  std::condition_variable cv_;
  /// thread token -> period granted to it. Consumed (erased) by the owner;
  /// an entry whose period doesn't match the owner's current wait is stale
  /// (late delivery after a timeout-recovery) and is ignored/overwritten.
  std::unordered_map<std::uint32_t, core::PeriodId> granted_;
  /// thread token -> period whose grant the fault injector dropped (a lost
  /// wake). Only a waiter that finds its own drop here counts a recovered
  /// wake; an admitted waiter without one is ahead of its delivery.
  std::unordered_map<std::uint32_t, core::PeriodId> dropped_;
  /// thread token -> (period, reason) for waiters evicted without a grant.
  std::unordered_map<std::uint32_t,
                     std::pair<core::PeriodId, const char*>>
      evicted_;
  std::unordered_map<std::uint32_t, std::uint32_t> groups_;
  /// Sticky "the wait channel has ever carried state" flag: set by the
  /// first delivery (grant or evict) and by join_group. While clear, every
  /// map above is empty, so begin can skip the wait_mu_ scrub entirely —
  /// the uncontended hot path never touches the lock. Safe because period
  /// ids are never reused: a stale entry can never match a new period, so
  /// the scrub is hygiene, not correctness.
  std::atomic<bool> wait_channel_dirty_{false};

  std::atomic<std::uint64_t> waits_{0};
  std::atomic<std::uint64_t> wait_slices_{0};
  std::atomic<std::uint64_t> no_sleep_blocks_{0};
  std::atomic<std::uint64_t> lost_wakes_{0};
  std::atomic<std::uint64_t> recovered_wakes_{0};
  std::atomic<double> total_wait_seconds_{0.0};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace rda::rt
