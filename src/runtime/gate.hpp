// Native userspace admission gate.
//
// This is the paper's scheduling extension realized for real threads without
// a kernel patch: a thin adapter over core::AdmissionCore. pp_begin runs the
// same transactional admit pipeline as the simulator gate (shared verbatim —
// registry, predicate, waitlist, fast path, partitioning, feedback all live
// in the core); a denied caller waits on the gate's wait channel (standing
// in for the kernel wait queue + wake events of §3) until a completing
// period releases enough capacity.
//
// Sharded-core edition: the core is internally synchronized (lock-free calm
// lane + slow mutex), so the gate holds NO lock across core calls. Its one
// mutex (wait_mu_) guards only the wait-channel state: the grant/evict maps
// the core's batch waker and evict notifier fill in, and the pool-group
// table. The core delivers wakes AFTER releasing its slow mutex, so the
// callbacks lock wait_mu_ themselves; a grant carries its period id so a
// late delivery (racing a timeout-recovery) can never be mistaken for a
// newer period's grant. Every fate transition — grant or orphan reclaim —
// bumps a delivery counter under wait_mu_ and pings the condition
// variable, which is what lets plain (non-hardened) waiters use a
// simple predicate wait without a lost-wakeup window.
//
// Plain waits spin, then park. A parked waiter is back on a CPU about
// 10 us after its grant lands (the OS wake-up), and the granted capacity
// is charged but idle all that time. So one waiter per gate at a time
// first polls the delivery counter with `pause` for up to kSpinBudget,
// re-checking its predicate under wait_mu_ whenever the counter moves, and
// only then falls through to the condition-variable wait. That wait keeps
// its predicate, so a delivery landing between the two is never lost. A
// timed wait spins at most its timeout; a thread whose affinity mask holds
// one CPU never spins. Measured with 3 threads passing a 10 MB demand on
// 15 MB (30 us bodies) on a 4-vCPU host: confined to one CPU together,
// spinning cuts throughput from 31.3 k to 14.0 k periods/s, since the
// releaser cannot run while the spinner does; each pinned to its own CPU,
// the rule forfeits 11 % (23.6 k against 26.6 k/s with spinning). The
// pinned native BLAS runs (native_table2) wait milliseconds per block and
// move within noise either way. Hardened waits
// (sliced, below) and try_begin never spin.
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

/// Thrown by a blocking begin whose waitlisted request was reclaimed out
/// from under the waiter (reap_thread or a lease sweep) instead of granted.
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
  /// Each slice is this many times the previous one, up to the max.
  static constexpr double kBackoffMultiplier = 2.0;
  double initial_slice_seconds = 0.0005;
  double max_slice_seconds = 0.05;
};

/// The core's configuration plus the gate's own wait knobs. On the gate,
/// trace events are stamped with gate-epoch seconds, and an attached fault
/// injector is also consulted on kWake when a grant is delivered (lost or
/// delayed wakes), which switches waits to sliced mode.
struct GateConfig : core::AdmissionConfig {
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
  /// Waits settled while their caller spun, before it ever parked (a subset
  /// of waits).
  std::uint64_t spun_waits = 0;
  /// Time spent spinning, settled or not: the CPU the spin costs. Spins never
  /// overlap (one spinner per gate), so this never exceeds wall time.
  double spin_seconds = 0.0;
};

class AdmissionGate {
 public:
  /// Longest a plain wait spins before it parks. Measured on perfbench's
  /// gate_overcommit (3 threads on a 4-vCPU x86-64 host, ~33 us bodies):
  /// 100 us settles 99.5 % of waits in the spin, takes the wake hand-off
  /// p50 from 7.1 to 1.5 us and the period p50 from 30.6 to 20.5 us, for
  /// about one CPU of spinning across the 3 threads.
  static constexpr std::chrono::nanoseconds kSpinBudget{100'000};

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
  /// Entries in the grant channel, consumed ones included: one per thread
  /// granted since the last sweep, which drops consumed entries whenever
  /// the count reaches max(64, twice what the previous sweep kept).
  std::size_t grant_entries() const;

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
    const char* failure = nullptr;  ///< non-null: reclaimed
  };

  std::optional<core::PeriodId> begin_impl(
      std::span<const core::ResourceDemand> demands, ReuseLevel reuse,
      std::string label, WaitMode mode, std::chrono::nanoseconds timeout);

  /// Spin-then-park predicate wait on the grant/evict channel
  /// (paper-faithful cooperative path; no injector, no watchdog). Called
  /// unlocked.
  WaitOutcome plain_wait(std::uint32_t tid, core::PeriodId id, WaitMode mode,
                         std::chrono::nanoseconds timeout);

  /// True when `tid`'s grant or eviction for `id` has landed. wait_mu_ held.
  bool settled(std::uint32_t tid, core::PeriodId id) const;

  /// Spins for at most min(kSpinBudget, `cap`) unless another waiter
  /// already spins or the calling thread has one CPU. Returns true, with
  /// `lock` (on wait_mu_) held, if the wait settled during the spin; false,
  /// with `lock` released, if the caller must park.
  bool spin(std::unique_lock<std::mutex>& lock, std::uint32_t tid,
            core::PeriodId id, std::chrono::nanoseconds cap);

  /// Sliced wait with exponential backoff: re-checks grant / eviction /
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
  /// thread token -> period granted to it. The owner consumes a grant by
  /// overwriting it with kInvalidPeriod in place, so after a thread's first
  /// grant its entry is reused and delivering a grant allocates nothing.
  /// An entry whose period doesn't match the owner's current wait is stale
  /// (late delivery after a timeout-recovery, or consumed) and is ignored or
  /// overwritten: period ids are never reused, so neither can match.
  /// Consumed entries outlive their thread until the next sweep (see
  /// grant_entries), so the map stays bounded under thread churn.
  std::unordered_map<std::uint32_t, core::PeriodId> granted_;
  /// granted_ size that triggers the next sweep of consumed entries.
  static constexpr std::size_t kGrantSweepFloor = 64;
  std::size_t grant_sweep_at_ = kGrantSweepFloor;
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
  /// Bumped under wait_mu_ by every grant batch and evict batch, after the
  /// maps are written: the spinner's cue to re-check its predicate.
  std::atomic<std::uint64_t> deliveries_{0};
  /// Set while one waiter spins (the one-spinner rule).
  std::atomic<bool> spinning_{false};

  std::atomic<std::uint64_t> waits_{0};
  std::atomic<std::uint64_t> wait_slices_{0};
  std::atomic<std::uint64_t> no_sleep_blocks_{0};
  std::atomic<std::uint64_t> lost_wakes_{0};
  std::atomic<std::uint64_t> recovered_wakes_{0};
  std::atomic<double> total_wait_seconds_{0.0};
  std::atomic<std::uint64_t> spun_waits_{0};
  std::atomic<double> spin_seconds_{0.0};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace rda::rt
