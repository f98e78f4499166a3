// AdmissionCore — the one transactional admit/withdraw/release engine.
//
// Every substrate that gates progress periods (the discrete-event simulator
// via core::RdaScheduler, real threads via rt::AdmissionGate, and the
// cluster layer's per-node gates) used to re-implement the same pipeline:
// demand correction, §6 streaming partitioning, registry + predicate +
// waitlist bookkeeping. AdmissionCore owns that pipeline once; the
// substrates shrink to adapters that translate their wake mechanism (sim
// event injection, condvar notify) into the core's batch waker and their
// notion of time into `now` seconds.
//
// Threading contract (sharded edition): the core is INTERNALLY synchronized
// and splits every operation across two lanes.
//
//   * Fast lane (lock-free, the common case): when the system is CALM — no
//     fault injector, no counter feedback, nobody parked on any waitlist,
//     no §3.4-disabled pool — admit claims budget from the striped
//     ResourceMonitor with atomic CAS and inserts into the calling thread's
//     registry shard; release removes the record from its shard and returns
//     the budget. The only shared state two unrelated threads touch is
//     their own shard/stripe, so contended throughput scales with cores.
//
//   * Slow lane: everything else (parks, wakes, pools, watchdog, feedback,
//     fault hooks) runs the full ProgressMonitor logic under one slow
//     mutex, exactly as the pre-shard core did — byte-for-byte identical
//     traces and stats when calls are serialized.
//
// Both lanes decide with the one SchedulingPredicate: Algorithm 1 on every
// row of the period's demand vector under the configured policy, admitted
// only when every row fits. The fast lane runs its per-row budget CAS; the
// slow lane runs the same call under the mutex, where would_admit ⇒
// try_schedule holds for the waitlist rescan.
//
// The lanes hand off via a Dekker-style handshake on seq_cst atomics: a
// parking thread publishes its waitlist entry and then re-reads the budget
// (begin_period's second look); a fast release returns its budget and then
// re-reads the waitlist count, escalating to a slow-lane rescan if anybody
// is parked. One side always sees the other, so no wake is lost.
//
// Wakes are BATCHED: the slow lane accumulates woken threads per operation
// and delivers them once, AFTER releasing the slow mutex (set_batch_waker
// receives the whole batch, in wake order). Delivering outside the lock
// lets a wake callback re-enter the core — the sim engine's death-at-wake
// fault path reaps the dying thread from inside the wake. The woken period is
// already marked admitted before its wake is delivered, so a waiter that
// probes its fate (is_admitted / take_reclaimed, both under the slow mutex)
// instead of sleeping observes a consistent verdict.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/feedback.hpp"
#include "core/predicate.hpp"
#include "core/progress_monitor.hpp"
#include "core/resource_monitor.hpp"
#include "core/sharding.hpp"
#include "fault/fault.hpp"
#include "obs/sink.hpp"
#include "obs/summary.hpp"

namespace rda::core {

/// §6 future-work extension: cache partitioning for streaming periods.
/// "If an application whose working set size is larger than the LLC is
///  scheduled (e.g., streaming applications), we can partition the cache and
///  give this application only a small portion ... because it would fetch
///  most data from main memory regardless."
struct PartitionOptions {
  /// Fraction of LLC capacity granted to a larger-than-LLC period. The
  /// period is admitted with this reduced charge and confined to it, so
  /// normal periods co-run instead of waiting behind it.
  static constexpr double kStreamingFraction = 0.10;
  bool enable = false;
};

struct AdmissionConfig {
  /// LLC capacity the admission decisions are made against (bytes).
  double llc_capacity_bytes = 15360.0 * 1024.0;  // paper Table 1 default
  /// Multi-resource extension: when > 0, DRAM bandwidth (bytes/second)
  /// becomes a second gated resource.
  double bandwidth_capacity = 0.0;
  /// Multi-resource extension: when > 0, a RAPL-style package power budget
  /// (watts) becomes a gated resource — periods declaring kEnergyBudget
  /// demands are throttled to hold the cap.
  double energy_capacity_watts = 0.0;
  /// The one bound policy of every configured resource; a period is
  /// admitted only when each of its declared demands fits.
  PolicyKind policy = PolicyKind::kStrict;
  /// Oversubscription factor x for RDA:Compromise (paper uses 2).
  double oversubscription = 2.0;
  PartitionOptions partitioning{};
  /// Counter-feedback extension: correct declared demands from observed
  /// per-period hardware counters. Forces every call through the slow lane
  /// (the corrector is serial state).
  FeedbackOptions feedback{};
  MonitorOptions monitor{};
  /// Admission-lifecycle event sink (non-owning; nullptr = tracing off).
  obs::TraceSink* trace_sink = nullptr;
  /// Fault injection (non-owning; nullptr = off). The core itself consults
  /// only the kRelease hook (corrupted counter observations); the substrates
  /// consult the lifecycle hooks around their own admit/block/wake sites.
  /// Attaching an injector forces every call through the slow lane so the
  /// fault matrix stays deterministic.
  fault::FaultInjector* fault_injector = nullptr;
};

/// One pp_begin, substrate-neutral. The first demand is the primary one;
/// when it targets the LLC it is reshaped by counter feedback and §6
/// partitioning before admission.
struct AdmitRequest {
  sim::ThreadId thread = sim::kInvalidThread;
  sim::ProcessId process = sim::kInvalidProcess;
  std::vector<ResourceDemand> demands;
  ReuseLevel reuse = ReuseLevel::kLow;
  std::string label;
};

/// The time of one admit or release call, read only when something
/// consumes it: a trace sink, the slow lane or a Dekker rescan. A known
/// `now` (the simulator's, the service's) is held as is; a clock is read on
/// first use and never again, so every consumer in one call sees one time.
/// The calm lane without a sink never reads it.
class LazyTime {
 public:
  explicit LazyTime(double now) : now_(now) {}
  /// `clock(context)` returns seconds in the caller's time base.
  LazyTime(double (*clock)(const void*), const void* context)
      : clock_(clock), context_(context) {}

  double get() {
    if (clock_ != nullptr) {
      now_ = clock_(context_);
      clock_ = nullptr;
    }
    return now_;
  }

 private:
  double now_ = 0.0;
  double (*clock_)(const void*) = nullptr;
  const void* context_ = nullptr;
};

/// Outcome of admit(). `admitted == false` means the period is parked on
/// the waitlist; the caller must either sleep until the batch waker grants
/// its thread or withdraw() the request.
struct AdmitTicket {
  PeriodId id = kInvalidPeriod;
  bool admitted = false;
  bool forced = false;     ///< admitted via the liveness override
  bool fast_path = false;  ///< served by the calm lock-free lane
  /// Admitted on the post-park second look of the lost-wake handshake: the
  /// period visited the waitlist (blocks was counted) but the caller must
  /// NOT sleep — no grant will ever arrive for it.
  bool woke_from_waitlist = false;
  /// Non-zero when §6 partitioning capped the period's LLC occupancy.
  double occupancy_cap = 0.0;
};

/// Observed hardware counters of a completed period, fed back into the
/// demand corrector. `has_counters == false` (the default) skips feedback —
/// the native runtime has no per-period counter isolation by default.
struct ReleaseObservation {
  double peak_occupancy = 0.0;  ///< bytes actually resident at peak
  bool cache_contended = false;
  bool has_counters = false;
  /// Observed DRAM bandwidth (bytes/second) for the vector-demand feedback
  /// path; consumed only when has_bandwidth is set AND the period declared
  /// a kMemBandwidth demand.
  double peak_bandwidth = 0.0;
  bool has_bandwidth = false;
  /// True when the memory bus was saturated while the period ran — its
  /// bandwidth peak is then a lower bound, like cache_contended for the LLC.
  bool bandwidth_contended = false;
};

/// Outcome of release().
struct ReleaseTicket {
  bool fast_path = false;  ///< served by the calm lock-free lane
  PeriodRecord record;     ///< the closed period
};

/// Outcome of try_withdraw() — the race-tolerant withdraw the native gate's
/// timeout path uses.
enum class WithdrawResult {
  kCancelled,        ///< was waitlisted; now cancelled
  kAlreadyAdmitted,  ///< the grant won the race; caller owns the admission
  kGone,             ///< already reclaimed/unknown
};

class AdmissionCore {
 public:
  explicit AdmissionCore(AdmissionConfig config = {});

  AdmissionCore(const AdmissionCore&) = delete;
  AdmissionCore& operator=(const AdmissionCore&) = delete;

  /// The kernel wake event, abstracted: one call per slow-lane operation
  /// with every period it admitted off the waitlist, in wake order. Invoked
  /// after the slow mutex is released — re-entering the core from the
  /// callback is safe.
  void set_batch_waker(ProgressMonitor::BatchWakeFn waker) {
    monitor_.set_batch_waker(std::move(waker));
  }
  /// Eviction notices (waitlisted-orphan reclaim): lets the substrate
  /// rouse a sleeping owner that will never get a grant.
  void set_evict_notifier(ProgressMonitor::EvictFn notifier) {
    monitor_.set_evict_notifier(std::move(notifier));
  }
  void set_trace_sink(obs::TraceSink* sink) {
    monitor_.set_trace_sink(sink);
    config_.trace_sink = sink;
  }
  void set_wake_strategy(std::unique_ptr<WakeStrategy> strategy) {
    monitor_.set_wake_strategy(std::move(strategy));
  }

  /// Declares a process as a task-pool (§3.4 group pause semantics).
  void mark_pool(sim::ProcessId process) {
    std::lock_guard<std::mutex> lock(slow_mu_);
    monitor_.mark_pool(process);
  }

  /// pp_begin. Applies feedback correction and §6 partitioning to the
  /// primary LLC demand, then admits through the calm lock-free lane or the
  /// full predicate pipeline. Throws util::CheckFailure on a nested begin
  /// from the same thread (before any stats or trace mutation).
  AdmitTicket admit(AdmitRequest&& request, LazyTime now);
  AdmitTicket admit(AdmitRequest request, double now) {
    return admit(std::move(request), LazyTime(now));
  }

  /// Batched pp_begin for the service front end's drain loop. Semantically
  /// identical to calling admit() per request in order (tickets come back in
  /// request order), but calm requests go through the lock-free lane
  /// individually while every slow-lane leftover shares ONE slow-mutex
  /// acquisition, one wake batch, and one deliver — the per-call lock and
  /// notify cost is amortized across the whole batch. Leftovers keep their
  /// original arrival order (FIFO fairness). A nested-begin throw aborts the
  /// batch like it aborts the single call.
  std::vector<AdmitTicket> admit_batch(std::vector<AdmitRequest> requests,
                                       double now);

  /// Withdraws a request that is still waitlisted (timeout / try_begin /
  /// shutdown). Returns false — withdrawing NOTHING — when the period was
  /// already admitted (the grant raced the timeout; the caller must consume
  /// it and eventually release()). Throws on an unknown id.
  bool withdraw(PeriodId id, double now);

  /// Race-tolerant withdraw: like withdraw(), but an id that vanished
  /// (orphan reclaim) reports kGone instead of throwing, and a
  /// won-by-the-grant race reports kAlreadyAdmitted.
  WithdrawResult try_withdraw(PeriodId id, double now);

  /// pp_end. Feeds observed counters to the demand corrector, releases the
  /// period's load and rescans the waitlist (granting every admission
  /// through the batch waker). Throws on an unknown id or a never-admitted
  /// period.
  ReleaseTicket release(PeriodId id, const ReleaseObservation& observed,
                        LazyTime now);
  ReleaseTicket release(PeriodId id, const ReleaseObservation& observed,
                        double now) {
    return release(id, observed, LazyTime(now));
  }

  /// Batched pp_end. Calm records release through the lock-free lane; the
  /// rest are discharged together under one slow-mutex hold with a single
  /// waitlist rescan for the whole batch (ProgressMonitor::end_periods), and
  /// the Dekker re-check after a purely fast batch escalates at most once.
  /// No counter observations: feedback-corrected periods must go through the
  /// single-call release() (feedback disables the calm lane anyway).
  std::vector<ReleaseTicket> release_batch(const std::vector<PeriodId>& ids,
                                           double now);

  /// Active (admitted OR waitlisted) period of a thread, if any.
  std::optional<PeriodId> active_for_thread(sim::ThreadId thread) const {
    return monitor_.registry().active_for_thread(thread);
  }

  /// --- Self-healing lifecycle ---------------------------------------------

  /// Reaps whatever period `thread` left behind (thread-exit detection /
  /// task teardown): an admitted orphan's load is returned and waiters are
  /// rescanned; a waitlisted orphan is evicted. See ProgressMonitor.
  ProgressMonitor::ReapOutcome reap(sim::ThreadId thread, double now,
                                    bool remember_waiter = false);

  /// Lease-based reclamation: reaps every period whose lease is more than
  /// `max_epoch_age` advance_epoch() calls stale. heartbeat() refreshes a
  /// live thread's lease.
  std::size_t sweep(std::uint64_t max_epoch_age, double now,
                    bool remember_waiters = false);
  void heartbeat(sim::ThreadId thread);
  void advance_epoch() { monitor_.advance_epoch(); }

  /// Time-triggered starvation-watchdog pass (the round trigger runs inside
  /// every rescan). Returns true when a waiter moved a degradation rung.
  bool watchdog_tick(double now);

  /// Stall-triggered escalation: the substrate proved nothing can progress,
  /// so the head-most unexhausted waiter moves a rung immediately.
  bool watchdog_stalled(double now);

  /// Post-wait state probes for the substrates: a granted period shows as
  /// admitted; a reaped-while-waiting one never gets a wake grant and must
  /// be discovered (and consumed) through these. All take the slow mutex:
  /// an operation's wakes are flushed before its effects become observable
  /// here.
  bool is_admitted(PeriodId id) const;
  bool is_reclaimed(PeriodId id) const;
  bool take_reclaimed(PeriodId id);

  /// Shard-accounting audit, meaningful at quiescence (no in-flight calls):
  /// striped usage vs registry ground truth, budget conservation, waitlist
  /// counter vs contents, oversubscription tally vs oversub records.
  struct AuditReport {
    bool ok = true;
    std::string detail;  ///< first violated invariant, empty when ok
  };
  AuditReport audit() const;

  /// Per-resource ledger snapshot (one row per configured kind, in kind
  /// order) for obs::summarize and obs::reconcile_resources: capacity,
  /// policy bound, aggregate usage, unclaimed budget, overdraft, and the
  /// watchdog oversubscription tally.
  std::vector<obs::ResourceRow> resource_rows() const;

  const AdmissionConfig& config() const { return config_; }
  /// Slow-lane monitor stats plus the fast lane's per-shard begin/end
  /// counters, merged. By value: assembled at call time.
  MonitorStats stats() const;
  std::uint64_t partitioned_periods() const {
    return partitioned_periods_.load();
  }
  ResourceMonitor& resources() { return resources_; }
  const ResourceMonitor& resources() const { return resources_; }
  const ProgressMonitor& monitor() const { return monitor_; }
  const DemandCorrector& corrector() const { return corrector_; }

 private:
  /// Per-shard fast-lane state: this shard's share of the begin/end
  /// counters (every calm begin is an immediate admission). Cacheline-
  /// aligned so shards do not false-share.
  struct alignas(64) ShardSlot {
    std::atomic<std::uint64_t> begins{0};
    std::atomic<std::uint64_t> ends{0};
  };

  /// True when the lock-free lane may decide alone: no injector, no
  /// feedback, nobody parked, no pool disabled. The predicate itself never
  /// forces the slow lane — its per-row budget CAS is the same rule on both
  /// lanes. Reads two seq_cst atomics.
  bool calm() const {
    return config_.fault_injector == nullptr &&
           !config_.feedback.enable &&
           monitor_.waitlist().size() == 0 &&
           monitor_.disabled_pool_count() == 0;
  }

  /// §6 partitioning transform on the entry path: caps a larger-than-LLC
  /// primary demand at the streaming fraction and records the cap in
  /// `ticket`. Returns whether it applied. Skipped with counter feedback:
  /// that forces the slow lane, where slow_admit_locked caps the corrected
  /// demand instead.
  bool partition_on_entry(ResourceDemand& primary, AdmitTicket& ticket) const;
  /// Lock-free admit attempt. False = budget contention or nested-begin
  /// impossible here; caller falls through to the slow lane.
  bool fast_admit(AdmitRequest& request, LazyTime& now, bool partitioned,
                  double declared, AdmitTicket& ticket);
  /// Runs `fn` under slow_mu_ inside a redirected WakeBatch, then delivers
  /// the wakes and evictions it captured after the mutex is released. The
  /// batch lands in the calling thread's recycled buffers, so a slow-lane
  /// call allocates no wake list once warm.
  template <typename Fn>
  void on_slow_lane(Fn&& fn);
  /// Kept out of line: inlined into admit(), it enlarged the calm lane's
  /// path and cost gate_calm ~8 % p50 on a 4-vCPU x86-64 host.
  [[gnu::noinline]] AdmitTicket slow_admit(AdmitRequest request, double now,
                                           bool partitioned, double declared,
                                           double occupancy_cap);
  /// slow_admit body; caller holds slow_mu_ inside an open WakeBatch.
  AdmitTicket slow_admit_locked(AdmitRequest request, double now,
                                bool partitioned, double declared,
                                double occupancy_cap);
  ReleaseTicket slow_release(PeriodId id, const ReleaseObservation& observed,
                             double now);
  /// Lock-free release attempt (no Dekker re-check — the caller owes one
  /// rescan check per call/batch). False = record not claimable calmly.
  bool fast_release(PeriodId id, LazyTime& now, ReleaseTicket& ticket);
  void trace(obs::EventKind kind, double now, const PeriodRecord& record);

  AdmissionConfig config_;
  ResourceMonitor resources_;
  SchedulingPredicate predicate_;
  ProgressMonitor monitor_;
  DemandCorrector corrector_;

  /// Serializes the slow lane (ProgressMonitor and everything reachable
  /// from it). Lock order: slow_mu_ → registry shard.
  mutable std::mutex slow_mu_;

  std::array<ShardSlot, kNumShards> slots_;
  std::atomic<std::uint64_t> partitioned_periods_{0};
};

}  // namespace rda::core
