#include "runtime/gate.hpp"

#include <algorithm>
#include <utility>

#include "runtime/affinity.hpp"
#include "util/check.hpp"

namespace rda::rt {

namespace {

void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Gates opted into reap_on_thread_exit. Deliberately leaked (never
/// destroyed): the thread_local exit guards of detached threads can run
/// after static destructors, and must still find a live registry.
struct ExitReapRegistry {
  std::mutex mu;
  std::vector<AdmissionGate*> gates;
};

ExitReapRegistry& exit_registry() {
  static ExitReapRegistry* r = new ExitReapRegistry;
  return *r;
}

void register_for_exit_reap(AdmissionGate* gate) {
  ExitReapRegistry& r = exit_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.gates.push_back(gate);
}

void deregister_for_exit_reap(AdmissionGate* gate) {
  ExitReapRegistry& r = exit_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.gates.erase(std::remove(r.gates.begin(), r.gates.end(), gate),
                r.gates.end());
}

/// Runs at thread exit and reaps the thread from every registered gate. The
/// registry lock is held across the reaps so a gate mid-destruction (which
/// deregisters first) can never be reached half-dead.
struct ThreadExitGuard {
  std::uint32_t tid = 0;
  ~ThreadExitGuard() {
    ExitReapRegistry& r = exit_registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (AdmissionGate* gate : r.gates) gate->reap_thread(tid);
  }
};

void arm_thread_exit_guard(std::uint32_t tid) {
  thread_local ThreadExitGuard guard{tid};
  guard.tid = tid;  // idempotent; also silences unused-variable concerns
}

/// Spinning only pays if the releaser runs on another CPU; a one-CPU mask
/// is the sign it cannot (measured in gate.hpp's header). Read once per
/// thread, on its first spin attempt.
bool thread_may_spin() {
  thread_local const bool multi = affinity_cpus() > 1;
  return multi;
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

AdmissionGate::AdmissionGate(GateConfig config)
    : config_(config),
      core_(config),
      epoch_(std::chrono::steady_clock::now()) {
  // The kernel wake event: flag each granted thread and ping the sleepers
  // once per batch. The core invokes this AFTER releasing its slow mutex,
  // possibly from several releasing threads at once — wait_mu_ serializes
  // the map inserts and the injector consults. With an injector attached
  // the notification itself becomes a fault site: a lost wake drops the
  // flag entirely (sliced waiters recover the admission core-side); a
  // delayed wake sets the flag but swallows the ping (the next slice poll
  // finds it).
  core_.set_batch_waker(
      [this](const std::vector<core::ProgressMonitor::WakeGrant>& grants) {
        bool ping = false;
        wait_channel_dirty_.store(true, std::memory_order_release);
        {
          std::lock_guard<std::mutex> lock(wait_mu_);
          for (const core::ProgressMonitor::WakeGrant& g : grants) {
            const std::uint32_t token = static_cast<std::uint32_t>(g.thread);
            if (config_.fault_injector != nullptr) {
              const fault::FaultSpec* fired =
                  config_.fault_injector->consult(fault::Hook::kWake,
                                                  g.thread);
              if (fired != nullptr) {
                if (fired->kind == fault::FaultKind::kLostWake) {
                  lost_wakes_.fetch_add(1, std::memory_order_relaxed);
                  dropped_[token] = g.period;
                  continue;
                }
                if (fired->kind == fault::FaultKind::kDelayedWake) {
                  granted_[token] = g.period;
                  continue;
                }
              }
            }
            granted_[token] = g.period;
            ping = true;
          }
          // Consumed entries of exited threads would pile up under thread
          // churn: drop them whenever the map doubles past its last sweep.
          if (granted_.size() >= grant_sweep_at_) {
            std::erase_if(granted_, [](const auto& entry) {
              return entry.second == core::kInvalidPeriod;
            });
            grant_sweep_at_ =
                std::max(kGrantSweepFloor, 2 * granted_.size());
          }
          deliveries_.fetch_add(1, std::memory_order_release);
        }
        if (ping) cv_.notify_all();
      });
  // Waiters evicted WITHOUT a grant (reaped off the waitlist): record the
  // verdict and rouse the sleeper so it observes the error instead of
  // sleeping to its timeout. This channel is what lets
  // end()/sweep() stay notification-free — every fate transition pings.
  core_.set_evict_notifier(
      [this](const std::vector<core::ProgressMonitor::EvictNotice>& notices) {
        wait_channel_dirty_.store(true, std::memory_order_release);
        {
          std::lock_guard<std::mutex> lock(wait_mu_);
          for (const core::ProgressMonitor::EvictNotice& n : notices) {
            evicted_[static_cast<std::uint32_t>(n.thread)] = {n.period,
                                                              n.reason};
          }
          deliveries_.fetch_add(1, std::memory_order_release);
        }
        cv_.notify_all();
      });
  if (config_.reap_on_thread_exit) register_for_exit_reap(this);
}

AdmissionGate::~AdmissionGate() {
  if (config_.reap_on_thread_exit) deregister_for_exit_reap(this);
}

std::uint32_t AdmissionGate::self_id() {
  // thread_local slot token: assigned once per OS thread, never recycled
  // within the process, shared across all gates (the token only has to
  // identify the thread, not the gate).
  static std::atomic<std::uint32_t> next_token{1};
  thread_local const std::uint32_t token =
      next_token.fetch_add(1, std::memory_order_relaxed);
  return token;
}

double AdmissionGate::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

core::LazyTime AdmissionGate::lazy_now() const {
  return core::LazyTime(
      [](const void* gate) {
        return static_cast<const AdmissionGate*>(gate)->now_seconds();
      },
      this);
}

namespace {

/// Per-thread recycled demand buffer: begin copies the caller's demands
/// into it and end() takes it back from the release ticket, so the
/// period's demand vector is allocated once per thread, not once per
/// period.
std::vector<core::ResourceDemand>& spare_demands() {
  thread_local std::vector<core::ResourceDemand> spare;
  return spare;
}

}  // namespace

std::optional<core::PeriodId> AdmissionGate::begin_impl(
    std::span<const core::ResourceDemand> demands, ReuseLevel reuse,
    std::string label, WaitMode mode, std::chrono::nanoseconds timeout) {
  const std::uint32_t tid = self_id();
  if (config_.reap_on_thread_exit) arm_thread_exit_guard(tid);

  core::AdmitRequest request;
  request.thread = tid;
  // Default: every thread is its own singleton group, so pool semantics
  // never trigger unless join_group was called.
  request.process = tid;
  if (wait_channel_dirty_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(wait_mu_);
    // Scrub leftovers from the thread's previous period: a recovery path
    // may have returned before its (injected-away or late) verdict landed.
    // Anything present now predates the period this begin creates. A stale
    // grant is marked consumed in place, so the next grant reuses its entry.
    const auto g = granted_.find(tid);
    if (g != granted_.end()) g->second = core::kInvalidPeriod;
    evicted_.erase(tid);
    dropped_.erase(tid);
    const auto it = groups_.find(tid);
    if (it != groups_.end()) request.process = it->second;
  }
  request.demands = std::move(spare_demands());
  request.demands.assign(demands.begin(), demands.end());
  request.reuse = reuse;
  request.label = std::move(label);

  const core::AdmitTicket ticket = core_.admit(std::move(request), lazy_now());
  if (ticket.admitted) {
    if (ticket.woke_from_waitlist) {
      no_sleep_blocks_.fetch_add(1, std::memory_order_relaxed);
    }
    return ticket.id;
  }

  if (mode == WaitMode::kTry) {
    switch (core_.try_withdraw(ticket.id, now_seconds())) {
      case core::WithdrawResult::kCancelled:
        return std::nullopt;
      case core::WithdrawResult::kAlreadyAdmitted:
        // The grant won the race between admit() returning and the
        // withdraw; the capacity is charged — the caller owns the period.
        consume_grant(tid, ticket.id);
        return ticket.id;
      case core::WithdrawResult::kGone:
        // Reclaimed before we could withdraw; consume the fate so it
        // cannot leak into the thread's next begin.
        (void)core_.take_reclaimed(ticket.id);
        return std::nullopt;
    }
    return std::nullopt;  // unreachable
  }

  // One logical wait, however many slices it takes (wait_slices_ counts
  // those separately — the old per-slice accounting double-counted).
  waits_.fetch_add(1, std::memory_order_relaxed);
  const double wait_start = now_seconds();
  const WaitOutcome outcome = hardened()
                                  ? hardened_wait(tid, ticket.id, mode, timeout)
                                  : plain_wait(tid, ticket.id, mode, timeout);
  atomic_add(total_wait_seconds_, now_seconds() - wait_start);
  if (outcome.failure != nullptr && mode == WaitMode::kBlocking) {
    throw AdmissionRejected(ticket.id, outcome.failure);
  }
  return outcome.id;
}

bool AdmissionGate::settled(std::uint32_t tid, core::PeriodId id) const {
  const auto g = granted_.find(tid);
  if (g != granted_.end() && g->second == id) return true;
  const auto e = evicted_.find(tid);
  return e != evicted_.end() && e->second.first == id;
}

bool AdmissionGate::spin(std::unique_lock<std::mutex>& lock, std::uint32_t tid,
                         core::PeriodId id, std::chrono::nanoseconds cap) {
  bool idle = false;
  if (!thread_may_spin() ||
      !spinning_.compare_exchange_strong(idle, true,
                                         std::memory_order_acquire)) {
    return false;
  }
  const auto start = std::chrono::steady_clock::now();
  const auto until = start + std::min(kSpinBudget, cap);
  // Deliveries bump the counter under wait_mu_, so one read under the lock
  // after a failed check means any later verdict moves it.
  lock.lock();
  bool done = settled(tid, id);
  std::uint64_t seen = deliveries_.load(std::memory_order_relaxed);
  if (!done) lock.unlock();
  while (!done && std::chrono::steady_clock::now() < until) {
    cpu_relax();
    const std::uint64_t now_seen =
        deliveries_.load(std::memory_order_acquire);
    if (now_seen == seen) continue;
    seen = now_seen;
    lock.lock();
    done = settled(tid, id);
    if (!done) lock.unlock();
  }
  const auto spun = std::chrono::steady_clock::now() - start;
  if (done) spun_waits_.fetch_add(1, std::memory_order_relaxed);
  spinning_.store(false, std::memory_order_release);
  atomic_add(spin_seconds_, std::chrono::duration<double>(spun).count());
  return done;
}

AdmissionGate::WaitOutcome AdmissionGate::plain_wait(
    std::uint32_t tid, core::PeriodId id, WaitMode mode,
    std::chrono::nanoseconds timeout) {
  // Paper-faithful cooperative path: a bounded spin, then one predicate
  // wait. Grants AND evictions bump deliveries_ and ping cv_, so the
  // predicate covers both and no fate can slip past a spinning or sleeping
  // waiter.
  const auto start = std::chrono::steady_clock::now();
  const bool timed = mode == WaitMode::kTimed;
  std::unique_lock<std::mutex> lock(wait_mu_, std::defer_lock);
  bool woke = spin(lock, tid, id, timed ? timeout : kSpinBudget);
  if (!woke) {
    lock.lock();
    const auto ready = [&] { return settled(tid, id); };
    if (timed) {
      const auto left = timeout - (std::chrono::steady_clock::now() - start);
      woke = cv_.wait_for(lock, left, ready);
    } else {
      cv_.wait(lock, ready);
      woke = true;
    }
  }
  if (woke) {
    const auto g = granted_.find(tid);
    if (g != granted_.end() && g->second == id) {
      g->second = core::kInvalidPeriod;  // consumed in place
      return {id, nullptr};
    }
    const auto e = evicted_.find(tid);
    const char* reason = e->second.second;
    evicted_.erase(e);
    return {std::nullopt, reason};
  }
  // Timed out without a verdict. The withdraw races any in-flight grant;
  // the core arbitrates.
  lock.unlock();
  switch (core_.try_withdraw(id, now_seconds())) {
    case core::WithdrawResult::kCancelled:
      return {std::nullopt, nullptr};  // plain timeout
    case core::WithdrawResult::kAlreadyAdmitted:
      consume_grant(tid, id);
      return {id, nullptr};
    case core::WithdrawResult::kGone:
      break;
  }
  // Reclaimed while we slept: consume the fate (timed callers report
  // nullopt, they never throw).
  (void)core_.take_reclaimed(id);
  {
    std::lock_guard<std::mutex> relock(wait_mu_);
    const auto e = evicted_.find(tid);
    if (e != evicted_.end() && e->second.first == id) evicted_.erase(e);
  }
  return {std::nullopt, nullptr};
}

AdmissionGate::WaitOutcome AdmissionGate::hardened_wait(
    std::uint32_t tid, core::PeriodId id, WaitMode mode,
    std::chrono::nanoseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  double slice = config_.retry.initial_slice_seconds;
  const bool timed_watchdog = config_.monitor.watchdog.enable &&
                              config_.monitor.watchdog.max_wait_seconds > 0.0;
  for (;;) {
    // Fate checks, in precedence order: an explicit grant wins, then the
    // terminal verdicts, then the lost-wake recovery probe. Channel state
    // under wait_mu_; core probes outside it (the core locks internally).
    {
      std::lock_guard<std::mutex> lock(wait_mu_);
      const auto g = granted_.find(tid);
      if (g != granted_.end()) {
        if (g->second == id) {
          g->second = core::kInvalidPeriod;  // consumed in place
          return {id, nullptr};
        }
        // Stale: a late delivery for a recovered period, or consumed.
        g->second = core::kInvalidPeriod;
      }
      const auto e = evicted_.find(tid);
      if (e != evicted_.end()) {
        if (e->second.first == id) {
          const char* reason = e->second.second;
          evicted_.erase(e);
          return {std::nullopt, reason};
        }
        evicted_.erase(e);  // stale
      }
    }
    if (core_.take_reclaimed(id)) {
      return {std::nullopt, "waitlisted period was reclaimed"};
    }
    if (core_.is_admitted(id) && take_dropped(tid, id)) {
      // Admitted core-side and the injector dropped the grant: consume the
      // admission directly. Admitted with no drop on record means the
      // delivery is still in flight; its grant pings cv_ and the next pass
      // takes it from granted_.
      recovered_wakes_.fetch_add(1, std::memory_order_relaxed);
      return {id, nullptr};
    }
    // Drive the time-triggered watchdog from the waiter itself — the native
    // gate has no other periodic actor. An escalation may have settled our
    // own fate; re-check before sleeping.
    if (timed_watchdog && core_.watchdog_tick(now_seconds())) continue;

    if (mode == WaitMode::kTimed &&
        std::chrono::steady_clock::now() >= deadline) {
      switch (core_.try_withdraw(id, now_seconds())) {
        case core::WithdrawResult::kCancelled:
          return {std::nullopt, nullptr};  // plain timeout
        case core::WithdrawResult::kAlreadyAdmitted:
          consume_grant(tid, id);
          return {id, nullptr};
        case core::WithdrawResult::kGone:
          // Reclaimed in the race window; next loop iteration's fate
          // probes would find it, but we are past the deadline — consume
          // the verdict here and report the timeout.
          (void)core_.take_reclaimed(id);
          {
            std::lock_guard<std::mutex> lock(wait_mu_);
            const auto e = evicted_.find(tid);
            if (e != evicted_.end() && e->second.first == id) {
              evicted_.erase(e);
            }
          }
          return {std::nullopt, nullptr};
      }
    }

    auto wait_dur = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(slice));
    if (mode == WaitMode::kTimed) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              deadline - std::chrono::steady_clock::now());
      wait_dur = std::max(std::chrono::nanoseconds(0),
                          std::min(wait_dur, remaining));
    }
    {
      std::unique_lock<std::mutex> lock(wait_mu_);
      // A verdict may have landed between the probes and this re-lock;
      // sleep only if the channel is still empty for us.
      const auto g = granted_.find(tid);
      const bool granted =
          g != granted_.end() && g->second != core::kInvalidPeriod;
      if (!granted && evicted_.count(tid) == 0) {
        cv_.wait_for(lock, wait_dur);
        wait_slices_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    slice = std::min(slice * RetryOptions::kBackoffMultiplier,
                     config_.retry.max_slice_seconds);
  }
}

bool AdmissionGate::take_dropped(std::uint32_t tid, core::PeriodId id) {
  std::lock_guard<std::mutex> lock(wait_mu_);
  const auto d = dropped_.find(tid);
  if (d == dropped_.end() || d->second != id) return false;
  dropped_.erase(d);
  return true;
}

void AdmissionGate::consume_grant(std::uint32_t tid, core::PeriodId id) {
  // try_withdraw said kAlreadyAdmitted, but the grant's DELIVERY (our batch
  // waker filling granted_) happens after the admitting thread drops the
  // core's slow mutex and may still be in flight. Wait for it briefly and
  // eat it, so it cannot linger and satisfy this thread's next begin.
  std::unique_lock<std::mutex> lock(wait_mu_);
  const auto arrived = [&] {
    const auto g = granted_.find(tid);
    return g != granted_.end() && g->second == id;
  };
  if (config_.fault_injector != nullptr) {
    // The notification itself may have been injected away (lost wake). A
    // drop does not ping, so do not insist: a delivery still in flight
    // after the wait is scrubbed by the next begin.
    const auto dropped = [&] {
      const auto d = dropped_.find(tid);
      return d != dropped_.end() && d->second == id;
    };
    if (!cv_.wait_for(lock, std::chrono::milliseconds(50),
                      [&] { return arrived() || dropped(); })) {
      return;
    }
    if (dropped()) {
      dropped_.erase(tid);
      recovered_wakes_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  } else {
    cv_.wait(lock, arrived);
  }
  granted_[tid] = core::kInvalidPeriod;  // consumed in place
}

core::PeriodId AdmissionGate::begin(ResourceKind resource, double demand,
                                    ReuseLevel reuse, std::string label) {
  const core::ResourceDemand d{resource, demand};
  return begin_multi({&d, 1}, reuse, std::move(label));
}

core::PeriodId AdmissionGate::begin_multi(
    std::span<const core::ResourceDemand> demands, ReuseLevel reuse,
    std::string label) {
  const std::optional<core::PeriodId> id =
      begin_impl(demands, reuse, std::move(label), WaitMode::kBlocking, {});
  RDA_CHECK(id.has_value());
  return *id;
}

std::optional<core::PeriodId> AdmissionGate::try_begin(ResourceKind resource,
                                                       double demand,
                                                       ReuseLevel reuse,
                                                       std::string label) {
  const core::ResourceDemand d{resource, demand};
  return begin_impl({&d, 1}, reuse, std::move(label), WaitMode::kTry, {});
}

std::optional<core::PeriodId> AdmissionGate::begin_for(
    ResourceKind resource, double demand, ReuseLevel reuse,
    std::chrono::nanoseconds timeout, std::string label) {
  const core::ResourceDemand d{resource, demand};
  return begin_impl({&d, 1}, reuse, std::move(label), WaitMode::kTimed,
                    timeout);
}

void AdmissionGate::end(core::PeriodId id) {
  end(id, core::ReleaseObservation{});
}

void AdmissionGate::end(core::PeriodId id,
                        const core::ReleaseObservation& observed) {
  // Everything the release sets in motion reaches the sleepers through the
  // delivery channels: grants via the batch waker, reclaims via the evict
  // notifier — each of which notifies. Nothing here
  // to ping (the old design notified only when hardened, leaving plain
  // waiters a lost-wakeup window whenever a fate carried no wake call).
  core::ReleaseTicket ticket = core_.release(id, observed, lazy_now());
  // Hand the closed period's demand buffer to this thread's next begin.
  if (ticket.record.demands.capacity() > spare_demands().capacity()) {
    spare_demands() = std::move(ticket.record.demands);
  }
}

void AdmissionGate::reap_thread(std::uint32_t thread_id) {
  // remember_waiter: the reaped thread may still be alive inside a timed
  // wait (supervisor-initiated reclaim); the evict notice delivered by the
  // reap (plus the core-side reclaimed_ fate for sliced pollers) lets it
  // observe the reclaim instead of withdrawing a vanished period.
  core_.reap(thread_id, now_seconds(), /*remember_waiter=*/true);
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    granted_.erase(thread_id);
    dropped_.erase(thread_id);
    groups_.erase(thread_id);
  }
  // Freed capacity already woke its admissions via the waker; this ping is
  // for the reaped owner itself, should it be sleeping.
  cv_.notify_all();
}

std::size_t AdmissionGate::sweep(std::uint64_t max_epoch_age) {
  // remember_waiters: live waiters evicted by the sweep observe the reclaim
  // through the evict notices the sweep delivers.
  return core_.sweep(max_epoch_age, now_seconds(), /*remember_waiters=*/true);
}

void AdmissionGate::heartbeat() { core_.heartbeat(self_id()); }

void AdmissionGate::advance_epoch() { core_.advance_epoch(); }

void AdmissionGate::mark_pool(std::uint32_t group) { core_.mark_pool(group); }

void AdmissionGate::join_group(std::uint32_t group) {
  wait_channel_dirty_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(wait_mu_);
  groups_[self_id()] = group;
}

GateStats AdmissionGate::stats() const {
  GateStats s;
  s.monitor = core_.stats();
  s.waits = waits_.load(std::memory_order_relaxed);
  s.wait_slices = wait_slices_.load(std::memory_order_relaxed);
  s.no_sleep_blocks = no_sleep_blocks_.load(std::memory_order_relaxed);
  s.total_wait_seconds = total_wait_seconds_.load(std::memory_order_relaxed);
  s.partitioned_periods = core_.partitioned_periods();
  s.lost_wakes = lost_wakes_.load(std::memory_order_relaxed);
  s.recovered_wakes = recovered_wakes_.load(std::memory_order_relaxed);
  s.spun_waits = spun_waits_.load(std::memory_order_relaxed);
  s.spin_seconds = spin_seconds_.load(std::memory_order_relaxed);
  return s;
}

double AdmissionGate::usage(ResourceKind resource) const {
  return core_.resources().usage(resource);
}

std::size_t AdmissionGate::grant_entries() const {
  std::lock_guard<std::mutex> lock(wait_mu_);
  return granted_.size();
}

std::size_t AdmissionGate::waiting() const {
  return core_.monitor().waitlist().size();
}

double AdmissionGate::oversubscribed(ResourceKind resource) const {
  return core_.resources().oversubscribed(resource);
}

core::AdmissionCore::AuditReport AdmissionGate::audit() const {
  return core_.audit();
}

}  // namespace rda::rt
