#include "runtime/gate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/reconcile.hpp"
#include "obs/recorder.hpp"
#include "util/units.hpp"

namespace rda::rt {
namespace {

using namespace std::chrono_literals;
using rda::util::MB;

GateConfig strict_config(double capacity_mb = 15.0) {
  GateConfig cfg;
  cfg.llc_capacity_bytes = static_cast<double>(MB(capacity_mb));
  cfg.policy = core::PolicyKind::kStrict;
  return cfg;
}

TEST(AdmissionGate, ImmediateAdmissionWhenFits) {
  AdmissionGate gate(strict_config());
  const auto id = gate.begin(ResourceKind::kLLC,
                             static_cast<double>(MB(6)), ReuseLevel::kHigh);
  EXPECT_NE(id, core::kInvalidPeriod);
  EXPECT_NEAR(gate.usage(ResourceKind::kLLC), static_cast<double>(MB(6)),
              1.0);
  gate.end(id);
  EXPECT_NEAR(gate.usage(ResourceKind::kLLC), 0.0, 1e-6);
}

/// Holds a period on a helper thread (one thread = one active period).
class HeldPeriod {
 public:
  HeldPeriod(AdmissionGate& gate, double demand_bytes)
      : thread_([this, &gate, demand_bytes] {
          const auto id = gate.begin(ResourceKind::kLLC, demand_bytes,
                                     ReuseLevel::kHigh);
          held_.set_value();
          release_.get_future().wait();
          gate.end(id);
        }) {
    held_.get_future().wait();
  }

  void release() { release_.set_value(); }
  ~HeldPeriod() { thread_.join(); }

 private:
  std::promise<void> held_;
  std::promise<void> release_;
  std::thread thread_;
};

TEST(AdmissionGate, TryBeginFailsInsteadOfBlocking) {
  AdmissionGate gate(strict_config());
  HeldPeriod big(gate, static_cast<double>(MB(12)));
  const auto denied = gate.try_begin(
      ResourceKind::kLLC, static_cast<double>(MB(8)), ReuseLevel::kHigh);
  EXPECT_FALSE(denied.has_value());
  EXPECT_EQ(gate.waiting(), 0u);  // withdrawn, not queued
  big.release();
}

TEST(AdmissionGate, BeginForTimesOut) {
  AdmissionGate gate(strict_config());
  HeldPeriod big(gate, static_cast<double>(MB(12)));
  const auto start = std::chrono::steady_clock::now();
  const auto denied =
      gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(8)),
                     ReuseLevel::kHigh, 50ms);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(denied.has_value());
  EXPECT_GE(elapsed, 40ms);
  EXPECT_EQ(gate.waiting(), 0u);
  big.release();
}

TEST(AdmissionGate, BeginForSucceedsWhenReleasedInTime) {
  AdmissionGate gate(strict_config());
  auto big = std::make_unique<HeldPeriod>(gate, static_cast<double>(MB(12)));
  std::thread releaser([&] {
    std::this_thread::sleep_for(20ms);
    big->release();
  });
  const auto id =
      gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(8)),
                     ReuseLevel::kHigh, 2s);
  EXPECT_TRUE(id.has_value());
  if (id) gate.end(*id);
  releaser.join();
}

TEST(AdmissionGate, BlockedThreadResumesOnRelease) {
  AdmissionGate gate(strict_config());
  const auto big = gate.begin(ResourceKind::kLLC,
                              static_cast<double>(MB(12)), ReuseLevel::kHigh);
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    const auto id = gate.begin(ResourceKind::kLLC,
                               static_cast<double>(MB(8)), ReuseLevel::kHigh);
    admitted = true;
    gate.end(id);
  });
  // Give the waiter time to park.
  while (gate.waiting() == 0) std::this_thread::sleep_for(1ms);
  EXPECT_FALSE(admitted.load());
  gate.end(big);
  waiter.join();
  EXPECT_TRUE(admitted.load());
  const GateStats stats = gate.stats();
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_GT(stats.total_wait_seconds, 0.0);
}

TEST(AdmissionGate, ManyThreadsNeverOverSubscribeStrict) {
  const double capacity = static_cast<double>(MB(15));
  AdmissionGate gate(strict_config());
  std::atomic<double> max_seen{0.0};
  std::atomic<int> inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        const double demand = static_cast<double>(MB(2 + (t + round) % 5));
        const auto id =
            gate.begin(ResourceKind::kLLC, demand, ReuseLevel::kHigh);
        inside.fetch_add(1);
        const double usage = gate.usage(ResourceKind::kLLC);
        double prev = max_seen.load();
        while (usage > prev && !max_seen.compare_exchange_weak(prev, usage)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        inside.fetch_sub(1);
        gate.end(id);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(inside.load(), 0);
  // Strict invariant: admitted demand never exceeded capacity.
  EXPECT_LE(max_seen.load(), capacity + 1.0);
  const GateStats stats = gate.stats();
  EXPECT_EQ(stats.monitor.begins, 16u * 20u);
  EXPECT_EQ(stats.monitor.ends, 16u * 20u);
}

TEST(AdmissionGate, CompromiseAllowsTwoX) {
  GateConfig cfg = strict_config();
  cfg.policy = core::PolicyKind::kCompromise;
  cfg.oversubscription = 2.0;
  AdmissionGate gate(cfg);
  HeldPeriod a(gate, static_cast<double>(MB(14)));
  HeldPeriod b(gate, static_cast<double>(MB(14)));
  EXPECT_NEAR(gate.usage(ResourceKind::kLLC), static_cast<double>(MB(28)),
              1.0);
  a.release();
  b.release();
}

TEST(AdmissionGate, OversizedDemandRunsSolo) {
  AdmissionGate gate(strict_config());
  // 20 MB > 15 MB capacity: liveness override admits it when alone.
  const auto id = gate.begin(ResourceKind::kLLC,
                             static_cast<double>(MB(20)), ReuseLevel::kHigh);
  EXPECT_NE(id, core::kInvalidPeriod);
  gate.end(id);
  EXPECT_EQ(gate.stats().monitor.forced_admissions, 1u);
}

TEST(AdmissionGate, PoolGroupBlocksAndResumesTogether) {
  AdmissionGate gate(strict_config());
  gate.mark_pool(100);
  const auto big = gate.begin(ResourceKind::kLLC,
                              static_cast<double>(MB(12)), ReuseLevel::kHigh);
  std::atomic<int> admitted{0};
  std::vector<std::thread> members;
  for (int i = 0; i < 3; ++i) {
    members.emplace_back([&] {
      gate.join_group(100);
      const auto id = gate.begin(ResourceKind::kLLC,
                                 static_cast<double>(MB(4)),
                                 ReuseLevel::kHigh);
      admitted.fetch_add(1);
      gate.end(id);
    });
  }
  // Wait until all three members are parked (pool disabled by the first
  // denial; the rest follow).
  while (gate.waiting() < 3) std::this_thread::sleep_for(1ms);
  EXPECT_EQ(admitted.load(), 0);
  gate.end(big);  // 12 MB group now fits
  for (auto& m : members) m.join();
  EXPECT_EQ(admitted.load(), 3);
  EXPECT_GE(gate.stats().monitor.pool_group_admissions, 1u);
}

// Regression: a pool member whose begin_for timed out used to leave the
// pool disabled forever (the §3.4 pause was only lifted by a rescan, and
// cancel_waiting never ran one) — every later member request starved even
// when it trivially fit. The withdraw must re-enable a pool with no waiting
// members.
TEST(AdmissionGate, PoolNotStrandedAfterMemberTimeout) {
  AdmissionGate gate(strict_config());
  gate.mark_pool(200);
  HeldPeriod big(gate, static_cast<double>(MB(12)));
  // Member 1: denied (12 + 8 > 15), pool disabled, gives up after 50ms.
  std::thread member1([&] {
    gate.join_group(200);
    const auto denied =
        gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(8)),
                       ReuseLevel::kHigh, 50ms);
    EXPECT_FALSE(denied.has_value());
  });
  member1.join();
  EXPECT_EQ(gate.stats().monitor.cancels, 1u);
  // Member 2 fits easily (12 + 2 < 15). Pre-fix the pool was still
  // disabled and this parked until `big` ended — far beyond the timeout.
  std::thread member2([&] {
    gate.join_group(200);
    const auto id =
        gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(2)),
                       ReuseLevel::kHigh, 2s);
    ASSERT_TRUE(id.has_value());
    gate.end(*id);
  });
  member2.join();
  big.release();
}

// Regression: self_id() used to key a map on std::this_thread::get_id(),
// which the OS recycles after a join — a brand-new thread could inherit a
// dead thread's pool membership (and stale wake grants). The id is now a
// process-lifetime token that is never reused.
TEST(AdmissionGate, RecycledOsThreadIdDoesNotInheritGroup) {
  AdmissionGate gate(strict_config());
  gate.mark_pool(300);
  // Disable pool 300: a member is denied behind a 12 MB blocker.
  HeldPeriod big(gate, static_cast<double>(MB(12)));
  std::thread member([&] {
    gate.join_group(300);
    const auto id =
        gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(8)),
                       ReuseLevel::kHigh, 10s);
    if (id) gate.end(*id);
  });
  while (gate.waiting() == 0) std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(gate.stats().monitor.pool_disables > 0);
  // A pool member joins and dies while its pool is paused; the OS is now
  // free to hand its thread id to the very next spawn.
  std::thread::id dead_os_id;
  std::thread joiner([&] {
    dead_os_id = std::this_thread::get_id();
    gate.join_group(300);
  });
  joiner.join();
  // Spawn until the OS hands the dead thread's id back (on glibc the very
  // next thread usually gets it). The recycled thread never called
  // join_group, so it must NOT be treated as a member of the paused pool:
  // its 2 MB request fits (12 + 2 < 15) and must be admitted immediately.
  bool reused = false;
  for (int attempt = 0; attempt < 64 && !reused; ++attempt) {
    std::thread probe([&] {
      if (std::this_thread::get_id() != dead_os_id) return;
      reused = true;
      const auto id =
          gate.try_begin(ResourceKind::kLLC, static_cast<double>(MB(2)),
                         ReuseLevel::kHigh);
      EXPECT_TRUE(id.has_value())
          << "recycled OS thread id inherited pool membership";
      if (id) gate.end(*id);
    });
    probe.join();
  }
  // If the OS never reused the id we could not provoke the bug — fine.
  big.release();
  member.join();
}

// After a timeout-withdrawn request, the same caller re-enters at the tail
// of the FIFO waitlist — it does not retain its old position.
TEST(AdmissionGate, PostCancelReadmissionIsFifo) {
  AdmissionGate gate(strict_config());
  auto big = std::make_unique<HeldPeriod>(gate, static_cast<double>(MB(12)));
  std::mutex order_mu;
  std::vector<int> admission_order;
  std::promise<void> y_parked;
  std::shared_future<void> y_parked_future = y_parked.get_future().share();
  // X parks and times out: its waitlist slot is withdrawn.
  std::thread x([&] {
    const auto denied =
        gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(8)),
                       ReuseLevel::kHigh, 50ms);
    EXPECT_FALSE(denied.has_value());
    // Re-request only after Y is queued: X now sits behind Y.
    y_parked_future.wait();
    const auto id = gate.begin(ResourceKind::kLLC,
                               static_cast<double>(MB(8)), ReuseLevel::kHigh);
    {
      std::lock_guard<std::mutex> lock(order_mu);
      admission_order.push_back(1);
    }
    gate.end(id);
  });
  // Wait for X's first request to time out and withdraw.
  while (gate.stats().monitor.cancels == 0) std::this_thread::sleep_for(1ms);
  std::thread y([&] {
    const auto id = gate.begin(ResourceKind::kLLC,
                               static_cast<double>(MB(8)), ReuseLevel::kHigh);
    {
      std::lock_guard<std::mutex> lock(order_mu);
      admission_order.push_back(0);
    }
    gate.end(id);
  });
  while (gate.waiting() < 1) std::this_thread::sleep_for(1ms);
  y_parked.set_value();
  // X re-queues behind Y (both 8 MB; only one fits at a time).
  while (gate.waiting() < 2) std::this_thread::sleep_for(1ms);
  big->release();
  x.join();
  y.join();
  ASSERT_EQ(admission_order.size(), 2u);
  EXPECT_EQ(admission_order[0], 0);  // Y first: FIFO from requeue time
  EXPECT_EQ(admission_order[1], 1);
}

// Regression (timed-begin race): a begin_for timeout that collides with a
// concurrent wake must either consume the grant (returning the id) or
// withdraw cleanly — never both, never neither. Pre-AdmissionCore each
// outcome path lived in a different adapter and a lost grant stranded the
// charged capacity forever. Hammer the collision window and verify no
// capacity leaks and no period is double-resolved.
TEST(AdmissionGate, TimedBeginRaceConsumesOrReleasesGrant) {
  AdmissionGate gate(strict_config());
  std::atomic<bool> stop{false};
  // Occupant: holds 12 MB briefly, releases, repeats — every release fires
  // a wake that may collide with the timed waiter's expiry.
  std::thread occupant([&] {
    while (!stop.load()) {
      const auto id = gate.begin(ResourceKind::kLLC,
                                 static_cast<double>(MB(12)),
                                 ReuseLevel::kHigh);
      std::this_thread::sleep_for(200us);
      gate.end(id);
      std::this_thread::sleep_for(50us);
    }
  });
  int granted = 0;
  int timed_out = 0;
  for (int round = 0; round < 400; ++round) {
    const auto id =
        gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(8)),
                       ReuseLevel::kHigh, 200us, "race");
    if (id.has_value()) {
      ++granted;
      gate.end(*id);
    } else {
      ++timed_out;
    }
  }
  stop = true;
  occupant.join();
  // Every begin resolved exactly once: ended (granted paths) or cancelled
  // (timeout paths). A consumed-and-cancelled or lost grant breaks these.
  EXPECT_EQ(gate.waiting(), 0u);
  EXPECT_NEAR(gate.usage(ResourceKind::kLLC), 0.0, 1e-6);
  const GateStats s = gate.stats();
  EXPECT_EQ(s.monitor.begins, s.monitor.ends + s.monitor.cancels);
  EXPECT_EQ(granted + timed_out, 400);
}

TEST(AdmissionGate, PartitioningAdmitsStreamingPeriodAlongsideNormal) {
  GateConfig cfg = strict_config();  // 15 MB LLC
  cfg.partitioning.enable = true;
  AdmissionGate gate(cfg);
  HeldPeriod normal(gate, static_cast<double>(MB(8)));
  // 64 MB > LLC: §6 confines it to 1.5 MB, so it co-runs with the 8 MB
  // period instead of parking behind it (which try_begin would reject).
  const auto streaming = gate.try_begin(
      ResourceKind::kLLC, static_cast<double>(MB(64)), ReuseLevel::kLow);
  ASSERT_TRUE(streaming.has_value());
  EXPECT_NEAR(gate.usage(ResourceKind::kLLC),
              static_cast<double>(MB(8)) + static_cast<double>(MB(1.5)),
              1.0);
  gate.end(*streaming);
  EXPECT_EQ(gate.stats().partitioned_periods, 1u);
  normal.release();
}

TEST(AdmissionGate, FeedbackCorrectionLearnsFromObservedCounters) {
  GateConfig cfg = strict_config();
  cfg.feedback.enable = true;
  cfg.feedback.min_samples = 1;
  AdmissionGate gate(cfg);
  // Declares 4 MB; the counters keep reporting 8 MB peak occupancy.
  for (int i = 0; i < 4; ++i) {
    const auto id = gate.begin(ResourceKind::kLLC,
                               static_cast<double>(MB(4)), ReuseLevel::kHigh,
                               "hot");
    core::ReleaseObservation observed;
    observed.peak_occupancy = static_cast<double>(MB(8));
    observed.has_counters = true;
    gate.end(id, observed);
  }
  // The corrected charge is what the next admission debits.
  const auto id = gate.begin(ResourceKind::kLLC, static_cast<double>(MB(4)),
                             ReuseLevel::kHigh, "hot");
  EXPECT_GT(gate.usage(ResourceKind::kLLC), static_cast<double>(MB(6)));
  gate.end(id);
}

TEST(AdmissionGate, StatsSnapshotConsistent) {
  AdmissionGate gate(strict_config());
  const auto id = gate.begin(ResourceKind::kLLC, 1000.0, ReuseLevel::kLow);
  GateStats s = gate.stats();
  EXPECT_EQ(s.monitor.begins, 1u);
  EXPECT_EQ(s.monitor.immediate_admissions, 1u);
  gate.end(id);
  s = gate.stats();
  EXPECT_EQ(s.monitor.ends, 1u);
}

TEST(AdmissionGate, CalmLaneTraceCarriesGateEpochTimes) {
  // The calm lane reads the clock only for a consumer; an attached sink is
  // one, so its events must carry real times, not the unread zero.
  obs::EventRecorder recorder;
  GateConfig cfg = strict_config();
  cfg.trace_sink = &recorder;
  const auto constructed = std::chrono::steady_clock::now();
  AdmissionGate gate(cfg);
  constexpr int kThreads = 2;
  constexpr int kPeriods = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gate] {
      for (int i = 0; i < kPeriods; ++i) {
        gate.end(gate.begin(ResourceKind::kLLC, static_cast<double>(MB(1)),
                            ReuseLevel::kHigh, "calm"));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - constructed)
                             .count();

  const GateStats stats = gate.stats();
  ASSERT_EQ(stats.monitor.blocks, 0u);  // the calm lane served every call
  ASSERT_EQ(recorder.dropped(), 0u);
  const std::vector<obs::Event> events = recorder.events();
  ASSERT_EQ(events.size(), 3u * kThreads * kPeriods);
  std::unordered_map<sim::ThreadId, double> last;
  for (const obs::Event& e : events) {
    EXPECT_TRUE(e.kind == obs::EventKind::kBegin ||
                e.kind == obs::EventKind::kAdmit ||
                e.kind == obs::EventKind::kEnd);
    EXPECT_GT(e.time, 0.0) << "period " << e.period;
    EXPECT_LE(e.time, elapsed) << "period " << e.period;
    const auto [it, first] = last.try_emplace(e.thread, e.time);
    if (!first) {
      EXPECT_GE(e.time, it->second) << "thread " << e.thread;
      it->second = e.time;
    }
  }
  EXPECT_EQ(last.size(), static_cast<std::size_t>(kThreads));
  const obs::ReconcileReport report = obs::reconcile(events, stats.monitor);
  EXPECT_TRUE(report.ok) << report.message;
}

// A timed wait spins at most its timeout: with a timeout a tenth of the
// spin budget, the begin times out, leaves nothing parked, and its spin
// stops well inside the budget. Each round uses a fresh gate, so every
// round starts with the full budget; the shortest spin is the one
// preemption left alone. (The spin is timed rather than the whole begin,
// whose admit and withdraw a sanitizer build slows to about the budget.)
TEST(AdmissionGate, BeginForShorterThanSpinBudgetReturnsOnTime) {
  const double budget =
      std::chrono::duration<double>(AdmissionGate::kSpinBudget).count();
  double shortest_spin = budget;
  for (int round = 0; round < 20; ++round) {
    AdmissionGate gate(strict_config());
    HeldPeriod big(gate, static_cast<double>(MB(12)));
    const auto start = std::chrono::steady_clock::now();
    const auto denied =
        gate.begin_for(ResourceKind::kLLC, static_cast<double>(MB(8)),
                       ReuseLevel::kHigh, AdmissionGate::kSpinBudget / 10);
    EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
    EXPECT_FALSE(denied.has_value());
    EXPECT_EQ(gate.waiting(), 0u);
    const GateStats stats = gate.stats();
    EXPECT_EQ(stats.spun_waits, 0u);
    shortest_spin = std::min(shortest_spin, stats.spin_seconds);
    big.release();
  }
  EXPECT_LT(shortest_spin, budget / 2);
}

// Four waiters blocked at once: at most one spins at a time, and all four
// are admitted. Spins that never overlap fit end to end between the start
// signal and the end of the last spin, so their sum (spin_seconds) cannot
// exceed that window; four spinners overlapping would sum to about four
// budgets inside roughly one. The window's end is taken when the watcher
// sees spin_seconds last move, which is never before the spin ended, so
// preemption can widen the window but never fail the check.
TEST(AdmissionGate, FourBlockedWaitersShareOneSpinner) {
  constexpr int kWaiters = 4;
  for (int round = 0; round < 5; ++round) {
    AdmissionGate gate(strict_config());
    const auto held = gate.begin(ResourceKind::kLLC,
                                 static_cast<double>(MB(10)),
                                 ReuseLevel::kHigh);
    std::atomic<bool> go{false};
    std::atomic<int> admitted{0};
    std::vector<std::thread> waiters;
    for (int w = 0; w < kWaiters; ++w) {
      waiters.emplace_back([&] {
        while (!go.load()) {
        }
        gate.end(gate.begin(ResourceKind::kLLC, static_cast<double>(MB(10)),
                            ReuseLevel::kHigh));
        admitted.fetch_add(1);
      });
    }
    const auto start = std::chrono::steady_clock::now();
    go.store(true);
    // Watch until every waiter is parked and no spin has ended for 20
    // budgets. Each spin counted in `spun` ended before the read that saw
    // it, and `last_move` is taken after that read.
    double spun = 0.0;
    auto last_move = start;
    for (;;) {
      const double now_spun = gate.stats().spin_seconds;
      const auto now = std::chrono::steady_clock::now();
      if (now_spun != spun) {
        spun = now_spun;
        last_move = now;
      }
      if (gate.waiting() == kWaiters &&
          now - last_move >= 20 * AdmissionGate::kSpinBudget) {
        break;
      }
      std::this_thread::sleep_for(10us);
    }
    EXPECT_EQ(gate.stats().spun_waits, 0u);
    EXPECT_LE(spun, std::chrono::duration<double>(last_move - start).count());
    gate.end(held);
    for (std::thread& th : waiters) th.join();
    const GateStats stats = gate.stats();
    EXPECT_EQ(admitted.load(), kWaiters);
    EXPECT_EQ(stats.monitor.begins, stats.monitor.ends);
    EXPECT_EQ(stats.waits, static_cast<std::uint64_t>(kWaiters));
    EXPECT_EQ(gate.waiting(), 0u);
    EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6);
  }
}

// Four threads whose demands never fit two at a time take turns through
// many parks, most settled in the spin: every period is admitted, the
// block accounting holds, and the spins (never overlapping) add up to no
// more than the wall time. The main thread holds a 10 MB period until a
// worker has parked behind it, so at least one begin waits however the
// threads interleave: the parked worker's begin ran its second look under
// the slow mutex while the holder still held the budget, and the holder's
// release, with a waiter listed, takes that mutex too.
TEST(AdmissionGate, SpinChurnAdmitsEveryPeriod) {
  constexpr int kThreads = 4;
  constexpr int kPeriods = 200;
  AdmissionGate gate(strict_config());
  std::atomic<int> admitted{0};
  const auto start = std::chrono::steady_clock::now();
  const auto holder = gate.begin(ResourceKind::kLLC,
                                 static_cast<double>(MB(10)),
                                 ReuseLevel::kHigh);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPeriods; ++i) {
        const auto id = gate.begin(ResourceKind::kLLC,
                                   static_cast<double>(MB(10)),
                                   ReuseLevel::kHigh);
        admitted.fetch_add(1);
        const auto until = std::chrono::steady_clock::now() + 10us;
        while (std::chrono::steady_clock::now() < until) {
        }
        gate.end(id);
      }
    });
  }
  while (gate.waiting() == 0) std::this_thread::yield();
  gate.end(holder);
  for (std::thread& th : threads) th.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const GateStats stats = gate.stats();
  EXPECT_EQ(admitted.load(), kThreads * kPeriods);
  EXPECT_EQ(stats.monitor.begins, stats.monitor.ends);
  EXPECT_EQ(stats.waits + stats.no_sleep_blocks, stats.monitor.blocks);
  EXPECT_GT(stats.waits, 0u);
  EXPECT_LE(stats.spun_waits, stats.waits);
  EXPECT_LE(stats.spin_seconds, wall);
  EXPECT_EQ(gate.waiting(), 0u);
  EXPECT_LT(gate.usage(ResourceKind::kLLC), 1e-6);
}

// A 10 MB demand on a 15 MB Strict gate always fits alone, so the liveness
// override (meant for demands over the bound) must never force one through.
// It used to when a lock-free release freed the budget between a failed
// admission and the override's free-targets check; the forced charge then
// ran beside a lock-free admission of the same freed budget, two periods
// inside at once. A few forced admissions showed up per round of 4 x 200.
TEST(AdmissionGate, FittingDemandsAreNeverForced) {
  constexpr int kThreads = 4;
  constexpr int kPeriods = 200;
  for (int round = 0; round < 10; ++round) {
    AdmissionGate gate(strict_config());
    std::atomic<int> inside{0};
    std::atomic<int> most_inside{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kPeriods; ++i) {
          const auto id = gate.begin(ResourceKind::kLLC,
                                     static_cast<double>(MB(10)),
                                     ReuseLevel::kHigh);
          const int now_inside = inside.fetch_add(1) + 1;
          int most = most_inside.load();
          while (now_inside > most &&
                 !most_inside.compare_exchange_weak(most, now_inside)) {
          }
          inside.fetch_sub(1);
          gate.end(id);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    const GateStats stats = gate.stats();
    EXPECT_EQ(stats.monitor.forced_admissions, 0u);
    EXPECT_EQ(most_inside.load(), 1);
    EXPECT_EQ(stats.monitor.begins, stats.monitor.ends);
    EXPECT_EQ(gate.waiting(), 0u);
  }
}

// Short-lived threads each granted once leave consumed entries in the
// grant channel; the sweep keeps them from piling up one per thread.
TEST(AdmissionGate, ThreadChurnKeepsGrantEntriesBounded) {
  constexpr int kThreads = 200;
  AdmissionGate gate(strict_config());
  for (int t = 0; t < kThreads; ++t) {
    const auto held = gate.begin(ResourceKind::kLLC,
                                 static_cast<double>(MB(10)),
                                 ReuseLevel::kHigh);
    std::thread worker([&] {
      gate.end(gate.begin(ResourceKind::kLLC, static_cast<double>(MB(10)),
                          ReuseLevel::kHigh));
    });
    while (gate.waiting() == 0) std::this_thread::sleep_for(10us);
    gate.end(held);
    worker.join();
  }
  const GateStats stats = gate.stats();
  EXPECT_EQ(stats.waits, static_cast<std::uint64_t>(kThreads));
  // Without the sweep: one entry per worker, 200.
  EXPECT_LE(gate.grant_entries(), 64u);
  EXPECT_GT(gate.grant_entries(), 0u);
}

}  // namespace
}  // namespace rda::rt
