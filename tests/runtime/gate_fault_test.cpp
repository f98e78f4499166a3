// Native-gate fault and recovery tests: lost/delayed wake recovery through
// the sliced hardened wait, the watchdog force-admitting a starved waiter,
// thread-exit reclamation proven via the obs event ledger, and the
// timed-wait race matrix (grant-before-timeout, timeout, reap-during-wait).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "fault/fault.hpp"
#include "obs/reconcile.hpp"
#include "obs/recorder.hpp"
#include "runtime/gate.hpp"

namespace rda::rt {
namespace {

using namespace std::chrono_literals;

constexpr double kCapacity = 1000.0;

GateConfig small_gate() {
  GateConfig config;
  config.llc_capacity_bytes = kCapacity;
  config.policy = core::PolicyKind::kStrict;
  return config;
}

/// Spin-polls `pred` with a generous failure backstop so a hung scenario
/// fails the test instead of wedging the suite.
template <typename Pred>
::testing::AssertionResult await(Pred pred, const char* what) {
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return ::testing::AssertionFailure() << "timed out waiting for " << what;
    }
    std::this_thread::sleep_for(100us);
  }
  return ::testing::AssertionSuccess();
}

/// std::thread wrapper that captures the body's exception text.
struct Worker {
  std::thread thread;
  std::string error;

  template <typename Fn>
  explicit Worker(Fn body) {
    thread = std::thread([this, body = std::move(body)]() mutable {
      try {
        body();
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
  }
  void join() { thread.join(); }
};

TEST(FaultGate, LostWakeIsRecoveredBySlicedWait) {
  fault::FaultPlan plan;
  fault::FaultSpec lost;
  lost.kind = fault::FaultKind::kLostWake;
  lost.hook = fault::Hook::kWake;
  plan.add(lost);
  fault::FaultInjector injector(std::move(plan));
  obs::EventRecorder recorder;

  GateConfig config = small_gate();
  config.fault_injector = &injector;
  config.trace_sink = &recorder;
  AdmissionGate gate(config);

  const core::PeriodId held = gate.begin(ResourceKind::kLLC, 600.0,
                                         ReuseLevel::kHigh, "holder");
  Worker waiter([&] {
    const core::PeriodId id = gate.begin(ResourceKind::kLLC, 600.0,
                                         ReuseLevel::kHigh, "waiter");
    gate.end(id);
  });
  ASSERT_TRUE(await([&] { return gate.waiting() == 1; }, "waiter parked"));
  gate.end(held);  // grant fires, notification is dropped by the fault
  waiter.join();
  EXPECT_EQ(waiter.error, "");

  const GateStats stats = gate.stats();
  EXPECT_EQ(stats.lost_wakes, 1u);
  EXPECT_EQ(stats.recovered_wakes, 1u);
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.monitor.begins, 2u);
  EXPECT_EQ(stats.monitor.ends, 2u);
  EXPECT_EQ(gate.usage(ResourceKind::kLLC), 0.0);

  // Event-ledger check: the dropped notification must not desync the wait
  // accounting — the histogram and the gate's wait counters still reconcile.
  ASSERT_EQ(recorder.dropped(), 0u);
  obs::WaitStatsCheck check;
  check.waits = stats.waits;
  check.no_sleep_blocks = stats.no_sleep_blocks;
  check.spun_waits = stats.spun_waits;
  check.total_wait_seconds = stats.total_wait_seconds;
  const obs::ReconcileReport report = obs::reconcile_waits(
      recorder.events(), recorder.wait_histogram(), check);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(FaultGate, DelayedWakeIsStillDelivered) {
  fault::FaultPlan plan;
  fault::FaultSpec delayed;
  delayed.kind = fault::FaultKind::kDelayedWake;
  delayed.hook = fault::Hook::kWake;
  delayed.delay_seconds = 0.005;
  plan.add(delayed);
  fault::FaultInjector injector(std::move(plan));

  GateConfig config = small_gate();
  config.fault_injector = &injector;
  AdmissionGate gate(config);

  const core::PeriodId held =
      gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh);
  Worker waiter([&] {
    const core::PeriodId id =
        gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh);
    gate.end(id);
  });
  ASSERT_TRUE(await([&] { return gate.waiting() == 1; }, "waiter parked"));
  gate.end(held);
  waiter.join();
  EXPECT_EQ(waiter.error, "");

  const GateStats stats = gate.stats();
  EXPECT_EQ(stats.lost_wakes, 0u);
  EXPECT_EQ(stats.monitor.wakes, 1u);
  EXPECT_EQ(stats.monitor.ends, 2u);
  EXPECT_EQ(gate.usage(ResourceKind::kLLC), 0.0);
}

TEST(FaultGate, WatchdogForceAdmitsStarvedWaiter) {
  GateConfig config = small_gate();
  config.monitor.watchdog.enable = true;
  config.monitor.watchdog.max_wake_rounds = 1;
  AdmissionGate gate(config);

  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  Worker holder([&] {
    const core::PeriodId id =
        gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh);
    held = true;
    while (!release) std::this_thread::sleep_for(100us);
    gate.end(id);
  });
  ASSERT_TRUE(await([&] { return held.load(); }, "holder admitted"));

  std::atomic<bool> admitted{false};
  std::atomic<bool> finish{false};
  Worker starved([&] {
    const core::PeriodId id =
        gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh, "starved");
    admitted = true;
    while (!finish) std::this_thread::sleep_for(100us);
    gate.end(id);
  });
  ASSERT_TRUE(await([&] { return gate.waiting() == 1; }, "starved parked"));

  // One pulse ages the parked entry past max_wake_rounds. 600 is under the
  // clamp bound, so rung 1 climbs on and rung 2 force-admits beside the
  // holder, booking the excess in the oversubscription tally.
  const core::PeriodId pulse =
      gate.begin(ResourceKind::kLLC, 100.0, ReuseLevel::kLow, "pulse");
  gate.end(pulse);

  ASSERT_TRUE(await([&] { return admitted.load(); }, "starved admitted"));
  EXPECT_EQ(gate.waiting(), 0u);
  EXPECT_EQ(gate.usage(ResourceKind::kLLC), 1200.0);
  EXPECT_EQ(gate.oversubscribed(ResourceKind::kLLC), 600.0);
  finish = true;
  starved.join();
  EXPECT_EQ(starved.error, "");
  release = true;
  holder.join();
  EXPECT_EQ(holder.error, "");

  const GateStats stats = gate.stats();
  EXPECT_EQ(stats.monitor.watchdog_force_admissions, 1u);
  EXPECT_EQ(stats.monitor.demand_clamps, 0u);
  EXPECT_EQ(stats.monitor.begins, 3u);
  EXPECT_EQ(stats.monitor.begins, stats.monitor.ends);
  EXPECT_EQ(gate.oversubscribed(ResourceKind::kLLC), 0.0);
  EXPECT_EQ(gate.usage(ResourceKind::kLLC), 0.0);
}

TEST(FaultGate, ThreadExitReapReclaimsOrphanAndAdmitsWaiter) {
  // The native-substrate thread-death proof: a thread dies holding admitted
  // capacity, the exit guard reaps the orphan, and the freed capacity admits
  // the parked waiter — verified through the recorded obs event ledger.
  obs::EventRecorder recorder;
  GateConfig config = small_gate();
  config.reap_on_thread_exit = true;
  config.trace_sink = &recorder;
  AdmissionGate gate(config);

  std::atomic<bool> held{false};
  std::atomic<bool> die{false};
  Worker orphan([&] {
    gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh, "orphan");
    held = true;
    while (!die) std::this_thread::sleep_for(100us);
    // Exits WITHOUT end(): the thread-exit guard must reap the period.
  });
  ASSERT_TRUE(await([&] { return held.load(); }, "orphan admitted"));

  Worker waiter([&] {
    const core::PeriodId id = gate.begin(ResourceKind::kLLC, 600.0,
                                         ReuseLevel::kHigh, "waiter");
    gate.end(id);
  });
  ASSERT_TRUE(await([&] { return gate.waiting() == 1; }, "waiter parked"));

  die = true;
  orphan.join();  // the exit guard runs before join returns
  waiter.join();
  EXPECT_EQ(orphan.error, "");
  EXPECT_EQ(waiter.error, "");

  const GateStats stats = gate.stats();
  EXPECT_EQ(stats.monitor.reclaims, 1u);
  EXPECT_EQ(stats.monitor.begins, 2u);
  EXPECT_EQ(stats.monitor.ends, 1u);
  EXPECT_EQ(gate.usage(ResourceKind::kLLC), 0.0);
  EXPECT_EQ(gate.waiting(), 0u);

  // Event-ledger proof of reclamation + waiter admission.
  ASSERT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.count(obs::EventKind::kReclaim), 1u);
  const std::vector<obs::Event> events = recorder.events();
  bool reclaim_seen = false;
  bool wake_after_reclaim = false;
  for (const obs::Event& e : events) {
    if (e.kind == obs::EventKind::kReclaim) reclaim_seen = true;
    if (reclaim_seen && e.kind == obs::EventKind::kWake) {
      wake_after_reclaim = true;
    }
  }
  EXPECT_TRUE(wake_after_reclaim)
      << "waiter was not admitted by the orphan reclaim";
  const obs::ReconcileReport report = obs::reconcile(events, stats.monitor);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(report.still_blocked, 0u);
  EXPECT_EQ(report.still_admitted, 0u);
}

TEST(FaultGate, ThreadExitReapAfterGrantingKeepsWakeBuffersSound) {
  // The exiting thread granted a parked waiter earlier, so its recycled
  // wake batch holds capacity when the exit guard reaps it. That batch is a
  // thread_local destroyed before the guard runs; the reap must not hand
  // its freed buffers to the monitor. Later grants on other threads write
  // into the monitor's wake list, so a stale buffer shows under ASan.
  GateConfig config = small_gate();
  config.reap_on_thread_exit = true;
  AdmissionGate gate(config);
  auto cycle = [&gate](const char* label) {
    gate.end(gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh, label));
  };

  std::atomic<bool> first_held{false};
  std::atomic<bool> release{false};
  std::atomic<bool> second_held{false};
  std::atomic<bool> die{false};
  Worker exiting([&] {
    const core::PeriodId id =
        gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh, "first");
    first_held = true;
    while (!release) std::this_thread::sleep_for(100us);
    gate.end(id);  // grants the parked waiter through the slow lane
    gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh, "orphan");
    second_held = true;
    while (!die) std::this_thread::sleep_for(100us);
    // Exits WITHOUT end(): the reap grants the next waiter.
  });
  ASSERT_TRUE(await([&] { return first_held.load(); }, "first admitted"));

  Worker granted([&] { cycle("granted"); });
  ASSERT_TRUE(await([&] { return gate.waiting() == 1; }, "waiter parked"));
  release = true;
  granted.join();
  ASSERT_TRUE(await([&] { return second_held.load(); }, "orphan admitted"));

  Worker reaped([&] { cycle("reaped"); });
  ASSERT_TRUE(await([&] { return gate.waiting() == 1; }, "waiter parked"));
  die = true;
  exiting.join();  // the exit guard runs before join returns
  reaped.join();

  // More grants, each through the monitor's recycled wake list.
  for (int round = 0; round < 3; ++round) {
    const core::PeriodId held =
        gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh, "holder");
    Worker waiter([&] { cycle("after"); });
    ASSERT_TRUE(await([&] { return gate.waiting() == 1; }, "waiter parked"));
    gate.end(held);
    waiter.join();
    EXPECT_EQ(waiter.error, "");
  }
  EXPECT_EQ(exiting.error, "");
  EXPECT_EQ(granted.error, "");
  EXPECT_EQ(reaped.error, "");

  const GateStats stats = gate.stats();
  EXPECT_EQ(stats.monitor.reclaims, 1u);
  EXPECT_EQ(stats.monitor.begins, 10u);
  EXPECT_EQ(stats.monitor.ends, 9u);
  EXPECT_EQ(gate.usage(ResourceKind::kLLC), 0.0);
  EXPECT_EQ(gate.waiting(), 0u);
}

/// The timed-wait race matrix runs hardened: an (empty) injector switches
/// the gate to sliced waits without injecting anything.
struct HardenedTimedGate {
  fault::FaultInjector injector{fault::FaultPlan{}};
  AdmissionGate gate;

  HardenedTimedGate() : gate([this] {
    GateConfig config = small_gate();
    config.fault_injector = &injector;
    return config;
  }()) {}
};

TEST(FaultGate, TimedBeginConsumesGrantArrivingBeforeTimeout) {
  HardenedTimedGate h;
  std::atomic<bool> held{false};
  Worker holder([&] {
    const core::PeriodId id =
        h.gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh);
    held = true;
    // Release as soon as the timed waiter has parked.
    const auto ok = await([&] { return h.gate.waiting() == 1; },
                          "timed waiter parked");
    EXPECT_TRUE(ok);
    h.gate.end(id);
  });
  ASSERT_TRUE(await([&] { return held.load(); }, "holder admitted"));

  const std::optional<core::PeriodId> id =
      h.gate.begin_for(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh, 10s);
  holder.join();
  ASSERT_TRUE(id.has_value());
  h.gate.end(*id);

  const GateStats stats = h.gate.stats();
  EXPECT_EQ(stats.monitor.cancels, 0u);
  EXPECT_EQ(stats.monitor.ends, 2u);
  EXPECT_EQ(h.gate.usage(ResourceKind::kLLC), 0.0);
}

TEST(FaultGate, TimedBeginWithdrawsOnTimeout) {
  HardenedTimedGate h;
  std::atomic<bool> release{false};
  std::atomic<bool> held{false};
  Worker holder([&] {
    const core::PeriodId id =
        h.gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh);
    held = true;
    while (!release) std::this_thread::sleep_for(100us);
    h.gate.end(id);
  });
  ASSERT_TRUE(await([&] { return held.load(); }, "holder admitted"));

  const std::optional<core::PeriodId> id =
      h.gate.begin_for(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh, 30ms);
  EXPECT_FALSE(id.has_value());
  EXPECT_EQ(h.gate.stats().monitor.cancels, 1u);
  EXPECT_EQ(h.gate.usage(ResourceKind::kLLC), 600.0);  // only the holder

  release = true;
  holder.join();
  EXPECT_EQ(h.gate.usage(ResourceKind::kLLC), 0.0);
  const GateStats stats = h.gate.stats();
  EXPECT_EQ(stats.monitor.begins,
            stats.monitor.ends + stats.monitor.cancels);
}

TEST(FaultGate, TimedBeginObservesReapDuringWait) {
  HardenedTimedGate h;
  const core::PeriodId held =
      h.gate.begin(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh);

  std::atomic<std::uint32_t> token{0};
  std::atomic<bool> got_null{false};
  Worker waiter([&] {
    token = AdmissionGate::current_thread_token();
    const std::optional<core::PeriodId> id =
        h.gate.begin_for(ResourceKind::kLLC, 600.0, ReuseLevel::kHigh, 10s);
    got_null = !id.has_value();
    if (id.has_value()) h.gate.end(*id);
  });
  ASSERT_TRUE(await([&] { return h.gate.waiting() == 1; }, "waiter parked"));

  // Administrative reclaim of the live waiter: its sliced wait must observe
  // the eviction and give up well before the 10 s timeout.
  h.gate.reap_thread(token.load());
  waiter.join();
  EXPECT_EQ(waiter.error, "");
  EXPECT_TRUE(got_null.load());
  EXPECT_EQ(h.gate.stats().monitor.reclaims, 1u);
  EXPECT_EQ(h.gate.waiting(), 0u);

  h.gate.end(held);
  EXPECT_EQ(h.gate.usage(ResourceKind::kLLC), 0.0);
}

TEST(FaultGate, SweepReclaimsLeaseExpiredOrphan) {
  AdmissionGate gate(small_gate());
  Worker orphan([&] {
    gate.begin(ResourceKind::kLLC, 700.0, ReuseLevel::kHigh, "leak");
    // Exits without end(); reap_on_thread_exit is OFF, so only the lease
    // sweep can recover the capacity.
  });
  orphan.join();
  EXPECT_EQ(gate.usage(ResourceKind::kLLC), 700.0);

  gate.advance_epoch();
  gate.advance_epoch();
  gate.advance_epoch();
  EXPECT_EQ(gate.sweep(/*max_epoch_age=*/2), 1u);
  EXPECT_EQ(gate.stats().monitor.reclaims, 1u);
  EXPECT_EQ(gate.usage(ResourceKind::kLLC), 0.0);
  EXPECT_EQ(gate.sweep(2), 0u);
}

}  // namespace
}  // namespace rda::rt
