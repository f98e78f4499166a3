// Starvation-watchdog and orphan-reclamation tests: every rung of the
// degradation ladder (clamp -> forced oversubscribed admit -> reject), the
// three escalation triggers (wake rounds, wait time, substrate stall), and
// the lease/reap/sweep lifecycle — all on the shared AdmissionCore.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "core/admission.hpp"
#include "obs/recorder.hpp"
#include "util/units.hpp"
#include "wake_log.hpp"

namespace rda::core {
namespace {

double mb(double v) { return static_cast<double>(rda::util::MB(v)); }

AdmitRequest request(sim::ThreadId thread, double demand,
                     std::string label = "pp") {
  AdmitRequest r;
  r.thread = thread;
  r.process = thread;  // singleton groups, like the native gate's default
  r.demands = {{ResourceKind::kLLC, demand}};
  r.label = std::move(label);
  return r;
}

AdmissionConfig watchdog_config(WatchdogOptions watchdog) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  watchdog.enable = true;
  config.monitor.watchdog = watchdog;
  return config;
}

/// Drives one waitlist rescan: a small helper period is admitted and
/// immediately released (release is the only rescan site the substrates
/// exercise), aging every parked entry by one wake round.
void pulse(AdmissionCore& core, sim::ThreadId thread, double now) {
  const AdmitTicket t = core.admit(request(thread, mb(1), "pulse"), now);
  ASSERT_TRUE(t.admitted);
  core.release(t.id, {}, now + 0.01);
}

TEST(Watchdog, RungOneClampsInfeasibleDemandAndAdmits) {
  WatchdogOptions wd;
  wd.max_wake_rounds = 1;
  wd.clamp_fraction = 0.5;  // bound = 8 MB on the 16 MB LLC
  AdmissionCore core(watchdog_config(wd));
  obs::EventRecorder recorder;
  core.set_trace_sink(&recorder);
  std::vector<sim::ThreadId> woken;
  core.set_batch_waker(log_wakes(woken));

  const AdmitTicket holder = core.admit(request(1, mb(6)), 0.0);
  ASSERT_TRUE(holder.admitted);
  const AdmitTicket big = core.admit(request(2, mb(24)), 0.1);
  ASSERT_FALSE(big.admitted);  // can never fit un-clamped

  pulse(core, 3, 0.2);  // one fruitless wake round -> escalation

  // Clamped to 8 MB, which fits next to the 6 MB holder.
  EXPECT_EQ(core.stats().demand_clamps, 1u);
  EXPECT_EQ(recorder.count(obs::EventKind::kDemandClamp), 1u);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 2u);
  EXPECT_TRUE(core.is_admitted(big.id));
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(6) + mb(8));
  // The clamp is a normal admission: no oversubscription was booked.
  EXPECT_EQ(core.resources().oversubscribed(ResourceKind::kLLC), 0.0);

  core.release(big.id, {}, 1.0);
  core.release(holder.id, {}, 1.1);
  EXPECT_TRUE(core.resources().effectively_free(ResourceKind::kLLC));
}

TEST(Watchdog, RungTwoForceAdmitsWithOversubscriptionTally) {
  WatchdogOptions wd;
  wd.max_wake_rounds = 1;
  wd.clamp = false;  // rung 1 disabled -> the escalation falls through
  AdmissionCore core(watchdog_config(wd));
  obs::EventRecorder recorder;
  core.set_trace_sink(&recorder);
  std::vector<sim::ThreadId> woken;
  core.set_batch_waker(log_wakes(woken));

  const AdmitTicket holder = core.admit(request(1, mb(10)), 0.0);
  ASSERT_TRUE(holder.admitted);
  const AdmitTicket starved = core.admit(request(2, mb(12)), 0.1);
  ASSERT_FALSE(starved.admitted);

  pulse(core, 3, 0.2);

  EXPECT_EQ(core.stats().watchdog_force_admissions, 1u);
  EXPECT_EQ(core.stats().forced_admissions, 1u);
  EXPECT_EQ(recorder.count(obs::EventKind::kForceAdmit), 1u);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 2u);
  EXPECT_TRUE(core.is_admitted(starved.id));
  // The forced charge is mirrored into the oversubscription tally so the
  // conservation ledger can attribute the over-capacity usage.
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(22));
  EXPECT_EQ(core.resources().oversubscribed(ResourceKind::kLLC), mb(12));

  core.release(starved.id, {}, 1.0);
  EXPECT_EQ(core.resources().oversubscribed(ResourceKind::kLLC), 0.0);
  core.release(holder.id, {}, 1.1);
  EXPECT_TRUE(core.resources().effectively_free(ResourceKind::kLLC));
}

TEST(Watchdog, RungThreeRejectsAndSurfacesTheEviction) {
  WatchdogOptions wd;
  wd.max_wake_rounds = 1;
  wd.clamp = false;
  wd.force_admit = false;  // rungs 1+2 disabled -> straight to rejection
  AdmissionCore core(watchdog_config(wd));
  obs::EventRecorder recorder;
  core.set_trace_sink(&recorder);
  std::vector<sim::ThreadId> woken;
  core.set_batch_waker(log_wakes(woken));

  const AdmitTicket holder = core.admit(request(1, mb(10)), 0.0);
  const AdmitTicket starved = core.admit(request(2, mb(12)), 0.1);
  ASSERT_FALSE(starved.admitted);

  pulse(core, 3, 0.2);

  EXPECT_EQ(core.stats().rejections, 1u);
  EXPECT_EQ(recorder.count(obs::EventKind::kReject), 1u);
  EXPECT_TRUE(woken.empty());  // a rejection never gets a Waker grant
  EXPECT_TRUE(core.monitor().waitlist().empty());
  EXPECT_TRUE(core.is_rejected(starved.id));
  const std::vector<sim::ThreadId> rejected = core.rejected_threads();
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0], 2u);

  // The owner consumes the rejection exactly once, by thread or by period.
  const std::optional<PeriodId> taken = core.take_rejection_for_thread(2);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(*taken, starved.id);
  EXPECT_FALSE(core.is_rejected(starved.id));
  EXPECT_FALSE(core.take_rejection(starved.id));

  core.release(holder.id, {}, 1.0);
  EXPECT_TRUE(core.resources().effectively_free(ResourceKind::kLLC));
}

TEST(Watchdog, TimeTriggerEscalatesOnlyAfterTheDeadline) {
  WatchdogOptions wd;
  wd.max_wake_rounds = 0;  // round trigger off: only time can escalate
  wd.max_wait_seconds = 1.0;
  wd.clamp_fraction = 0.5;
  AdmissionCore core(watchdog_config(wd));
  std::vector<sim::ThreadId> woken;
  core.set_batch_waker(log_wakes(woken));

  core.admit(request(1, mb(6)), 0.0);
  const AdmitTicket big = core.admit(request(2, mb(24)), 0.1);
  ASSERT_FALSE(big.admitted);

  EXPECT_FALSE(core.watchdog_tick(0.5));  // not starved long enough yet
  EXPECT_TRUE(woken.empty());
  EXPECT_TRUE(core.watchdog_tick(2.0));
  EXPECT_EQ(core.stats().demand_clamps, 1u);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 2u);
}

TEST(Watchdog, StallTriggerEscalatesImmediately) {
  // The substrate proved nothing can progress: no round/time trigger is
  // configured, yet the stalled escalation must still move the waiter.
  WatchdogOptions wd;
  wd.clamp_fraction = 0.5;
  AdmissionCore core(watchdog_config(wd));
  std::vector<sim::ThreadId> woken;
  core.set_batch_waker(log_wakes(woken));

  core.admit(request(1, mb(6)), 0.0);
  const AdmitTicket big = core.admit(request(2, mb(24)), 0.1);
  ASSERT_FALSE(big.admitted);

  EXPECT_TRUE(core.watchdog_stalled(0.5));
  EXPECT_TRUE(core.is_admitted(big.id));
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_FALSE(core.watchdog_stalled(0.6));  // nothing left to escalate
}

TEST(Watchdog, DisabledWatchdogNeverEscalates) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);

  core.admit(request(1, mb(10)), 0.0);
  const AdmitTicket starved = core.admit(request(2, mb(12)), 0.1);
  ASSERT_FALSE(starved.admitted);
  for (int i = 0; i < 5; ++i) pulse(core, 3, 0.2 + 0.1 * i);
  EXPECT_FALSE(core.watchdog_tick(100.0));
  EXPECT_FALSE(core.watchdog_stalled(100.0));
  EXPECT_FALSE(core.is_admitted(starved.id));
  EXPECT_EQ(core.stats().demand_clamps, 0u);
  EXPECT_EQ(core.stats().rejections, 0u);
  EXPECT_EQ(core.monitor().waitlist().size(), 1u);
}

/// The watchdog's visible footprint, in order: (kind, thread) of every
/// kDemandClamp / kForceAdmit / kWake event.
using Move = std::pair<obs::EventKind, sim::ThreadId>;
std::vector<Move> watchdog_moves(const obs::EventRecorder& recorder) {
  std::vector<Move> out;
  for (const obs::Event& e : recorder.events()) {
    if (e.kind == obs::EventKind::kDemandClamp ||
        e.kind == obs::EventKind::kForceAdmit ||
        e.kind == obs::EventKind::kWake) {
      out.emplace_back(e.kind, e.thread);
    }
  }
  return out;
}

// Three waiters reach the round threshold in the same rescan and are
// escalated in FIFO order: the first is clamped and admitted, the second
// is clamped and keeps waiting, the third is feasible but starved behind
// the head-only scan and is force-admitted. The next rescan escalates the
// clamped waiter again, from rung 1 to rung 2.
TEST(Watchdog, RoundTriggerEscalatesInFifoOrder) {
  WatchdogOptions wd;
  wd.max_wake_rounds = 1;
  wd.clamp_fraction = 0.5;  // bound = 8 MB on the 16 MB LLC
  AdmissionConfig config = watchdog_config(wd);
  config.monitor.work_conserving = false;  // a non-fitting head blocks
  AdmissionCore core(config);
  obs::EventRecorder recorder;
  core.set_trace_sink(&recorder);
  std::vector<sim::ThreadId> woken;
  core.set_batch_waker(log_wakes(woken));

  const AdmitTicket h1 = core.admit(request(1, mb(6)), 0.0);
  const AdmitTicket h2 = core.admit(request(2, mb(4)), 0.01);
  ASSERT_TRUE(h1.admitted && h2.admitted);
  ASSERT_FALSE(core.admit(request(3, mb(24)), 0.1).admitted);
  ASSERT_FALSE(core.admit(request(4, mb(20)), 0.2).admitted);
  ASSERT_FALSE(core.admit(request(5, mb(8)), 0.3).admitted);

  core.release(h2.id, {}, 1.0);  // one rescan: the head (24 MB) blocks it
  using K = obs::EventKind;
  EXPECT_EQ(watchdog_moves(recorder),
            (std::vector<Move>{{K::kDemandClamp, 3},
                               {K::kWake, 3},
                               {K::kDemandClamp, 4},
                               {K::kForceAdmit, 5},
                               {K::kWake, 5}}));
  EXPECT_EQ(woken, (std::vector<sim::ThreadId>{3, 5}));
  EXPECT_EQ(core.stats().demand_clamps, 2u);
  EXPECT_EQ(core.stats().watchdog_force_admissions, 1u);
  EXPECT_EQ(core.stats().forced_admissions, 1u);
  EXPECT_EQ(core.stats().wakes, 2u);
  EXPECT_EQ(core.stats().rejections, 0u);
  EXPECT_EQ(core.monitor().waitlist().size(), 1u);
  EXPECT_EQ(core.resources().oversubscribed(ResourceKind::kLLC), mb(8));

  core.release(h1.id, {}, 2.0);  // the clamped waiter's next round
  EXPECT_EQ(watchdog_moves(recorder).size(), 7u);
  EXPECT_EQ(watchdog_moves(recorder)[5], Move(K::kForceAdmit, 4));
  EXPECT_EQ(watchdog_moves(recorder)[6], Move(K::kWake, 4));
  EXPECT_EQ(core.stats().demand_clamps, 2u);
  EXPECT_EQ(core.stats().watchdog_force_admissions, 2u);
  EXPECT_EQ(core.stats().wakes, 3u);
  EXPECT_TRUE(core.monitor().waitlist().empty());
}

// Two waiters pass max_wait_seconds in the same watchdog_tick and are both
// escalated, in FIFO order; a later arrival waits for its own deadline,
// measured from its enqueue, and every deadline restarts at escalation.
TEST(Watchdog, TimeTriggerEscalatesEveryExpiredWaiterInFifoOrder) {
  WatchdogOptions wd;
  wd.max_wake_rounds = 0;
  wd.max_wait_seconds = 1.0;
  wd.clamp_fraction = 0.5;
  AdmissionCore core(watchdog_config(wd));
  obs::EventRecorder recorder;
  core.set_trace_sink(&recorder);
  std::vector<sim::ThreadId> woken;
  core.set_batch_waker(log_wakes(woken));

  ASSERT_TRUE(core.admit(request(1, mb(10)), 0.0).admitted);
  ASSERT_FALSE(core.admit(request(2, mb(24)), 0.1).admitted);
  ASSERT_FALSE(core.admit(request(3, mb(12)), 0.2).admitted);
  ASSERT_FALSE(core.admit(request(4, mb(7)), 1.5).admitted);

  using K = obs::EventKind;
  EXPECT_TRUE(core.watchdog_tick(2.0));  // 2 and 3 clamped to 8 MB; parked
  EXPECT_EQ(watchdog_moves(recorder),
            (std::vector<Move>{{K::kDemandClamp, 2}, {K::kDemandClamp, 3}}));
  EXPECT_TRUE(core.watchdog_tick(2.5));  // only 4's deadline has passed
  EXPECT_TRUE(core.watchdog_tick(3.0));  // 2 and 3 climb to rung 2
  EXPECT_EQ(watchdog_moves(recorder),
            (std::vector<Move>{{K::kDemandClamp, 2},
                               {K::kDemandClamp, 3},
                               {K::kForceAdmit, 4},
                               {K::kWake, 4},
                               {K::kForceAdmit, 2},
                               {K::kWake, 2},
                               {K::kForceAdmit, 3},
                               {K::kWake, 3}}));
  EXPECT_EQ(woken, (std::vector<sim::ThreadId>{4, 2, 3}));
  EXPECT_EQ(core.stats().demand_clamps, 2u);
  EXPECT_EQ(core.stats().watchdog_force_admissions, 3u);
  EXPECT_EQ(core.stats().forced_admissions, 3u);
  EXPECT_EQ(core.stats().wakes, 3u);
  EXPECT_EQ(core.stats().rejections, 0u);
  EXPECT_FALSE(core.watchdog_tick(10.0));  // nothing parked
}

TEST(Reclaim, ReapAdmittedOrphanReturnsLoadAndWakesWaiter) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);
  obs::EventRecorder recorder;
  core.set_trace_sink(&recorder);
  std::vector<sim::ThreadId> woken;
  core.set_batch_waker(log_wakes(woken));

  const AdmitTicket orphan = core.admit(request(1, mb(6)), 0.0);
  ASSERT_TRUE(orphan.admitted);
  const AdmitTicket waiter = core.admit(request(2, mb(14)), 0.1);
  ASSERT_FALSE(waiter.admitted);

  const ProgressMonitor::ReapOutcome outcome = core.reap(1, 0.5);
  EXPECT_TRUE(outcome.reaped);
  EXPECT_TRUE(outcome.was_admitted);
  EXPECT_EQ(outcome.period, orphan.id);
  EXPECT_EQ(core.stats().reclaims, 1u);
  EXPECT_EQ(recorder.count(obs::EventKind::kReclaim), 1u);

  // The freed capacity admitted the parked waiter in the same reap.
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 2u);
  EXPECT_TRUE(core.is_admitted(waiter.id));
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(14));
  EXPECT_FALSE(core.active_for_thread(1).has_value());

  core.release(waiter.id, {}, 1.0);
  EXPECT_TRUE(core.resources().effectively_free(ResourceKind::kLLC));
}

TEST(Reclaim, ReapWaitlistedOrphanEvictsEntry) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);
  std::vector<sim::ThreadId> woken;
  core.set_batch_waker(log_wakes(woken));

  const AdmitTicket holder = core.admit(request(1, mb(12)), 0.0);
  const AdmitTicket parked = core.admit(request(2, mb(12)), 0.1);
  ASSERT_FALSE(parked.admitted);

  const ProgressMonitor::ReapOutcome outcome =
      core.reap(2, 0.5, /*remember_waiter=*/true);
  EXPECT_TRUE(outcome.reaped);
  EXPECT_FALSE(outcome.was_admitted);
  EXPECT_EQ(core.stats().reclaims, 1u);
  EXPECT_TRUE(core.monitor().waitlist().empty());
  EXPECT_TRUE(woken.empty());
  // A live waiter polling on the period observes the eviction exactly once.
  EXPECT_TRUE(core.is_reclaimed(parked.id));
  EXPECT_TRUE(core.take_reclaimed(parked.id));
  EXPECT_FALSE(core.take_reclaimed(parked.id));
  // The holder's load was untouched.
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(12));
  core.release(holder.id, {}, 1.0);
}

TEST(Reclaim, ReapWithoutActivePeriodIsNoop) {
  AdmissionCore core;
  const ProgressMonitor::ReapOutcome outcome = core.reap(42, 0.0);
  EXPECT_FALSE(outcome.reaped);
  EXPECT_EQ(core.stats().reclaims, 0u);
}

TEST(Reclaim, SweepReapsOnlyLeaseExpiredPeriods) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);

  const AdmitTicket stale = core.admit(request(1, mb(6)), 0.0);
  core.advance_epoch();
  core.advance_epoch();
  core.advance_epoch();
  const AdmitTicket fresh = core.admit(request(2, mb(4)), 0.1);

  // Age 3 for the stale lease, 0 for the fresh one.
  EXPECT_EQ(core.sweep(/*max_epoch_age=*/2, 0.5), 1u);
  EXPECT_EQ(core.stats().reclaims, 1u);
  EXPECT_FALSE(core.active_for_thread(1).has_value());
  EXPECT_TRUE(core.is_admitted(fresh.id));
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(4));
  EXPECT_EQ(core.sweep(2, 0.6), 0u);  // nothing stale remains

  core.release(fresh.id, {}, 1.0);
  (void)stale;
}

TEST(Reclaim, HeartbeatRefreshesLeaseAndPreventsSweep) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);

  const AdmitTicket held = core.admit(request(1, mb(6)), 0.0);
  core.advance_epoch();
  core.advance_epoch();
  core.advance_epoch();
  core.heartbeat(1);  // live thread refreshes its lease to the current epoch
  EXPECT_EQ(core.sweep(2, 0.5), 0u);
  EXPECT_TRUE(core.is_admitted(held.id));
  core.heartbeat(99);  // unknown thread: no-op
  core.release(held.id, {}, 1.0);
}

}  // namespace
}  // namespace rda::core
