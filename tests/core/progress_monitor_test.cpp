#include "core/progress_monitor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.hpp"
#include "util/units.hpp"
#include "wake_log.hpp"

namespace rda::core {
namespace {

using rda::util::MB;

/// Fixture wiring monitor + strict/compromise predicate + a wake recorder.
class MonitorFixture {
 public:
  explicit MonitorFixture(PolicyKind kind, MonitorOptions options = {})
      : predicate_(policy_factor(kind, 2.0), resources_),
        monitor_(predicate_, resources_, options) {
    resources_.set_capacity(ResourceKind::kLLC, static_cast<double>(MB(15)));
    resources_.set_admission_bound(
        ResourceKind::kLLC, predicate_.bound(static_cast<double>(MB(15))));
    monitor_.set_batch_waker(log_wakes(woken_));
  }

  ProgressMonitor::BeginOutcome begin(sim::ThreadId thread,
                                      sim::ProcessId process, double mb) {
    PeriodRecord r;
    r.thread = thread;
    r.process = process;
    r.set_single(ResourceKind::kLLC, static_cast<double>(MB(mb)));
    r.reuse = ReuseLevel::kHigh;
    return monitor_.begin_period(std::move(r), now_ += 1.0);
  }

  void end(PeriodId id) { monitor_.end_period(id, now_ += 1.0); }

  double usage() const { return resources_.usage(ResourceKind::kLLC); }

  ResourceMonitor resources_;
  SchedulingPredicate predicate_;
  ProgressMonitor monitor_;
  std::vector<sim::ThreadId> woken_;
  double now_ = 0.0;
};

TEST(ProgressMonitor, AdmitsWhileCapacityLasts) {
  MonitorFixture fx(PolicyKind::kStrict);
  EXPECT_TRUE(fx.begin(1, 1, 6.0).admitted);
  EXPECT_TRUE(fx.begin(2, 2, 6.0).admitted);
  EXPECT_NEAR(fx.usage(), static_cast<double>(MB(12)), 1.0);
  // Third 6 MB request exceeds 15 MB: parked.
  const auto third = fx.begin(3, 3, 6.0);
  EXPECT_FALSE(third.admitted);
  EXPECT_EQ(fx.monitor_.waitlist().size(), 1u);
  EXPECT_NEAR(fx.usage(), static_cast<double>(MB(12)), 1.0);  // unchanged
}

TEST(ProgressMonitor, EndReleasesAndWakesFifo) {
  MonitorFixture fx(PolicyKind::kStrict);
  const auto a = fx.begin(1, 1, 8.0);
  const auto b = fx.begin(2, 2, 8.0);  // parked
  const auto c = fx.begin(3, 3, 8.0);  // parked
  ASSERT_TRUE(a.admitted);
  ASSERT_FALSE(b.admitted);
  ASSERT_FALSE(c.admitted);
  fx.end(a.id);
  // Only one 8 MB fits; FIFO means thread 2 first.
  ASSERT_EQ(fx.woken_.size(), 1u);
  EXPECT_EQ(fx.woken_[0], 2u);
  EXPECT_EQ(fx.monitor_.waitlist().size(), 1u);
  fx.end(b.id);
  ASSERT_EQ(fx.woken_.size(), 2u);
  EXPECT_EQ(fx.woken_[1], 3u);
}

TEST(ProgressMonitor, WorkConservingScanSkipsBigHead) {
  MonitorFixture fx(PolicyKind::kStrict);
  const auto a = fx.begin(1, 1, 10.0);
  const auto big = fx.begin(2, 2, 14.0);  // parked (needs 14)
  const auto small = fx.begin(3, 3, 6.0); // parked (only 5 left)
  ASSERT_TRUE(a.admitted);
  ASSERT_FALSE(big.admitted);
  ASSERT_FALSE(small.admitted);
  fx.end(a.id);
  // 15 MB free: big (14) fits and is taken first; small (6) no longer fits.
  ASSERT_EQ(fx.woken_.size(), 1u);
  EXPECT_EQ(fx.woken_[0], 2u);
  fx.end(big.id);
  ASSERT_EQ(fx.woken_.size(), 2u);
  EXPECT_EQ(fx.woken_[1], 3u);
}

TEST(ProgressMonitor, HeadOnlyScanPreservesArrivalOrder) {
  MonitorOptions options;
  options.work_conserving = false;
  MonitorFixture fx(PolicyKind::kStrict, options);
  const auto a = fx.begin(1, 1, 10.0);
  fx.begin(2, 2, 14.0);                    // parked head
  const auto small = fx.begin(3, 3, 6.0);  // parked behind the head
  (void)small;
  ASSERT_TRUE(a.admitted);
  EXPECT_EQ(fx.monitor_.waitlist().size(), 2u);
  fx.end(a.id);
  // Head-only: the 14 MB head is admitted, then scanning stops; the 6 MB
  // entry stays queued (it would not fit anyway, but head-only would not
  // even look).
  ASSERT_EQ(fx.woken_.size(), 1u);
  EXPECT_EQ(fx.woken_[0], 2u);
  EXPECT_EQ(fx.monitor_.waitlist().size(), 1u);
}

TEST(ProgressMonitor, CompromiseAllowsOversubscription) {
  MonitorFixture fx(PolicyKind::kCompromise);
  // 2x15 = 30 MB allowed.
  EXPECT_TRUE(fx.begin(1, 1, 12.0).admitted);
  EXPECT_TRUE(fx.begin(2, 2, 12.0).admitted);
  EXPECT_TRUE(fx.begin(3, 3, 6.0).admitted);  // exactly 30
  EXPECT_FALSE(fx.begin(4, 4, 1.0).admitted);
}

TEST(ProgressMonitor, OversizedDemandForcedWhenAlone) {
  MonitorFixture fx(PolicyKind::kStrict);
  // 20 MB > capacity, but nothing else is running: liveness override.
  const auto outcome = fx.begin(1, 1, 20.0);
  EXPECT_TRUE(outcome.admitted);
  EXPECT_TRUE(outcome.forced);
  EXPECT_EQ(fx.monitor_.stats().forced_admissions, 1u);
}

TEST(ProgressMonitor, OversizedDemandWaitsThenForced) {
  MonitorFixture fx(PolicyKind::kStrict);
  const auto small = fx.begin(1, 1, 4.0);
  const auto big = fx.begin(2, 2, 20.0);  // cannot ever fit normally
  ASSERT_TRUE(small.admitted);
  ASSERT_FALSE(big.admitted);
  fx.end(small.id);
  // Resource empty -> head force-admitted.
  ASSERT_EQ(fx.woken_.size(), 1u);
  EXPECT_EQ(fx.woken_[0], 2u);
  fx.end(big.id);
  EXPECT_NEAR(fx.usage(), 0.0, 1e-6);
}

TEST(ProgressMonitor, EndOfWaitlistedPeriodRejected) {
  MonitorFixture fx(PolicyKind::kStrict);
  const auto a = fx.begin(1, 1, 10.0);
  const auto parked = fx.begin(2, 2, 10.0);
  ASSERT_TRUE(a.admitted);
  ASSERT_FALSE(parked.admitted);
  // Ending a period that never ran is a caller bug.
  EXPECT_THROW(fx.end(parked.id), util::CheckFailure);
}

TEST(ProgressMonitor, CancelWaitingWithdrawsRequest) {
  MonitorFixture fx(PolicyKind::kStrict);
  const auto a = fx.begin(1, 1, 10.0);
  const auto parked = fx.begin(2, 2, 10.0);
  EXPECT_TRUE(fx.monitor_.cancel_waiting(parked.id, 1.0));
  EXPECT_EQ(fx.monitor_.waitlist().size(), 0u);
  EXPECT_EQ(fx.monitor_.stats().cancels, 1u);
  // Cancelling an admitted or unknown period fails.
  EXPECT_FALSE(fx.monitor_.cancel_waiting(a.id, 1.0));
  EXPECT_FALSE(fx.monitor_.cancel_waiting(9999, 1.0));
  EXPECT_EQ(fx.monitor_.stats().cancels, 1u);
  fx.end(a.id);
  EXPECT_TRUE(fx.woken_.empty());  // nobody left to wake
}

// Regression: a timed-out / withdrawn waiter used to leave its pool
// disabled (§3.4) with nobody left to re-enable it — every later member
// request parked forever unless some unrelated end_period happened to run
// a rescan. cancel_waiting must rescan, which clears a pool whose last
// waiting member just left.
TEST(ProgressMonitor, CancelReenablesStrandedPool) {
  MonitorOptions options;
  options.pool_guard = true;
  MonitorFixture fx(PolicyKind::kStrict, options);
  fx.monitor_.mark_pool(7);
  const auto solo = fx.begin(1, 1, 12.0);
  ASSERT_TRUE(solo.admitted);
  // Pool member denied (12 + 5 > 15): pool disabled, member parked.
  const auto m1 = fx.begin(10, 7, 5.0);
  ASSERT_FALSE(m1.admitted);
  ASSERT_TRUE(fx.monitor_.pool_disabled(7));
  // The member gives up (begin_for timeout). No pool member waits anymore,
  // so the pool must come back out of the §3.4 pause.
  ASSERT_TRUE(fx.monitor_.cancel_waiting(m1.id, fx.now_));
  EXPECT_FALSE(fx.monitor_.pool_disabled(7));
  // A fitting member request (12 + 2 < 15) is admitted immediately again.
  const auto m2 = fx.begin(11, 7, 2.0);
  EXPECT_TRUE(m2.admitted);
}

// Regression companion: cancelling one member of a paused pool shrinks the
// group's demand sum — the remaining members may now fit as a group, so
// cancel_waiting must rescan instead of leaving them parked until some
// unrelated end_period.
TEST(ProgressMonitor, CancelShrinksPoolGroupAndAdmitsRest) {
  MonitorOptions options;
  options.pool_guard = true;
  MonitorFixture fx(PolicyKind::kStrict, options);
  fx.monitor_.mark_pool(7);
  const auto solo = fx.begin(1, 1, 10.0);
  ASSERT_TRUE(solo.admitted);
  // m1 denied (10 + 8 > 15): pool disabled; m2 parks behind the pause.
  const auto m1 = fx.begin(10, 7, 8.0);
  const auto m2 = fx.begin(11, 7, 4.0);
  ASSERT_FALSE(m1.admitted);
  ASSERT_FALSE(m2.admitted);
  ASSERT_TRUE(fx.monitor_.pool_disabled(7));
  // m1 gives up. The remaining group sum (4 MB) fits next to the solo
  // 10 MB, so the rescan admits the rest of the pool right now.
  ASSERT_TRUE(fx.monitor_.cancel_waiting(m1.id, fx.now_));
  EXPECT_FALSE(fx.monitor_.pool_disabled(7));
  ASSERT_EQ(fx.woken_.size(), 1u);
  EXPECT_EQ(fx.woken_[0], 11u);
  fx.end(solo.id);
  fx.end(m2.id);
  EXPECT_NEAR(fx.usage(), 0.0, 1e-6);
}

TEST(ProgressMonitor, PoolDisabledOnFirstDenial) {
  MonitorOptions options;
  options.pool_guard = true;
  MonitorFixture fx(PolicyKind::kStrict, options);
  fx.monitor_.mark_pool(7);
  const auto solo = fx.begin(1, 1, 12.0);
  ASSERT_TRUE(solo.admitted);
  // Pool member denied -> pool disabled.
  const auto m1 = fx.begin(10, 7, 5.0);
  EXPECT_FALSE(m1.admitted);
  EXPECT_TRUE(fx.monitor_.pool_disabled(7));
  EXPECT_EQ(fx.monitor_.stats().pool_disables, 1u);
  // Another member would individually fit (3 < 15-12) but the pool is
  // disabled: parked too (§3.4 "disables the whole thread pool").
  const auto m2 = fx.begin(11, 7, 2.9);
  EXPECT_FALSE(m2.admitted);
  // Release: 5 + 2.9 fits into 15 -> whole group admitted together.
  fx.end(solo.id);
  EXPECT_FALSE(fx.monitor_.pool_disabled(7));
  ASSERT_EQ(fx.woken_.size(), 2u);
  EXPECT_EQ(fx.monitor_.stats().pool_group_admissions, 1u);
}

TEST(ProgressMonitor, PoolWaitsUntilWholeGroupFits) {
  MonitorOptions options;
  options.pool_guard = true;
  MonitorFixture fx(PolicyKind::kStrict, options);
  fx.monitor_.mark_pool(7);
  const auto a = fx.begin(1, 1, 8.0);
  const auto b = fx.begin(2, 2, 6.0);
  // Two pool members of 6 MB each: group needs 12.
  const auto m1 = fx.begin(10, 7, 6.0);
  const auto m2 = fx.begin(11, 7, 6.0);
  (void)m1;
  (void)m2;
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  // Ending b leaves 8 used, 7 free: group (12) still does not fit.
  fx.end(b.id);
  EXPECT_TRUE(fx.monitor_.pool_disabled(7));
  EXPECT_TRUE(fx.woken_.empty());
  // Ending a frees everything: group fits now.
  fx.end(a.id);
  EXPECT_FALSE(fx.monitor_.pool_disabled(7));
  EXPECT_EQ(fx.woken_.size(), 2u);
}

TEST(ProgressMonitor, PoolGuardOffTreatsMembersIndividually) {
  MonitorOptions options;
  options.pool_guard = false;
  MonitorFixture fx(PolicyKind::kStrict, options);
  fx.monitor_.mark_pool(7);
  const auto solo = fx.begin(1, 1, 12.0);
  ASSERT_TRUE(solo.admitted);
  EXPECT_FALSE(fx.begin(10, 7, 5.0).admitted);
  // With the guard off, a fitting member is admitted individually.
  EXPECT_TRUE(fx.begin(11, 7, 2.0).admitted);
  EXPECT_FALSE(fx.monitor_.pool_disabled(7));
}

TEST(ProgressMonitor, StatsTrackLifecycle) {
  MonitorFixture fx(PolicyKind::kStrict);
  const auto a = fx.begin(1, 1, 10.0);
  const auto b = fx.begin(2, 2, 10.0);
  fx.end(a.id);
  fx.end(b.id);
  const MonitorStats& s = fx.monitor_.stats();
  EXPECT_EQ(s.begins, 2u);
  EXPECT_EQ(s.ends, 2u);
  EXPECT_EQ(s.immediate_admissions, 1u);
  EXPECT_EQ(s.blocks, 1u);
  EXPECT_EQ(s.wakes, 1u);
}

TEST(ProgressMonitor, CascadingAdmissionsOnOneRelease) {
  MonitorFixture fx(PolicyKind::kStrict);
  const auto big = fx.begin(1, 1, 14.0);
  const auto s1 = fx.begin(2, 2, 5.0);
  const auto s2 = fx.begin(3, 3, 5.0);
  const auto s3 = fx.begin(4, 4, 4.0);
  (void)s1;
  (void)s2;
  (void)s3;
  fx.end(big.id);
  // All three small periods (14 MB total) fit after the big one leaves.
  EXPECT_EQ(fx.woken_.size(), 3u);
}

}  // namespace
}  // namespace rda::core
