#include "core/rda_scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/recorder.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace rda::core {
namespace {

using rda::util::MB;

sim::PhaseSpec phase(double mb, ReuseLevel reuse = ReuseLevel::kHigh) {
  sim::PhaseSpec p;
  p.flops = 1e9;
  p.wss_bytes = MB(mb);
  p.reuse = reuse;
  p.marked = true;
  p.label = "pp";
  return p;
}

class RecordingWaker : public sim::ThreadWaker {
 public:
  void wake(sim::ThreadId thread) override { woken.push_back(thread); }
  std::vector<sim::ThreadId> woken;
};

RdaScheduler make_sched(PolicyKind kind, bool fast_path = false) {
  RdaOptions options;
  options.policy = kind;
  options.fast_path = fast_path;
  return RdaScheduler(static_cast<double>(MB(15)), sim::Calibration{},
                      options);
}

TEST(RdaScheduler, AdmitsAndTracksLoad) {
  RdaScheduler sched = make_sched(PolicyKind::kStrict);
  RecordingWaker waker;
  sched.attach(waker);
  const auto r1 = sched.on_phase_begin(1, 1, phase(6), 0.0);
  EXPECT_TRUE(r1.admit);
  EXPECT_NEAR(sched.resources().usage(ResourceKind::kLLC),
              static_cast<double>(MB(6)), 1.0);
  sched.on_phase_end(1, 1, phase(6), sim::PhaseObservation{}, 1.0);
  EXPECT_NEAR(sched.resources().usage(ResourceKind::kLLC), 0.0, 1e-6);
}

TEST(RdaScheduler, DeniesOverCapacityAndWakesOnEnd) {
  RdaScheduler sched = make_sched(PolicyKind::kStrict);
  RecordingWaker waker;
  sched.attach(waker);
  EXPECT_TRUE(sched.on_phase_begin(1, 1, phase(10), 0.0).admit);
  EXPECT_FALSE(sched.on_phase_begin(2, 2, phase(10), 0.1).admit);
  EXPECT_TRUE(waker.woken.empty());
  sched.on_phase_end(1, 1, phase(10), sim::PhaseObservation{}, 1.0);
  ASSERT_EQ(waker.woken.size(), 1u);
  EXPECT_EQ(waker.woken[0], 2u);
  // The woken thread's period is already admitted and holds load.
  EXPECT_NEAR(sched.resources().usage(ResourceKind::kLLC),
              static_cast<double>(MB(10)), 1.0);
  sched.on_phase_end(2, 2, phase(10), sim::PhaseObservation{}, 2.0);
  EXPECT_NEAR(sched.resources().usage(ResourceKind::kLLC), 0.0, 1e-6);
}

TEST(RdaScheduler, SlowPathCostByDefault) {
  RdaScheduler sched = make_sched(PolicyKind::kStrict, /*fast_path=*/false);
  RecordingWaker waker;
  sched.attach(waker);
  const sim::Calibration calib;
  for (int i = 0; i < 3; ++i) {
    const auto begin = sched.on_phase_begin(1, 1, phase(2), 0.0);
    EXPECT_DOUBLE_EQ(begin.call_cost, calib.api_call_cost) << i;
    const auto end = sched.on_phase_end(1, 1, phase(2), sim::PhaseObservation{}, 0.0);
    EXPECT_DOUBLE_EQ(end.call_cost, calib.api_call_cost) << i;
  }
}

TEST(RdaScheduler, FastPathChargesOnlyCallsTheCalmLaneServed) {
  RdaScheduler sched = make_sched(PolicyKind::kStrict, /*fast_path=*/true);
  RecordingWaker waker;
  sched.attach(waker);
  const sim::Calibration calib;
  // Nobody parked and the budget fits: the calm lane serves the begin.
  const auto calm = sched.on_phase_begin(1, 1, phase(10), 0.0);
  ASSERT_TRUE(calm.admit);
  EXPECT_DOUBLE_EQ(calm.call_cost, calib.api_fast_path_cost);
  // Over capacity: the begin parks on the slow lane.
  const auto parked = sched.on_phase_begin(2, 2, phase(10), 0.1);
  ASSERT_FALSE(parked.admit);
  EXPECT_DOUBLE_EQ(parked.call_cost, calib.api_call_cost);
  // With a waiter queued the release rescans the waitlist (and wakes it).
  const auto rescan =
      sched.on_phase_end(1, 1, phase(10), sim::PhaseObservation{}, 1.0);
  EXPECT_DOUBLE_EQ(rescan.call_cost, calib.api_call_cost);
  ASSERT_EQ(waker.woken.size(), 1u);
  EXPECT_EQ(waker.woken[0], 2u);
}

TEST(RdaScheduler, CompromiseAdmitsUpToTwoX) {
  RdaScheduler sched = make_sched(PolicyKind::kCompromise);
  RecordingWaker waker;
  sched.attach(waker);
  EXPECT_TRUE(sched.on_phase_begin(1, 1, phase(14), 0.0).admit);
  EXPECT_TRUE(sched.on_phase_begin(2, 2, phase(14), 0.0).admit);
  EXPECT_FALSE(sched.on_phase_begin(3, 3, phase(14), 0.0).admit);
}

TEST(RdaScheduler, PoolMarkPropagates) {
  RdaScheduler sched = make_sched(PolicyKind::kStrict);
  RecordingWaker waker;
  sched.attach(waker);
  sched.mark_pool(7);
  EXPECT_TRUE(sched.on_phase_begin(1, 1, phase(12), 0.0).admit);
  EXPECT_FALSE(sched.on_phase_begin(10, 7, phase(5), 0.0).admit);
  EXPECT_TRUE(sched.monitor().pool_disabled(7));
}

// Regression: a nested pp_begin from a thread with a still-active period
// used to reach ProgressMonitor::begin_period, which bumped stats.begins
// and emitted a kBegin trace event before the registry finally rejected
// the insert — skewing the stats/trace reconciliation invariant and
// overwriting active_period_[thread] on builds without registry checks.
// Periods do not nest (§2.3); the scheduler must reject this at the API
// boundary, before any stats or trace mutation.
TEST(RdaScheduler, NestedBeginFromSameThreadRejected) {
  RdaScheduler sched = make_sched(PolicyKind::kStrict);
  obs::EventRecorder recorder(64);
  sched.set_trace_sink(&recorder);
  RecordingWaker waker;
  sched.attach(waker);
  EXPECT_TRUE(sched.on_phase_begin(1, 1, phase(2), 0.0).admit);
  EXPECT_THROW(sched.on_phase_begin(1, 1, phase(2), 0.1),
               util::CheckFailure);
  // The doomed begin must not have been counted or traced: otherwise the
  // begins == admissions + blocks invariant is broken for the capture.
  EXPECT_EQ(sched.monitor_stats().begins, 1u);
  EXPECT_EQ(recorder.count(obs::EventKind::kBegin), 1u);
  // The original period is intact and can still be ended cleanly.
  sched.on_phase_end(1, 1, phase(2), sim::PhaseObservation{}, 1.0);
  EXPECT_NEAR(sched.resources().usage(ResourceKind::kLLC), 0.0, 1e-6);
}

TEST(RdaScheduler, EndWithoutBeginRejected) {
  RdaScheduler sched = make_sched(PolicyKind::kStrict);
  RecordingWaker waker;
  sched.attach(waker);
  EXPECT_THROW(sched.on_phase_end(5, 5, phase(1), sim::PhaseObservation{}, 0.0), util::CheckFailure);
}

TEST(RdaScheduler, MonitorStatsExposed) {
  RdaScheduler sched = make_sched(PolicyKind::kStrict);
  RecordingWaker waker;
  sched.attach(waker);
  sched.on_phase_begin(1, 1, phase(10), 0.0);
  sched.on_phase_begin(2, 2, phase(10), 0.0);
  const MonitorStats& s = sched.monitor_stats();
  EXPECT_EQ(s.begins, 2u);
  EXPECT_EQ(s.immediate_admissions, 1u);
  EXPECT_EQ(s.blocks, 1u);
}

}  // namespace
}  // namespace rda::core
