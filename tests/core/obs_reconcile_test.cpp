// End-to-end consistency of the observability layer: a full simulated run
// with the recorder attached must replay cleanly through the lifecycle
// state machine and agree event-for-event with MonitorStats, and the chrome
// export of that capture must contain exactly one slice pair per period.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/rda_scheduler.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/reconcile.hpp"
#include "obs/recorder.hpp"
#include "runtime/gate.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace rda::core {
namespace {

using rda::util::MB;

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Over-committed workload (three 8 MB threads on a 15 MB LLC) simulated
/// with the recorder attached: every block/wake path is exercised.
class TracedSimRun {
 public:
  TracedSimRun() {
    sim::EngineConfig cfg;
    cfg.machine = sim::MachineConfig::e5_2420();
    sim::Engine engine(cfg);
    RdaOptions options;
    options.policy = PolicyKind::kStrict;
    options.trace_sink = &recorder_;
    RdaScheduler gate(static_cast<double>(cfg.machine.llc_bytes), cfg.calib,
                      options);
    engine.set_gate(&gate);
    for (int t = 0; t < 3; ++t) {
      const sim::ProcessId pid = engine.create_process();
      sim::ProgramBuilder builder;
      for (int p = 0; p < 4; ++p) {
        builder.period("pp", 5e8, MB(8), ReuseLevel::kHigh);
      }
      engine.add_thread(pid, builder.build());
    }
    engine.run();
    stats_ = gate.monitor_stats();
    events_ = recorder_.events();
  }

  obs::EventRecorder recorder_{1 << 16};
  MonitorStats stats_;
  std::vector<obs::Event> events_;
};

TEST(ObsReconcile, SimulatedRunReconcilesExactly) {
  TracedSimRun run;
  ASSERT_EQ(run.recorder_.dropped(), 0u);
  // The workload is over-committed, so the interesting paths fired.
  EXPECT_EQ(run.stats_.begins, 12u);
  EXPECT_GT(run.stats_.blocks, 0u);
  EXPECT_GT(run.stats_.wakes, 0u);
  const obs::ReconcileReport report =
      obs::reconcile(run.events_, run.stats_);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_TRUE(report.message.empty());
  // Everything begun was also ended: no leaked periods at capture end.
  EXPECT_EQ(report.still_blocked, 0u);
  EXPECT_EQ(report.still_admitted, 0u);
  // Recorder counters match the monitor's aggregates kind for kind.
  EXPECT_EQ(run.recorder_.count(obs::EventKind::kBegin), run.stats_.begins);
  EXPECT_EQ(run.recorder_.count(obs::EventKind::kEnd), run.stats_.ends);
  EXPECT_EQ(run.recorder_.count(obs::EventKind::kBlock), run.stats_.blocks);
  EXPECT_EQ(run.recorder_.count(obs::EventKind::kWake), run.stats_.wakes);
}

TEST(ObsReconcile, ChromeExportMatchesStats) {
  TracedSimRun run;
  const std::string json = obs::chrome_trace_json(run.events_);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // One B and one E slice per period, one instant per block/wake.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), run.stats_.begins);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"E\""), run.stats_.ends);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"i\""),
            run.stats_.blocks + run.stats_.wakes +
                run.stats_.immediate_admissions +
                run.stats_.forced_admissions + run.stats_.pool_disables +
                run.stats_.cancels);
}

TEST(ObsReconcile, TamperedStatsAreDetected) {
  TracedSimRun run;
  MonitorStats tampered = run.stats_;
  ++tampered.wakes;
  const obs::ReconcileReport report = obs::reconcile(run.events_, tampered);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("wakes"), std::string::npos);
}

TEST(ObsReconcile, LossyCaptureCannotReconcile) {
  TracedSimRun run;
  // Replay the same stream through a ring too small to hold it: the
  // surviving suffix must NOT reconcile against the full-run stats.
  obs::EventRecorder tiny(8);
  for (const obs::Event& e : run.events_) tiny.record(e);
  ASSERT_GT(tiny.dropped(), 0u);
  EXPECT_FALSE(obs::reconcile(tiny.events(), run.stats_).ok);
}

TEST(ObsReconcile, IllegalTransitionsAreDetected) {
  obs::Event begin;
  begin.kind = obs::EventKind::kBegin;
  begin.period = 1;
  obs::Event end = begin;
  end.kind = obs::EventKind::kEnd;

  // end without admit: the period never held load.
  MonitorStats stats;
  stats.begins = 1;
  stats.ends = 1;
  stats.immediate_admissions = 1;  // counts agree; the replay must object
  std::vector<obs::Event> events{begin, end};
  obs::ReconcileReport report = obs::reconcile(events, stats);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("not admitted"), std::string::npos);

  // duplicate begin of one period id: ids are never reused.
  events = {begin, begin};
  stats = MonitorStats{};
  stats.begins = 2;
  stats.immediate_admissions = 2;
  report = obs::reconcile(events, stats);
  EXPECT_FALSE(report.ok);
}

/// Contended native-gate run with the recorder attached: four 6 MB threads
/// on a 15 MB LLC, so real condvar waits happen and the gate's wall-clock
/// wait accounting can be reconciled against the event stream.
class TracedGateRun {
 public:
  TracedGateRun() {
    rt::GateConfig cfg;
    cfg.llc_capacity_bytes = static_cast<double>(MB(15));
    cfg.trace_sink = &recorder_;
    rt::AdmissionGate gate(cfg);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&gate] {
        for (int i = 0; i < 16; ++i) {
          const auto id =
              gate.begin(ResourceKind::kLLC, static_cast<double>(MB(6)),
                         ReuseLevel::kHigh, "w");
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          gate.end(id);
        }
      });
    }
    for (auto& th : threads) th.join();
    stats_ = gate.stats();
    events_ = recorder_.events();
    histogram_ = recorder_.wait_histogram();
  }

  obs::EventRecorder recorder_{1 << 16};
  rt::GateStats stats_;
  std::vector<obs::Event> events_;
  obs::WaitHistogram histogram_;
};

TEST(ObsReconcile, NativeGateWaitsReconcile) {
  TracedGateRun run;
  ASSERT_EQ(run.recorder_.dropped(), 0u);
  // 4×6 MB on 15 MB: the third concurrent begin must park, so the wait
  // machinery genuinely fired.
  ASSERT_GT(run.stats_.monitor.blocks, 0u);
  ASSERT_GT(run.stats_.waits, 0u);
  // The lifecycle replay holds for the native gate too.
  const obs::ReconcileReport lifecycle =
      obs::reconcile(run.events_, run.stats_.monitor);
  EXPECT_TRUE(lifecycle.ok) << lifecycle.message;
  // And the gate's wait counters agree with the event-derived view.
  obs::WaitStatsCheck gate_side;
  gate_side.waits = run.stats_.waits;
  gate_side.no_sleep_blocks = run.stats_.no_sleep_blocks;
  gate_side.spun_waits = run.stats_.spun_waits;
  gate_side.total_wait_seconds = run.stats_.total_wait_seconds;
  const obs::ReconcileReport waits =
      obs::reconcile_waits(run.events_, run.histogram_, gate_side);
  EXPECT_TRUE(waits.ok) << waits.message;
  EXPECT_EQ(waits.still_blocked, 0u);
}

// Native-gate threads stamp their own events, so a waker's kWake can carry
// an earlier timestamp than the waiter's kBlock it resolves. The histogram
// records that interval as 0; the event-derived total must agree.
TEST(ObsReconcile, WakeStampedBeforeBlockCountsAsZeroWait) {
  std::vector<obs::Event> events(2);
  events[0].time = 1.0;
  events[0].kind = obs::EventKind::kBlock;
  events[0].period = 7;
  events[1].time = 1.0 - 1e-3;
  events[1].kind = obs::EventKind::kWake;
  events[1].period = 7;
  obs::WaitHistogram histogram;
  histogram.add(events[1].time - events[0].time);
  obs::WaitStatsCheck gate_side;
  gate_side.waits = 1;
  gate_side.slack_seconds = 0.0;
  const obs::ReconcileReport report =
      obs::reconcile_waits(events, histogram, gate_side);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(report.still_blocked, 0u);
}

TEST(ObsReconcile, WaitMismatchesAreDetected) {
  TracedGateRun run;
  ASSERT_GT(run.stats_.monitor.blocks, 0u);
  // More sleeps than block events: impossible, must be flagged.
  obs::WaitStatsCheck impossible;
  impossible.waits = run.stats_.monitor.blocks + 1;
  impossible.total_wait_seconds = run.stats_.total_wait_seconds;
  obs::ReconcileReport report =
      obs::reconcile_waits(run.events_, run.histogram_, impossible);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("sleep with no block"), std::string::npos);

  // A histogram with an extra sample no event explains.
  obs::WaitHistogram padded = run.histogram_;
  padded.add(1.0);
  obs::WaitStatsCheck gate_side;
  gate_side.waits = run.stats_.waits;
  gate_side.no_sleep_blocks = run.stats_.no_sleep_blocks;
  gate_side.spun_waits = run.stats_.spun_waits;
  gate_side.total_wait_seconds = run.stats_.total_wait_seconds;
  report = obs::reconcile_waits(run.events_, padded, gate_side);
  EXPECT_FALSE(report.ok);

  // Gate wait time wildly off the event-derived total.
  obs::WaitStatsCheck drifted = gate_side;
  drifted.total_wait_seconds += 3600.0;
  report = obs::reconcile_waits(run.events_, run.histogram_, drifted);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("total_wait_seconds"), std::string::npos);

  // More spun waits than waits: a spin counted outside any wait.
  obs::WaitStatsCheck overspun = gate_side;
  overspun.spun_waits = gate_side.waits + 1;
  report = obs::reconcile_waits(run.events_, run.histogram_, overspun);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("spun waits"), std::string::npos);
}

TEST(ObsReconcile, StructuralInvariantChecked) {
  // Counts that agree per kind can still violate the begin identity:
  // one begin that neither admitted, blocked, nor forced.
  obs::Event begin;
  begin.kind = obs::EventKind::kBegin;
  begin.period = 1;
  MonitorStats stats;
  stats.begins = 1;
  const std::vector<obs::Event> events{begin};
  const obs::ReconcileReport report = obs::reconcile(events, stats);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.message.find("begins"), std::string::npos);
}

}  // namespace
}  // namespace rda::core
