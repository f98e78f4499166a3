// Tests for the §6 cache-partitioning extension: streaming periods larger
// than the LLC are confined to a small partition and co-run with normal
// periods instead of serializing the machine.
#include <gtest/gtest.h>

#include "core/rda_scheduler.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace rda::core {
namespace {

using rda::util::MB;

sim::PhaseSpec marked_phase(double mb, ReuseLevel reuse, double flops = 1e9) {
  sim::PhaseSpec p;
  p.flops = flops;
  p.wss_bytes = MB(mb);
  p.reuse = reuse;
  p.marked = true;
  return p;
}

RdaScheduler make_sched(bool partition) {
  RdaOptions options;
  options.policy = PolicyKind::kStrict;
  options.partitioning.enable = partition;
  return RdaScheduler(static_cast<double>(MB(15)), sim::Calibration{},
                      options);
}

class NullWaker : public sim::ThreadWaker {
 public:
  void wake(sim::ThreadId) override {}
};

TEST(Partitioning, OversizedPeriodChargedOnlyItsPartition) {
  RdaScheduler sched = make_sched(true);
  NullWaker waker;
  sched.attach(waker);
  const auto r = sched.on_phase_begin(1, 1, marked_phase(40, ReuseLevel::kLow),
                                      0.0);
  EXPECT_TRUE(r.admit);
  const double cap =
      PartitionOptions::kStreamingFraction * static_cast<double>(MB(15));
  EXPECT_NEAR(r.occupancy_cap, cap, 1.0);
  // Load table holds 1.5 MB, not 40 MB.
  EXPECT_NEAR(sched.resources().usage(ResourceKind::kLLC), cap, 1.0);
  EXPECT_EQ(sched.partitioned_periods(), 1u);
  // A normal 10 MB period co-runs.
  EXPECT_TRUE(
      sched.on_phase_begin(2, 2, marked_phase(10, ReuseLevel::kHigh), 0.0)
          .admit);
}

TEST(Partitioning, DisabledFallsBackToForcedSoloRun) {
  RdaScheduler sched = make_sched(false);
  NullWaker waker;
  sched.attach(waker);
  const auto r = sched.on_phase_begin(1, 1, marked_phase(40, ReuseLevel::kLow),
                                      0.0);
  EXPECT_TRUE(r.admit);  // liveness override
  EXPECT_DOUBLE_EQ(r.occupancy_cap, 0.0);
  // The full demand is charged: nobody else fits until it ends.
  EXPECT_FALSE(
      sched.on_phase_begin(2, 2, marked_phase(10, ReuseLevel::kHigh), 0.0)
          .admit);
  EXPECT_EQ(sched.partitioned_periods(), 0u);
}

TEST(Partitioning, FittingPeriodsUnaffected) {
  RdaScheduler sched = make_sched(true);
  NullWaker waker;
  sched.attach(waker);
  const auto r =
      sched.on_phase_begin(1, 1, marked_phase(6, ReuseLevel::kHigh), 0.0);
  EXPECT_TRUE(r.admit);
  EXPECT_DOUBLE_EQ(r.occupancy_cap, 0.0);
  EXPECT_NEAR(sched.resources().usage(ResourceKind::kLLC),
              static_cast<double>(MB(6)), 1.0);
}

TEST(Partitioning, EndReleasesTheReducedCharge) {
  RdaScheduler sched = make_sched(true);
  NullWaker waker;
  sched.attach(waker);
  const sim::PhaseSpec big = marked_phase(40, ReuseLevel::kLow);
  sched.on_phase_begin(1, 1, big, 0.0);
  sched.on_phase_end(1, 1, big, sim::PhaseObservation{}, 1.0);
  EXPECT_NEAR(sched.resources().usage(ResourceKind::kLLC), 0.0, 1e-6);
}

// End-to-end: a streaming app co-scheduled with a cache-fitting app. With
// partitioning the fitter keeps its residency (and its speed); without,
// the forced oversized period serializes or pollutes.
TEST(Partitioning, ProtectsCoRunningFitter) {
  auto run = [&](bool partition) {
    sim::EngineConfig cfg;
    cfg.machine = sim::MachineConfig::e5_2420();
    sim::Engine engine(cfg);
    RdaOptions options;
    options.policy = PolicyKind::kStrict;
    options.partitioning.enable = partition;
    core::RdaScheduler gate(static_cast<double>(cfg.machine.llc_bytes),
                            cfg.calib, options);
    engine.set_gate(&gate);
    // Streaming hog: 40 MB working set, low reuse.
    const sim::ProcessId hog = engine.create_process();
    engine.add_thread(
        hog, sim::ProgramBuilder()
                 .period("hog", 4e9, MB(40), ReuseLevel::kLow)
                 .build());
    // Fitter: 8 MB, high reuse.
    const sim::ProcessId fitter = engine.create_process();
    engine.add_thread(
        fitter, sim::ProgramBuilder()
                    .period("fit", 4e9, MB(8), ReuseLevel::kHigh)
                    .build());
    const sim::SimResult result = engine.run();
    return result.threads[1].finish_time;  // the fitter
  };
  const double with_partition = run(true);
  const double without = run(false);
  // Without partitioning the fitter waits behind the forced hog (or gets
  // polluted); with it, it runs immediately at full residency.
  EXPECT_LT(with_partition, 0.8 * without);
}

}  // namespace
}  // namespace rda::core
