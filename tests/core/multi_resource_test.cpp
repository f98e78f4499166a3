// Multi-resource gating: periods that declare both an LLC working set and a
// DRAM-bandwidth demand must fit BOTH resources (conclusion: "configurable
// to allow multiple hardware resources to be targeted").
#include <gtest/gtest.h>

#include <vector>

#include "core/rda_scheduler.hpp"
#include "runtime/gate.hpp"
#include "util/units.hpp"
#include "wake_log.hpp"

namespace rda::core {
namespace {

using rda::util::MB;

PeriodRecord multi_record(sim::ThreadId thread, double llc_mb,
                          double bw_gbs) {
  PeriodRecord r;
  r.thread = thread;
  r.process = thread;
  r.set_single(ResourceKind::kLLC, static_cast<double>(MB(llc_mb)));
  if (bw_gbs > 0.0) {
    r.add_demand(ResourceKind::kMemBandwidth, bw_gbs * 1e9);
  }
  r.reuse = ReuseLevel::kLow;
  return r;
}

class MultiFixture {
 public:
  MultiFixture()
      : policy_(std::make_unique<StrictPolicy>()),
        predicate_(*policy_, resources_),
        monitor_(predicate_, resources_) {
    resources_.set_capacity(ResourceKind::kLLC, static_cast<double>(MB(15)));
    resources_.set_capacity(ResourceKind::kMemBandwidth, 30e9);
    monitor_.set_batch_waker(log_wakes(woken_));
  }

  ResourceMonitor resources_;
  std::unique_ptr<SchedulingPolicy> policy_;
  SchedulingPredicate predicate_;
  ProgressMonitor monitor_;
  std::vector<sim::ThreadId> woken_;
};

TEST(MultiResource, BothDemandsCharged) {
  MultiFixture fx;
  const auto outcome =
      fx.monitor_.begin_period(multi_record(1, 2.0, 10.0), 0.0);
  ASSERT_TRUE(outcome.admitted);
  EXPECT_NEAR(fx.resources_.usage(ResourceKind::kLLC),
              static_cast<double>(MB(2)), 1.0);
  EXPECT_NEAR(fx.resources_.usage(ResourceKind::kMemBandwidth), 10e9, 1.0);
  fx.monitor_.end_period(outcome.id, 1.0);
  EXPECT_NEAR(fx.resources_.usage(ResourceKind::kLLC), 0.0, 1e-6);
  EXPECT_NEAR(fx.resources_.usage(ResourceKind::kMemBandwidth), 0.0, 1e-6);
}

TEST(MultiResource, SecondResourceCanBeTheBottleneck) {
  MultiFixture fx;
  // Tiny LLC footprints, huge bandwidth appetites: 3 x 12 GB/s > 30 GB/s.
  const auto a = fx.monitor_.begin_period(multi_record(1, 0.5, 12.0), 0.0);
  const auto b = fx.monitor_.begin_period(multi_record(2, 0.5, 12.0), 0.0);
  const auto c = fx.monitor_.begin_period(multi_record(3, 0.5, 12.0), 0.0);
  EXPECT_TRUE(a.admitted);
  EXPECT_TRUE(b.admitted);
  EXPECT_FALSE(c.admitted);  // LLC has room; bandwidth does not
  fx.monitor_.end_period(a.id, 1.0);
  ASSERT_EQ(fx.woken_.size(), 1u);
  EXPECT_EQ(fx.woken_[0], 3u);
}

TEST(MultiResource, NoPartialCharging) {
  MultiFixture fx;
  // First period eats most of the bandwidth.
  const auto a = fx.monitor_.begin_period(multi_record(1, 1.0, 25.0), 0.0);
  ASSERT_TRUE(a.admitted);
  // Second fits the LLC but not the bandwidth: denied, and crucially the
  // LLC load must NOT have been incremented (atomic all-or-nothing).
  const double llc_before = fx.resources_.usage(ResourceKind::kLLC);
  const auto b = fx.monitor_.begin_period(multi_record(2, 1.0, 10.0), 0.0);
  EXPECT_FALSE(b.admitted);
  EXPECT_DOUBLE_EQ(fx.resources_.usage(ResourceKind::kLLC), llc_before);
}

TEST(MultiResource, LivenessOverrideChecksAllTargets) {
  MultiFixture fx;
  // 50 GB/s can never fit a 30 GB/s machine; alone, it is force-admitted.
  const auto big = fx.monitor_.begin_period(multi_record(1, 1.0, 50.0), 0.0);
  EXPECT_TRUE(big.admitted);
  EXPECT_TRUE(big.forced);
  fx.monitor_.end_period(big.id, 1.0);
}

TEST(MultiResource, SchedulerGatesDeclaredBandwidth) {
  RdaOptions options;
  options.policy = PolicyKind::kStrict;
  options.bandwidth_capacity = 30e9;
  RdaScheduler sched(static_cast<double>(MB(15)), sim::Calibration{},
                     options);
  class NullWaker : public sim::ThreadWaker {
   public:
    void wake(sim::ThreadId) override {}
  } waker;
  sched.attach(waker);

  sim::PhaseSpec streaming;
  streaming.flops = 1e9;
  streaming.wss_bytes = MB(0.6);
  streaming.bw_bytes_per_sec = 12e9;
  streaming.reuse = ReuseLevel::kLow;
  streaming.marked = true;

  EXPECT_TRUE(sched.on_phase_begin(1, 1, streaming, 0.0).admit);
  EXPECT_TRUE(sched.on_phase_begin(2, 2, streaming, 0.0).admit);
  // Third 12 GB/s stream exceeds the 30 GB/s plane.
  EXPECT_FALSE(sched.on_phase_begin(3, 3, streaming, 0.0).admit);
}

TEST(MultiResource, SchedulerIgnoresBandwidthWhenDisabled) {
  RdaOptions options;
  options.policy = PolicyKind::kStrict;
  options.bandwidth_capacity = 0.0;  // extension off
  RdaScheduler sched(static_cast<double>(MB(15)), sim::Calibration{},
                     options);
  class NullWaker : public sim::ThreadWaker {
   public:
    void wake(sim::ThreadId) override {}
  } waker;
  sched.attach(waker);

  sim::PhaseSpec streaming;
  streaming.flops = 1e9;
  streaming.wss_bytes = MB(0.6);
  streaming.bw_bytes_per_sec = 12e9;
  streaming.reuse = ReuseLevel::kLow;
  streaming.marked = true;

  // All admitted: only the LLC is gated and 3 x 0.6 MB fits trivially.
  for (sim::ThreadId t = 1; t <= 3; ++t) {
    EXPECT_TRUE(sched.on_phase_begin(t, t, streaming, 0.0).admit) << t;
  }
}

TEST(MultiResource, NativeGateBeginMulti) {
  rt::GateConfig cfg;
  cfg.llc_capacity_bytes = static_cast<double>(MB(15));
  cfg.bandwidth_capacity = 30e9;
  cfg.policy = PolicyKind::kStrict;
  rt::AdmissionGate gate(cfg);
  const core::ResourceDemand demands[] = {
      {ResourceKind::kLLC, static_cast<double>(MB(1))},
      {ResourceKind::kMemBandwidth, 10e9}};
  const auto id = gate.begin_multi(demands, ReuseLevel::kLow, "stream");
  EXPECT_NEAR(gate.usage(ResourceKind::kMemBandwidth), 10e9, 1.0);
  gate.end(id);
  EXPECT_NEAR(gate.usage(ResourceKind::kMemBandwidth), 0.0, 1e-6);
}

}  // namespace
}  // namespace rda::core
