// Unit tests for the benchmark's own arithmetic.
#include <gtest/gtest.h>

#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(TailPercentile, PicksHighestRungWithTenSamplesBeyond) {
  // n * (1 - p/100) >= 10.
  EXPECT_EQ(tail_percentile(19, kPercentileLadder), 0.0);
  EXPECT_EQ(tail_percentile(20, kPercentileLadder), 50.0);
  EXPECT_EQ(tail_percentile(99, kPercentileLadder), 50.0);
  EXPECT_EQ(tail_percentile(100, kPercentileLadder), 90.0);
  EXPECT_EQ(tail_percentile(999, kPercentileLadder), 90.0);
  EXPECT_EQ(tail_percentile(1000, kPercentileLadder), 99.0);
  EXPECT_EQ(tail_percentile(10'000, kPercentileLadder), 99.9);
  EXPECT_EQ(tail_percentile(1'000'000, kPercentileLadder), 99.999);
}

TEST(TailPercentile, GatedLadderStopsAtP99) {
  EXPECT_EQ(tail_percentile(10'000'000, kGatedLadder), 99.0);
  EXPECT_EQ(tail_percentile(500, kGatedLadder), 90.0);
}

TEST(Summarize, SmallSampleSetUsesTheRule) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Timing t = summarize(v, kPercentileLadder);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_DOUBLE_EQ(t.p50, 50.5);
  EXPECT_EQ(t.tail_p, 90.0);
  EXPECT_DOUBLE_EQ(t.tail, 90.1);
}

TEST(Histogram, QuantilesTrackExactValuesWithinBucketWidth) {
  Histogram h;
  for (int i = 1; i <= 10'000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 10'000u);
  EXPECT_NEAR(h.quantile(0.5), 5000.0, 5000.0 / 64);
  EXPECT_NEAR(h.quantile(0.99), 9900.0, 9900.0 / 64);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10'000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5000.5);
}

TEST(Histogram, MergeEqualsAddingEverything) {
  Histogram a, b, all;
  for (int i = 0; i < 500; ++i) {
    a.add(i * 3.0);
    all.add(i * 3.0);
    b.add(i * 7.0 + 1);
    all.add(i * 7.0 + 1);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), all.quantile(0.5));
  EXPECT_DOUBLE_EQ(a.quantile(0.9), all.quantile(0.9));
}

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(self_time({100, 200}, {}), 100);
}

TEST(SelfTime, DisjointChildrenAreSubtracted) {
  EXPECT_EQ(self_time({0, 100}, {{10, 20}, {50, 80}}), 60);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [10,40) and [30,60) cover [10,60); [55,70) extends it to 70.
  EXPECT_EQ(self_time({0, 100}, {{30, 60}, {10, 40}, {55, 70}}), 40);
  // A child nested inside another adds nothing.
  EXPECT_EQ(self_time({0, 100}, {{10, 90}, {20, 30}}), 20);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(self_time({50, 100}, {{0, 60}, {90, 150}}), 30);
  EXPECT_EQ(self_time({50, 100}, {{0, 40}, {120, 150}}), 50);
}

TEST(SpanLog, TotalSelfUsesChildCoverage) {
  SpanLog log(16);
  const std::uint32_t run = log.intern("run");
  const std::uint32_t child = log.intern("child");
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](int ns) { return t0 + std::chrono::nanoseconds(ns); };
  const std::int64_t parent = log.add(run, 1, -1, 0, at(0), at(1000));
  log.add(child, 1, parent, 0, at(100), at(300));
  log.add(child, 1, parent, 0, at(200), at(400));
  EXPECT_EQ(log.total_self(run), 700);
  std::uint64_t n = 0;
  EXPECT_EQ(log.total_duration(child, &n), 400);
  EXPECT_EQ(n, 2u);
}

TEST(SpanLog, DropsBeyondCapacity) {
  SpanLog log(1);
  const std::uint32_t name = log.intern("x");
  EXPECT_GE(log.open(name, 0, -1, 0), 0);
  EXPECT_EQ(log.open(name, 0, -1, 0), -1);
  EXPECT_EQ(log.dropped(), 1u);
}

TEST(FailAccount, AdversaryRefusalsAreNotFailures) {
  const std::vector<TenantOutcome> tenants = {
      {1, 4000, 900},  // the adversary: quota sheds are the defence
      {2, 1000, 0},
      {3, 1000, 10},
  };
  const FailAccount f = service_fail_account(tenants, 1, 0);
  EXPECT_EQ(f.attempted, 2000u);
  EXPECT_EQ(f.failed, 10u);
  EXPECT_DOUBLE_EQ(f.fraction(), 0.005);
}

TEST(FailAccount, OverflowDropsCountAgainstHonestTenants) {
  const std::vector<TenantOutcome> tenants = {{1, 10, 10}, {2, 100, 0}};
  const FailAccount f = service_fail_account(tenants, 1, 5);
  EXPECT_EQ(f.attempted, 100u);
  EXPECT_EQ(f.failed, 5u);
}

TEST(FailAccount, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(service_fail_account({}, 1, 0).fraction(), 0.0);
}

TEST(MetricName, AcceptsTheAllowedAlphabet) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("core.block_ratio"));
  EXPECT_TRUE(valid_metric_name("p99-latency.ns"));
  EXPECT_TRUE(valid_metric_name("9lives"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(MetricName, RejectsEverythingElse) {
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name("quote\""));
  EXPECT_FALSE(valid_metric_name("naïve"));
}

}  // namespace
}  // namespace perfbench
