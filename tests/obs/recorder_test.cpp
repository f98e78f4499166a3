#include "obs/recorder.hpp"

#include <gtest/gtest.h>

#include "core/admission.hpp"
#include "core/sharding.hpp"

namespace rda::obs {
namespace {

Event make_event(EventKind kind, core::PeriodId period, double time) {
  Event e;
  e.kind = kind;
  e.period = period;
  e.time = time;
  return e;
}

TEST(EventRecorder, CountsPerKind) {
  EventRecorder rec;
  rec.record(make_event(EventKind::kBegin, 1, 0.0));
  rec.record(make_event(EventKind::kAdmit, 1, 0.0));
  rec.record(make_event(EventKind::kBegin, 2, 1.0));
  rec.record(make_event(EventKind::kBlock, 2, 1.0));
  EXPECT_EQ(rec.count(EventKind::kBegin), 2u);
  EXPECT_EQ(rec.count(EventKind::kAdmit), 1u);
  EXPECT_EQ(rec.count(EventKind::kBlock), 1u);
  EXPECT_EQ(rec.count(EventKind::kEnd), 0u);
  EXPECT_EQ(rec.total_recorded(), 4u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.events().size(), 4u);
}

TEST(EventRecorder, WakeClosesWaitInterval) {
  EventRecorder rec;
  rec.record(make_event(EventKind::kBlock, 7, 1.0));
  rec.record(make_event(EventKind::kWake, 7, 1.5));
  const WaitHistogram waits = rec.wait_histogram();
  ASSERT_EQ(waits.count(), 1u);
  EXPECT_NEAR(waits.max(), 0.5, 1e-9);
}

TEST(EventRecorder, CancelCountsAbortedWaitAsLatency) {
  EventRecorder rec;
  rec.record(make_event(EventKind::kBlock, 3, 2.0));
  rec.record(make_event(EventKind::kCancel, 3, 2.25));
  const WaitHistogram waits = rec.wait_histogram();
  ASSERT_EQ(waits.count(), 1u);
  EXPECT_NEAR(waits.max(), 0.25, 1e-9);
}

TEST(EventRecorder, BeginPathForceAdmitHasNoWaitInterval) {
  EventRecorder rec;
  // Forced on the begin path: never blocked, so nothing to time.
  rec.record(make_event(EventKind::kBegin, 9, 0.0));
  rec.record(make_event(EventKind::kForceAdmit, 9, 0.0));
  EXPECT_EQ(rec.wait_histogram().count(), 0u);
  // Forced from the waitlist: the open block interval is closed.
  rec.record(make_event(EventKind::kBlock, 10, 1.0));
  rec.record(make_event(EventKind::kForceAdmit, 10, 1.125));
  const WaitHistogram waits = rec.wait_histogram();
  ASSERT_EQ(waits.count(), 1u);
  EXPECT_NEAR(waits.max(), 0.125, 1e-9);
}

TEST(EventRecorder, RingOverflowReportsDropped) {
  EventRecorder rec(4);
  for (core::PeriodId id = 1; id <= 10; ++id) {
    rec.record(make_event(EventKind::kBegin, id, 0.0));
  }
  EXPECT_EQ(rec.total_recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_EQ(rec.events().size(), 4u);
  // Counters are not subject to ring capacity.
  EXPECT_EQ(rec.count(EventKind::kBegin), 10u);
}

/// A thread above `after` that hashes onto the same registry shard as
/// `like`: two fresh cores hand both the same period id.
sim::ThreadId same_shard_thread(sim::ThreadId like, sim::ThreadId after) {
  sim::ThreadId t = after + 1;
  while (core::shard_of_thread(t) != core::shard_of_thread(like)) ++t;
  return t;
}

core::AdmitRequest llc_request(sim::ThreadId thread, double bytes) {
  core::AdmitRequest r;
  r.thread = thread;
  r.process = thread;
  r.demands = {{ResourceKind::kLLC, bytes}};
  return r;
}

// The service's node cores share one recorder, and every core's registry
// issues the same period ids. Node 1's block must not overwrite node 0's
// open interval: each wait is timed from its own block.
TEST(EventRecorder, CoresSharingOneRecorderKeepTheirOwnWaits) {
  constexpr double kMB = 1024.0 * 1024.0;
  EventRecorder rec;
  core::AdmissionConfig config;
  config.llc_capacity_bytes = 16 * kMB;
  config.trace_sink = &rec;
  core::AdmissionCore node0(config);
  core::AdmissionCore node1(config);

  const sim::ThreadId holder1 = same_shard_thread(1, 100);
  const sim::ThreadId waiter1 = same_shard_thread(2, holder1);
  const core::AdmitTicket h0 = node0.admit(llc_request(1, 12 * kMB), 0.0);
  const core::AdmitTicket h1 =
      node1.admit(llc_request(holder1, 12 * kMB), 0.0);
  const core::AdmitTicket w0 = node0.admit(llc_request(2, 12 * kMB), 1.0);
  const core::AdmitTicket w1 =
      node1.admit(llc_request(waiter1, 12 * kMB), 2.0);
  ASSERT_FALSE(w0.admitted);
  ASSERT_FALSE(w1.admitted);
  ASSERT_EQ(w0.id, w1.id);  // the overlap the key must survive

  node0.release(h0.id, {}, 3.0);  // wakes node 0's waiter: 2.0 s wait
  node1.release(h1.id, {}, 3.5);  // wakes node 1's waiter: 1.5 s wait
  const WaitHistogram waits = rec.wait_histogram();
  ASSERT_EQ(waits.count(), 2u);
  EXPECT_NEAR(waits.max(), 2.0, 1e-9);
  EXPECT_NEAR(waits.min(), 1.5, 1e-9);
  EXPECT_NEAR(waits.sum(), 3.5, 1e-9);
}

}  // namespace
}  // namespace rda::obs
