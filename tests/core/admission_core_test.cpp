// AdmissionCore unit tests: the transactional admit/withdraw/release engine
// both gates (sim and native) and the cluster layer delegate to.
#include "core/admission.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.hpp"
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

TEST(AdmissionCore, AdmitChargesAndReleaseFrees) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);

  const AdmitTicket t = core.admit(request(1, mb(6)), 0.0);
  EXPECT_TRUE(t.admitted);
  EXPECT_FALSE(t.forced);
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(6));
  EXPECT_EQ(core.active_for_thread(1), t.id);

  const ReleaseTicket r = core.release(t.id, {}, 1.0);
  EXPECT_EQ(r.record.id, t.id);
  EXPECT_EQ(r.record.thread, 1u);
  EXPECT_TRUE(core.resources().effectively_free(ResourceKind::kLLC));
  EXPECT_FALSE(core.active_for_thread(1).has_value());
  EXPECT_EQ(core.stats().begins, 1u);
  EXPECT_EQ(core.stats().ends, 1u);
}

TEST(AdmissionCore, DeniedRequestParksUntilReleaseWakes) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);
  std::vector<sim::ThreadId> woken;
  core.set_batch_waker(log_wakes(woken));

  const AdmitTicket first = core.admit(request(1, mb(10)), 0.0);
  ASSERT_TRUE(first.admitted);
  const AdmitTicket second = core.admit(request(2, mb(10)), 0.1);
  EXPECT_FALSE(second.admitted);
  EXPECT_EQ(core.monitor().waitlist().size(), 1u);
  EXPECT_TRUE(woken.empty());

  core.release(first.id, {}, 1.0);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 2u);
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(10));
  // The grant already charged load: withdraw must refuse.
  EXPECT_FALSE(core.withdraw(second.id, 1.1));
  core.release(second.id, {}, 2.0);
  EXPECT_TRUE(core.resources().effectively_free(ResourceKind::kLLC));
}

TEST(AdmissionCore, WithdrawReleasesNothingAndCountsCancel) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);

  const AdmitTicket first = core.admit(request(1, mb(12)), 0.0);
  const AdmitTicket second = core.admit(request(2, mb(12)), 0.1);
  ASSERT_FALSE(second.admitted);
  EXPECT_TRUE(core.withdraw(second.id, 0.2));
  EXPECT_EQ(core.stats().cancels, 1u);
  EXPECT_EQ(core.monitor().waitlist().size(), 0u);
  EXPECT_FALSE(core.active_for_thread(2).has_value());
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(12));
  core.release(first.id, {}, 1.0);
}

TEST(AdmissionCore, WithdrawUnknownIdThrows) {
  AdmissionCore core(AdmissionConfig{});
  EXPECT_THROW(core.withdraw(42, 0.0), util::CheckFailure);
  EXPECT_THROW(core.release(42, {}, 0.0), util::CheckFailure);
}

TEST(AdmissionCore, NestedAdmitThrowsBeforeAnyStatsMutation) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);
  const AdmitTicket t = core.admit(request(1, mb(1)), 0.0);
  ASSERT_TRUE(t.admitted);
  EXPECT_THROW(core.admit(request(1, mb(1)), 0.1), util::CheckFailure);
  EXPECT_EQ(core.stats().begins, 1u);
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), mb(1));
}

TEST(AdmissionCore, FastPathTicketMarksTheCalmLane) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);

  const AdmitTicket calm = core.admit(request(1, mb(10)), 0.0);
  ASSERT_TRUE(calm.admitted);
  EXPECT_TRUE(calm.fast_path);
  const AdmitTicket parked = core.admit(request(2, mb(10)), 0.1);
  ASSERT_FALSE(parked.admitted);
  EXPECT_FALSE(parked.fast_path);
  // A waiter is queued, so this release rescans on the slow lane (and
  // grants the parked period).
  EXPECT_FALSE(core.release(calm.id, {}, 1.0).fast_path);
  ASSERT_TRUE(core.is_admitted(parked.id));
  // Nobody is parked any more: the woken period's own release is calm.
  EXPECT_TRUE(core.release(parked.id, {}, 2.0).fast_path);
  const AdmitTicket again = core.admit(request(1, mb(4)), 3.0);
  EXPECT_TRUE(again.fast_path);
  EXPECT_TRUE(core.release(again.id, {}, 4.0).fast_path);
}

TEST(AdmissionCore, FastPathTicketFalseWhenSerialStateIsAttached) {
  // Counter feedback is serial state: every call takes the slow lane, so
  // no ticket reports the calm lane.
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  config.feedback.enable = true;
  AdmissionCore core(config);
  const AdmitTicket t = core.admit(request(1, mb(4)), 0.0);
  ASSERT_TRUE(t.admitted);
  EXPECT_FALSE(t.fast_path);
  EXPECT_FALSE(core.release(t.id, {}, 1.0).fast_path);
}

TEST(AdmissionCore, PartitioningCapsStreamingDemand) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  config.partitioning.enable = true;
  AdmissionCore core(config);
  // The streaming fraction (0.10) of the 16 MB LLC: 1.6 MB.
  const double cap = PartitionOptions::kStreamingFraction * mb(16);

  const AdmitTicket t = core.admit(request(1, mb(64)), 0.0);
  EXPECT_TRUE(t.admitted);
  EXPECT_EQ(t.occupancy_cap, cap);
  EXPECT_EQ(core.partitioned_periods(), 1u);
  EXPECT_EQ(core.resources().usage(ResourceKind::kLLC), cap);
  // The registry holds the capped charge but remembers the declaration.
  const ReleaseTicket r = core.release(t.id, {}, 1.0);
  EXPECT_EQ(r.record.primary_demand(), cap);
  EXPECT_EQ(r.record.declared_demand, mb(64));
}

TEST(AdmissionCore, FeedbackCorrectsUnderDeclaredDemand) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  config.feedback.enable = true;
  config.feedback.min_samples = 1;
  AdmissionCore core(config);

  // Declares 4 MB but the counters keep seeing 8 MB resident.
  for (int i = 0; i < 4; ++i) {
    const AdmitTicket t = core.admit(request(1, mb(4), "hot"), i * 1.0);
    ASSERT_TRUE(t.admitted);
    ReleaseObservation observed;
    observed.peak_occupancy = mb(8);
    observed.has_counters = true;
    core.release(t.id, observed, i * 1.0 + 0.5);
  }
  EXPECT_GT(core.corrector().correction("hot"), 1.5);

  // The corrected charge, not the declaration, is what admission debits.
  const AdmitTicket corrected = core.admit(request(1, mb(4), "hot"), 10.0);
  ASSERT_TRUE(corrected.admitted);
  EXPECT_GT(core.resources().usage(ResourceKind::kLLC), mb(6));
  core.release(corrected.id, {}, 11.0);
}

TEST(AdmissionCore, BestFitWakeOrderPrefersLargestFittingWaiter) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  config.monitor.wake_order = WakeOrder::kBestFitDemand;
  AdmissionCore core(config);
  std::vector<sim::ThreadId> woken;
  core.set_batch_waker(log_wakes(woken));

  const AdmitTicket hog = core.admit(request(1, mb(14)), 0.0);
  ASSERT_TRUE(hog.admitted);
  ASSERT_FALSE(core.admit(request(2, mb(3)), 0.1).admitted);   // FIFO first
  ASSERT_FALSE(core.admit(request(3, mb(10)), 0.2).admitted);  // biggest
  ASSERT_FALSE(core.admit(request(4, mb(6)), 0.3).admitted);

  core.release(hog.id, {}, 1.0);
  // 16 MB free: best-fit admits 10 (thread 3) then 6 (thread 4) then
  // nothing — FIFO would have admitted 3 (thread 2) then 10 (thread 3).
  ASSERT_EQ(woken.size(), 2u);
  EXPECT_EQ(woken[0], 3u);
  EXPECT_EQ(woken[1], 4u);
  EXPECT_EQ(core.monitor().waitlist().size(), 1u);
}

TEST(AdmissionCore, EmptyDemandListRejected) {
  AdmissionCore core(AdmissionConfig{});
  AdmitRequest bad;
  bad.thread = 1;
  bad.process = 1;
  EXPECT_THROW(core.admit(std::move(bad), 0.0), util::CheckFailure);
}

// --- Batch entry points (service front end drain loop) ----------------------

TEST(AdmissionBatch, AdmitBatchMatchesPerCallSequence) {
  // The batched path must be semantically identical to calling admit() per
  // request in order: same tickets, same stats, same resource usage.
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore batched(config);
  AdmissionCore serial(config);

  std::vector<AdmitRequest> reqs;
  for (sim::ThreadId t = 1; t <= 6; ++t) {
    reqs.push_back(request(t, mb(4), "b" + std::to_string(t)));
  }
  std::vector<AdmitRequest> reqs_copy = reqs;

  const std::vector<AdmitTicket> tickets =
      batched.admit_batch(std::move(reqs), 0.0);
  std::vector<AdmitTicket> expected;
  for (AdmitRequest& r : reqs_copy) {
    expected.push_back(serial.admit(std::move(r), 0.0));
  }

  ASSERT_EQ(tickets.size(), expected.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].admitted, expected[i].admitted) << "request " << i;
    EXPECT_EQ(tickets[i].forced, expected[i].forced) << "request " << i;
    EXPECT_EQ(tickets[i].id, expected[i].id) << "request " << i;
  }
  EXPECT_EQ(batched.stats().begins, serial.stats().begins);
  EXPECT_EQ(batched.stats().blocks, serial.stats().blocks);
  EXPECT_EQ(batched.stats().immediate_admissions,
            serial.stats().immediate_admissions);
  EXPECT_EQ(batched.resources().usage(ResourceKind::kLLC),
            serial.resources().usage(ResourceKind::kLLC));
  EXPECT_TRUE(batched.audit().ok) << batched.audit().detail;
}

TEST(AdmissionBatch, AdmitBatchParksOverflowInArrivalOrder) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);
  std::vector<ProgressMonitor::WakeGrant> grants;
  core.set_batch_waker(
      [&](const std::vector<ProgressMonitor::WakeGrant>& batch) {
        grants.insert(grants.end(), batch.begin(), batch.end());
      });

  // 16 MB of budget, four 6 MB requests: two admit, two park — in order.
  std::vector<AdmitRequest> reqs;
  for (sim::ThreadId t = 1; t <= 4; ++t) reqs.push_back(request(t, mb(6)));
  const std::vector<AdmitTicket> tickets =
      core.admit_batch(std::move(reqs), 0.0);
  EXPECT_TRUE(tickets[0].admitted);
  EXPECT_TRUE(tickets[1].admitted);
  EXPECT_FALSE(tickets[2].admitted);
  EXPECT_FALSE(tickets[3].admitted);
  EXPECT_EQ(core.monitor().waitlist().size(), 2u);

  // Freeing both admitted periods wakes the parked pair FIFO, and the whole
  // release batch delivers ONE wake flush.
  core.release_batch({tickets[0].id, tickets[1].id}, 1.0);
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].thread, 3u);
  EXPECT_EQ(grants[1].thread, 4u);
  EXPECT_EQ(core.stats().wakes, 2u);
  EXPECT_TRUE(core.audit().ok) << core.audit().detail;
}

TEST(AdmissionBatch, ReleaseBatchMatchesPerCallSequence) {
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore batched(config);
  AdmissionCore serial(config);

  std::vector<PeriodId> batched_ids;
  std::vector<PeriodId> serial_ids;
  for (sim::ThreadId t = 1; t <= 5; ++t) {
    batched_ids.push_back(batched.admit(request(t, mb(2)), 0.0).id);
    serial_ids.push_back(serial.admit(request(t, mb(2)), 0.0).id);
  }

  const std::vector<ReleaseTicket> tickets =
      batched.release_batch(batched_ids, 1.0);
  for (const PeriodId id : serial_ids) serial.release(id, {}, 1.0);

  ASSERT_EQ(tickets.size(), 5u);
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].record.id, batched_ids[i]);
  }
  EXPECT_EQ(batched.stats().ends, serial.stats().ends);
  EXPECT_TRUE(batched.resources().effectively_free(ResourceKind::kLLC));
  EXPECT_TRUE(batched.audit().ok) << batched.audit().detail;
}

TEST(AdmissionBatch, ReleaseBatchDischargesOversubRecords) {
  // Forced-oversub records carry slow-lane obligations (oversub tally): the
  // batch path must discharge them exactly like the per-call slow release.
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  config.monitor.watchdog.enable = true;
  config.monitor.watchdog.max_wake_rounds = 1;
  AdmissionCore core(config);

  const AdmitTicket holder = core.admit(request(1, mb(12)), 0.0);
  ASSERT_TRUE(holder.admitted);
  const AdmitTicket waiter = core.admit(request(2, mb(12)), 0.1);
  ASSERT_FALSE(waiter.admitted);
  // Two stall escalations: rung 2 force-admits the waiter with the excess
  // booked in the oversubscription tally.
  while (!core.is_admitted(waiter.id)) {
    ASSERT_TRUE(core.watchdog_stalled(0.2));
  }
  EXPECT_GT(core.resources().oversubscribed(ResourceKind::kLLC), 0.0);

  core.release_batch({holder.id, waiter.id}, 1.0);
  EXPECT_EQ(core.resources().oversubscribed(ResourceKind::kLLC), 0.0);
  EXPECT_TRUE(core.resources().effectively_free(ResourceKind::kLLC));
  EXPECT_EQ(core.stats().ends, 2u);
  EXPECT_TRUE(core.audit().ok) << core.audit().detail;
}

TEST(AdmissionBatch, EndPeriodsUsesOneRescanForTheWholeBatch) {
  // Direct monitor-level check: a batch of ends re-offers capacity with a
  // single scheduling pass, so a waiter that fits only after ALL the ends
  // still wakes (work-conserving), and wake rounds advance once per batch.
  AdmissionConfig config;
  config.llc_capacity_bytes = mb(16);
  AdmissionCore core(config);
  std::vector<sim::ThreadId> woken;
  core.set_batch_waker(log_wakes(woken));

  const AdmitTicket a = core.admit(request(1, mb(8)), 0.0);
  const AdmitTicket b = core.admit(request(2, mb(8)), 0.0);
  const AdmitTicket big = core.admit(request(3, mb(14)), 0.1);
  ASSERT_FALSE(big.admitted);

  // Releasing a alone cannot admit the 14 MB waiter; the batch of both must.
  core.release_batch({a.id, b.id}, 1.0);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 3u);
  core.release(big.id, {}, 2.0);
  EXPECT_TRUE(core.audit().ok) << core.audit().detail;
}

}  // namespace
}  // namespace rda::core
