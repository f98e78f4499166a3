#include "core/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/check.hpp"

namespace rda::core {
namespace {

PeriodRecord record_for(sim::ThreadId thread, double demand = 1000.0) {
  PeriodRecord r;
  r.thread = thread;
  r.process = thread / 2;
  r.set_single(ResourceKind::kLLC, demand);
  r.reuse = ReuseLevel::kHigh;
  r.label = "test";
  return r;
}

TEST(PeriodRegistry, InsertAssignsUniqueIds) {
  PeriodRegistry reg;
  const PeriodId a = reg.insert(record_for(1));
  const PeriodId b = reg.insert(record_for(2));
  EXPECT_NE(a, kInvalidPeriod);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.active_count(), 2u);
}

TEST(PeriodRegistry, FindReturnsStoredRecord) {
  PeriodRegistry reg;
  const PeriodId id = reg.insert(record_for(3, 555.0));
  const PeriodRecord* found = reg.find(id);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->thread, 3u);
  EXPECT_DOUBLE_EQ(found->primary_demand(), 555.0);
  EXPECT_DOUBLE_EQ(found->demand_for(ResourceKind::kLLC), 555.0);
  EXPECT_DOUBLE_EQ(found->demand_for(ResourceKind::kMemBandwidth), 0.0);
  EXPECT_EQ(found->id, id);
  EXPECT_EQ(reg.find(9999), nullptr);
}

TEST(PeriodRegistry, RemoveReturnsAndErases) {
  PeriodRegistry reg;
  const PeriodId id = reg.insert(record_for(4));
  const PeriodRecord removed = reg.remove(id);
  EXPECT_EQ(removed.thread, 4u);
  EXPECT_EQ(reg.active_count(), 0u);
  EXPECT_EQ(reg.find(id), nullptr);
}

TEST(PeriodRegistry, DoubleEndDetected) {
  PeriodRegistry reg;
  const PeriodId id = reg.insert(record_for(5));
  reg.remove(id);
  EXPECT_THROW(reg.remove(id), util::CheckFailure);
}

TEST(PeriodRegistry, UnknownIdDetected) {
  PeriodRegistry reg;
  EXPECT_THROW(reg.remove(42), util::CheckFailure);
}

TEST(PeriodRegistry, PeriodsDoNotNestPerThread) {
  PeriodRegistry reg;
  reg.insert(record_for(6));
  EXPECT_THROW(reg.insert(record_for(6)), util::CheckFailure);
}

TEST(PeriodRegistry, ThreadCanStartNewPeriodAfterEnd) {
  PeriodRegistry reg;
  const PeriodId first = reg.insert(record_for(7));
  reg.remove(first);
  const PeriodId second = reg.insert(record_for(7));
  EXPECT_NE(first, second);  // ids are never reused
}

TEST(PeriodRegistry, ActiveForThread) {
  PeriodRegistry reg;
  const PeriodId id = reg.insert(record_for(8));
  EXPECT_EQ(reg.active_for_thread(8), id);
  EXPECT_FALSE(reg.active_for_thread(9).has_value());
  reg.remove(id);
  EXPECT_FALSE(reg.active_for_thread(8).has_value());
}

TEST(PeriodRegistry, NegativeDemandRejected) {
  PeriodRegistry reg;
  EXPECT_THROW(reg.insert(record_for(10, -1.0)), util::CheckFailure);
}

TEST(PeriodRegistry, SnapshotListsAllActive) {
  PeriodRegistry reg;
  reg.insert(record_for(11));
  reg.insert(record_for(12));
  const auto snapshot = reg.snapshot();
  EXPECT_EQ(snapshot.size(), 2u);
}

TEST(PeriodRegistry, SnapshotIsSortedById) {
  PeriodRegistry reg;
  std::vector<PeriodId> ids;
  for (sim::ThreadId t = 20; t < 30; ++t) {
    ids.push_back(reg.insert(record_for(t)));
  }
  // Free slots in the middle, then refill them: slot order and id order
  // now disagree.
  reg.remove(ids[2]);
  reg.remove(ids[5]);
  reg.insert(record_for(2));
  reg.insert(record_for(5));
  const auto snapshot = reg.snapshot();
  ASSERT_EQ(snapshot.size(), 10u);
  EXPECT_TRUE(std::is_sorted(snapshot.begin(), snapshot.end(),
                             [](const PeriodRecord& a, const PeriodRecord& b) {
                               return a.id < b.id;
                             }));
}

TEST(PeriodRegistry, HoldsManyLivePeriods) {
  // Well past the handful of live periods a shard usually holds.
  constexpr sim::ThreadId kLive = 100;
  PeriodRegistry reg(3, 16);
  std::vector<PeriodId> ids;
  for (sim::ThreadId t = 0; t < kLive; ++t) {
    ids.push_back(reg.insert(record_for(t, 100.0 + t)));
  }
  EXPECT_EQ(reg.active_count(), kLive);
  for (sim::ThreadId t = 0; t < kLive; ++t) {
    const PeriodId id = ids[t];
    EXPECT_EQ(id % 16, 3u);  // the residue class of first_id
    EXPECT_EQ(reg.active_for_thread(t), id);
    const PeriodRecord* found = reg.find(id);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->thread, t);
    EXPECT_DOUBLE_EQ(found->primary_demand(), 100.0 + t);
    EXPECT_THROW(reg.insert(record_for(t)), util::CheckFailure);
  }
  // Remove every other one; the rest stay findable.
  for (sim::ThreadId t = 0; t < kLive; t += 2) reg.remove(ids[t]);
  EXPECT_EQ(reg.active_count(), kLive / 2);
  for (sim::ThreadId t = 0; t < kLive; ++t) {
    EXPECT_EQ(reg.find(ids[t]) != nullptr, t % 2 == 1) << t;
  }
  EXPECT_THROW(reg.remove(ids[0]), util::CheckFailure);
}

TEST(PeriodRegistry, FoundPointerSurvivesChurnOfOtherRecords) {
  PeriodRegistry reg;
  const PeriodId held = reg.insert(record_for(1, 4242.0));
  const PeriodRecord* pinned = reg.find(held);
  ASSERT_NE(pinned, nullptr);
  // 1000 inserts and removes of other records, with up to 40 live at once
  // so the slot array grows and reuses freed slots around the pinned one.
  std::vector<PeriodId> others;
  for (int i = 0; i < 1000; ++i) {
    if (others.size() < 40 && i % 3 != 2) {
      others.push_back(
          reg.insert(record_for(static_cast<sim::ThreadId>(100 + i))));
    } else {
      reg.remove(others.front());
      others.erase(others.begin());
    }
    ASSERT_EQ(reg.find(held), pinned) << "after step " << i;
  }
  EXPECT_EQ(pinned->id, held);
  EXPECT_EQ(pinned->thread, 1u);
  EXPECT_DOUBLE_EQ(pinned->primary_demand(), 4242.0);
  EXPECT_EQ(reg.remove(held).primary_demand(), 4242.0);
}

}  // namespace
}  // namespace rda::core
