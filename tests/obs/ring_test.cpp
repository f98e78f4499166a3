#include "obs/ring.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace rda::obs {
namespace {

Event event_with_period(core::PeriodId id) {
  Event e;
  e.period = id;
  e.time = static_cast<double>(id);
  return e;
}

TEST(EventRing, CapacityIsExact) {
  EXPECT_EQ(EventRing(1).capacity(), 1u);
  EXPECT_EQ(EventRing(5).capacity(), 5u);
  EXPECT_EQ(EventRing(8).capacity(), 8u);
  EXPECT_EQ(EventRing(1000).capacity(), 1000u);
}

TEST(EventRing, WrapAroundAtNonPowerOfTwoCapacity) {
  // One push short of a lap, exactly one lap, part of a second lap, and
  // several laps: the ring always hands back the newest 5, oldest first.
  for (const core::PeriodId n : {4u, 5u, 6u, 9u, 10u, 23u}) {
    SCOPED_TRACE(n);
    EventRing ring(5);
    for (core::PeriodId id = 1; id <= n; ++id) {
      ring.push(event_with_period(id));
    }
    const std::uint64_t held = n < 5 ? n : 5;
    EXPECT_EQ(ring.total_recorded(), n);
    EXPECT_EQ(ring.dropped(), n - held);
    const std::vector<Event> events = ring.snapshot();
    ASSERT_EQ(events.size(), held);
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].period, n - held + 1 + i);
    }
  }
}

TEST(EventRing, SnapshotReturnsEventsInOrder) {
  EventRing ring(8);
  for (core::PeriodId id = 1; id <= 5; ++id) {
    ring.push(event_with_period(id));
  }
  EXPECT_EQ(ring.total_recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].period, i + 1);
  }
}

TEST(EventRing, WrapAroundKeepsNewestAndCountsDropped) {
  EventRing ring(4);
  for (core::PeriodId id = 1; id <= 6; ++id) {
    ring.push(event_with_period(id));
  }
  EXPECT_EQ(ring.total_recorded(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);  // events 1 and 2 were overwritten
  const std::vector<Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].period, i + 3);  // oldest surviving first
  }
}

TEST(EventRing, LabelsSurviveTheRing) {
  EventRing ring(4);
  Event e;
  e.set_label("a-label-longer-than-the-24-byte-field");
  ring.push(e);
  const std::vector<Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  // Truncated to fit, NUL-terminated.
  EXPECT_EQ(std::string_view(events[0].label), "a-label-longer-than-the");
}

TEST(EventRing, ConcurrentPushesLoseNothing) {
  EventRing ring(1 << 12);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ring.push(event_with_period(
            static_cast<core::PeriodId>(t * kPerThread + i + 1)));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ring.total_recorded(), kThreads * kPerThread);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.snapshot().size(), kThreads * kPerThread);
}

}  // namespace
}  // namespace rda::obs
