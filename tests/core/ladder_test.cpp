// EscalationLadder — the shared rung state machine of the watchdog, the
// service overload control and the tenant penalty ladder: streak
// thresholds, opposite samples restarting a streak, saturation at both
// ends, and the forced climb.
#include <gtest/gtest.h>

#include "core/ladder.hpp"

namespace rda::core {
namespace {

TEST(EscalationLadder, StartsAtRungZeroWithNoStreaks) {
  const EscalationLadder ladder;
  EXPECT_EQ(ladder.rung(), 0);
  EXPECT_EQ(ladder.worse_streak(), 0u);
  EXPECT_EQ(ladder.better_streak(), 0u);
}

TEST(EscalationLadder, ClimbsOnlyAfterUpAfterConsecutiveWorseSamples) {
  EscalationLadder ladder;
  EXPECT_FALSE(ladder.worse(3, 4));
  EXPECT_FALSE(ladder.worse(3, 4));
  EXPECT_EQ(ladder.worse_streak(), 2u);
  EXPECT_TRUE(ladder.worse(3, 4));
  EXPECT_EQ(ladder.rung(), 1);
  EXPECT_EQ(ladder.worse_streak(), 0u);  // the climb restarts the streak
  EXPECT_FALSE(ladder.worse(3, 4));
  EXPECT_FALSE(ladder.worse(3, 4));
  EXPECT_TRUE(ladder.worse(3, 4));
  EXPECT_EQ(ladder.rung(), 2);
}

TEST(EscalationLadder, DescendsOnlyAfterDownAfterConsecutiveBetterSamples) {
  EscalationLadder ladder;
  ladder.climb(4);
  ladder.climb(4);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(ladder.better(6));
  EXPECT_EQ(ladder.better_streak(), 5u);
  EXPECT_TRUE(ladder.better(6));
  EXPECT_EQ(ladder.rung(), 1);
  EXPECT_EQ(ladder.better_streak(), 0u);
}

TEST(EscalationLadder, AnOppositeSampleRestartsTheStreak) {
  EscalationLadder ladder;
  ladder.worse(3, 4);
  ladder.worse(3, 4);
  EXPECT_FALSE(ladder.better(6));
  EXPECT_EQ(ladder.worse_streak(), 0u);
  EXPECT_EQ(ladder.better_streak(), 1u);
  // Two more worse samples are not enough: the count started over.
  EXPECT_FALSE(ladder.worse(3, 4));
  EXPECT_FALSE(ladder.worse(3, 4));
  EXPECT_EQ(ladder.better_streak(), 0u);
  EXPECT_EQ(ladder.rung(), 0);
  EXPECT_TRUE(ladder.worse(3, 4));
  EXPECT_EQ(ladder.rung(), 1);

  // And the mirror image on the way down.
  ladder.better(2);
  EXPECT_FALSE(ladder.worse(3, 4));
  EXPECT_FALSE(ladder.better(2));
  EXPECT_EQ(ladder.rung(), 1);
  EXPECT_TRUE(ladder.better(2));
  EXPECT_EQ(ladder.rung(), 0);
}

TEST(EscalationLadder, ThresholdOfOneMovesOnEverySample) {
  EscalationLadder ladder;
  EXPECT_TRUE(ladder.worse(1, 3));
  EXPECT_TRUE(ladder.worse(1, 3));
  EXPECT_TRUE(ladder.better(1));
  EXPECT_EQ(ladder.rung(), 1);
}

TEST(EscalationLadder, StreaksKeepCountingAtTheTopAndTheFloor) {
  EscalationLadder ladder;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ladder.worse(1, 2) == (i < 2));
  EXPECT_EQ(ladder.rung(), 2);
  // Two samples at the top: refused moves, but the streak still counts.
  EXPECT_EQ(ladder.worse_streak(), 2u);
  EXPECT_FALSE(ladder.worse(1, 2));
  EXPECT_EQ(ladder.worse_streak(), 3u);

  EXPECT_TRUE(ladder.better(1));
  EXPECT_TRUE(ladder.better(1));
  EXPECT_EQ(ladder.rung(), 0);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(ladder.better(1));
  EXPECT_EQ(ladder.better_streak(), 5u);
  EXPECT_EQ(ladder.worse_streak(), 0u);
}

TEST(EscalationLadder, ClimbRestartsTheWorseStreakAndStopsAtTop) {
  EscalationLadder ladder;
  ladder.worse(5, 3);
  ladder.worse(5, 3);
  EXPECT_TRUE(ladder.climb(3));
  EXPECT_EQ(ladder.rung(), 1);
  EXPECT_EQ(ladder.worse_streak(), 0u);
  EXPECT_TRUE(ladder.climb(3));
  EXPECT_TRUE(ladder.climb(3));
  EXPECT_EQ(ladder.rung(), 3);
  ladder.worse(5, 3);
  EXPECT_FALSE(ladder.climb(3));
  EXPECT_EQ(ladder.rung(), 3);
  EXPECT_EQ(ladder.worse_streak(), 0u);
  // climb leaves the better streak alone.
  EscalationLadder other;
  other.better(4);
  other.climb(3);
  EXPECT_EQ(other.better_streak(), 1u);
}

}  // namespace
}  // namespace rda::core
