#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace rda::util {
namespace {

TEST(FlatMap, InsertFindErase) {
  FlatMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_FALSE(map.erase(7));

  const auto [value, inserted] = map.insert(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 70);
  // A second insert of the key keeps the first value.
  const auto [again, inserted_again] = map.insert(7, 71);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 70);
  EXPECT_EQ(map.size(), 1u);

  map[0] += 5;  // key 0 is an ordinary key
  EXPECT_EQ(*map.find(0), 5);
  EXPECT_TRUE(map.contains(0));
  EXPECT_TRUE(map.erase(7));
  EXPECT_FALSE(map.contains(7));
  EXPECT_EQ(map.size(), 1u);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(0), nullptr);
}

TEST(FlatMap, IterationVisitsEveryEntryOnce) {
  FlatMap<std::uint64_t> map;
  for (std::uint64_t k = 1; k <= 100; ++k) map.insert(k << 56 | k, k);
  for (std::uint64_t k = 1; k <= 100; k += 3) map.erase(k << 56 | k);
  std::vector<std::uint64_t> seen;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(key, value << 56 | value);
    seen.push_back(value);
  }
  std::sort(seen.begin(), seen.end());
  std::vector<std::uint64_t> expected;
  for (std::uint64_t k = 1; k <= 100; ++k) {
    if ((k - 1) % 3 != 0) expected.push_back(k);
  }
  EXPECT_EQ(seen, expected);
}

// Differential check against std::unordered_map over a seeded random
// sequence of inserts, finds and erases. The key range is small relative to
// the operation count, so most operations hit live keys: erases open holes
// inside probe runs that backward-shift deletion must close without
// orphaning any later entry, and the table grows several times on the way.
TEST(FlatMap, MatchesUnorderedMapUnderEraseChurnAndGrowth) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    FlatMap<std::uint64_t> flat;
    std::unordered_map<std::uint64_t, std::uint64_t> reference;
    std::size_t grew = 0;
    std::size_t last_capacity = flat.capacity();
    for (int op = 0; op < 200'000; ++op) {
      // The key range widens, so the population grows through several
      // capacities, and the last quarter is erase-heavy, so it shrinks.
      const std::uint64_t range = op < 100'000 ? 64 + op / 20 : 5'064;
      const std::uint64_t insert_below = op < 150'000 ? 4 : 2;
      // Flight-key shaped: a node id in the high byte above a small id.
      const std::uint64_t key =
          (rng.next_below(4) << 56) | rng.next_below(range);
      const std::uint64_t roll = rng.next_below(10);
      if (roll < insert_below) {
        const std::uint64_t value = rng.next_u64();
        const bool inserted = flat.insert(key, value).second;
        EXPECT_EQ(inserted, reference.emplace(key, value).second);
      } else if (roll < 8) {
        EXPECT_EQ(flat.erase(key), reference.erase(key) == 1);
      } else {
        const std::uint64_t* found = flat.find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
      ASSERT_EQ(flat.size(), reference.size()) << "op " << op;
      if (flat.capacity() != last_capacity) {
        ++grew;
        last_capacity = flat.capacity();
      }
    }
    EXPECT_GE(grew, 4u);
    std::size_t visited = 0;
    for (const auto& [key, value] : flat) {
      const auto it = reference.find(key);
      ASSERT_NE(it, reference.end());
      EXPECT_EQ(value, it->second);
      ++visited;
    }
    EXPECT_EQ(visited, reference.size());
  }
}

TEST(FlatMap, SteadyChurnNeverRehashes) {
  // A bounded population that keeps turning over stays in one slot array:
  // with no tombstones there is nothing to rehash away.
  FlatMap<int> map;
  for (std::uint64_t k = 0; k < 100; ++k) map.insert(k, 1);
  const std::size_t capacity = map.capacity();
  for (std::uint64_t k = 100; k < 100'000; ++k) {
    ASSERT_TRUE(map.erase(k - 100));
    map.insert(k, 1);
  }
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.size(), 100u);
}

}  // namespace
}  // namespace rda::util
