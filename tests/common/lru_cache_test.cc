#include "common/lru_cache.h"

#include <cstddef>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace halk {
namespace {

/// Prices a string by its length, so budgets below are in characters.
struct LengthCost {
  size_t operator()(const std::string& value) const { return value.size(); }
};

using ByteCache = LruCache<int, std::string, std::hash<int>, LengthCost>;

std::vector<int> Keys(const std::vector<std::pair<int, std::string>>& all) {
  std::vector<int> keys;
  for (const auto& [key, value] : all) keys.push_back(key);
  return keys;
}

TEST(CommonLruCacheTest, CostBudgetEvictsFromTheLeastRecentEnd) {
  ByteCache cache(10);
  cache.Put(1, "aaaa");
  cache.Put(2, "bbbb");
  EXPECT_EQ(cache.charged(), 8u);
  ASSERT_TRUE(cache.Get(1, nullptr));  // 2 is now least recent
  cache.Put(3, "ccc");                 // 11 > 10: evicts 2
  EXPECT_EQ(Keys(cache.Snapshot()), (std::vector<int>{3, 1}));
  EXPECT_EQ(cache.charged(), 7u);
  EXPECT_EQ(cache.evictions(), 1);
}

TEST(CommonLruCacheTest, OverBudgetPutIsDroppedAndKeepsTheOldValue) {
  ByteCache cache(4);
  cache.Put(1, "ab");
  cache.Put(1, "abcde");  // costs more than the whole budget
  std::string out;
  ASSERT_TRUE(cache.Peek(1, &out));
  EXPECT_EQ(out, "ab");
  EXPECT_EQ(cache.charged(), 2u);
  EXPECT_EQ(cache.evictions(), 0);
}

TEST(CommonLruCacheTest, OverwriteRechargesTheEntry) {
  ByteCache cache(100);
  cache.Put(1, "abc");
  cache.Put(1, "abcdefg");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.charged(), 7u);
}

TEST(CommonLruCacheTest, ReadVisitsInPlaceLikeAGet) {
  ByteCache cache(100);
  cache.Put(1, "abcdef");
  cache.Put(2, "xy");
  std::string prefix;
  EXPECT_TRUE(cache.Read(1, [&](const std::string& value) {
    prefix = value.substr(0, 3);
  }));
  EXPECT_EQ(prefix, "abc");
  // A hit counts and refreshes recency exactly as Get does.
  EXPECT_EQ(Keys(cache.Snapshot()), (std::vector<int>{1, 2}));
  EXPECT_EQ(cache.hits(), 1);
  bool called = false;
  EXPECT_FALSE(cache.Read(3, [&](const std::string&) { called = true; }));
  EXPECT_FALSE(called);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(CommonLruCacheTest, PeekAndContainsHaveNoSideEffects) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  int out = 0;
  EXPECT_TRUE(cache.Peek(1, &out));
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Peek(3, &out));
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  cache.Put(3, 30);  // 1 was never refreshed, so it is evicted
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
}

TEST(CommonLruCacheTest, UpdateCreatesValueInitializedThenFoldsInPlace) {
  LruCache<std::string, int> cache(2);
  cache.Update("a", [](int& v) { v += 5; });
  cache.Update("b", [](int& v) { v += 1; });
  cache.Update("a", [](int& v) { v *= 3; });  // refreshes "a"
  const std::vector<std::pair<std::string, int>> all = cache.Snapshot();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], (std::pair<std::string, int>{"a", 15}));
  EXPECT_EQ(all[1], (std::pair<std::string, int>{"b", 1}));
  cache.Update("c", [](int& v) { v = 7; });  // evicts "b", the LRU entry
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.hits(), 0);  // Update is not a lookup
}

TEST(CommonLruCacheTest, UpdateRechargesAGrownValue) {
  ByteCache cache(6);
  cache.Put(1, "ab");
  cache.Put(2, "cd");
  cache.Update(2, [](std::string& v) { v += "efg"; });  // 2 + 5 > 6
  EXPECT_EQ(Keys(cache.Snapshot()), (std::vector<int>{2}));
  EXPECT_EQ(cache.charged(), 5u);
}

TEST(CommonLruCacheTest, EraseIfDropsMatchesKeepsOrderAndCountsErasures) {
  ByteCache cache(100);
  for (int k = 1; k <= 5; ++k) cache.Put(k, std::string(k, 'x'));
  const size_t erased = cache.EraseIf(
      [](const int& key, const std::string&) { return key % 2 == 1; });
  EXPECT_EQ(erased, 3u);
  EXPECT_EQ(Keys(cache.Snapshot()), (std::vector<int>{4, 2}));
  EXPECT_EQ(cache.charged(), 6u);
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(cache.erased(), 3);
}

TEST(CommonLruCacheTest, ClearKeepsCounters) {
  LruCache<int, int> cache(4);
  cache.Put(1, 1);
  EXPECT_TRUE(cache.Get(1, nullptr));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.charged(), 0u);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(CommonLruCacheTest, ConcurrentUpdatesAreNeverLost) {
  LruCache<int, int> cache(8);
  constexpr int kThreads = 4;
  constexpr int kOps = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache] {
      for (int i = 0; i < kOps; ++i) {
        cache.Update(i % 8, [](int& v) { ++v; });
        cache.EraseIf([](const int&, const int& v) { return v < 0; });
        (void)cache.Snapshot();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int total = 0;
  for (const auto& [key, value] : cache.Snapshot()) total += value;
  EXPECT_EQ(total, kThreads * kOps);
}

}  // namespace
}  // namespace halk
