// WireCache: exact-byte keying, LRU eviction per shard, replacement,
// shared-ownership of served frames, and stats accounting.
#include "service/wire_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

using medcc::service::WireCache;

TEST(WireCache, FindReturnsExactInsertedFrame) {
  WireCache cache;
  EXPECT_EQ(cache.find("request-a"), nullptr);
  cache.insert("request-a", "frame-a");
  const auto hit = cache.find("request-a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "frame-a");
  // A single differing byte is a different request.
  EXPECT_EQ(cache.find("request-b"), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(WireCache, InsertReplacesExistingEntry) {
  WireCache cache;
  cache.insert("key", "old");
  cache.insert("key", "new");
  const auto hit = cache.find("key");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "new");
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(WireCache, InsertTakesAnOwnedKeyOrCopiesABorrowedOne) {
  WireCache cache;
  std::string owned = "owned-key";
  cache.insert(std::move(owned), "frame-1");
  const std::string borrowed = "borrowed-key";
  cache.insert(borrowed, "frame-2");
  EXPECT_EQ(borrowed, "borrowed-key");
  const auto first = cache.find("owned-key");
  const auto second = cache.find(borrowed);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(*first, "frame-1");
  EXPECT_EQ(*second, "frame-2");
  EXPECT_EQ(cache.stats().insertions, 2u);
}

TEST(WireCache, ServedFrameSurvivesEviction) {
  WireCache::Config config;
  config.capacity = 1;
  config.shards = 1;
  WireCache cache(config);

  cache.insert("first", "frame-1");
  const auto held = cache.find("first");
  ASSERT_NE(held, nullptr);

  // Evict "first" by inserting into the full single-entry shard. The
  // shared_ptr handed out above must keep the bytes alive (the server
  // may still be splicing them into an outbuf).
  cache.insert("second", "frame-2");
  EXPECT_EQ(cache.find("first"), nullptr);
  EXPECT_EQ(*held, "frame-1");
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(WireCache, LruPrefersRecentlyFoundEntries) {
  WireCache::Config config;
  config.capacity = 2;
  config.shards = 1;
  WireCache cache(config);

  cache.insert("a", "fa");
  cache.insert("b", "fb");
  // Touch "a" so "b" is the least recently used.
  ASSERT_NE(cache.find("a"), nullptr);
  cache.insert("c", "fc");
  EXPECT_NE(cache.find("a"), nullptr);
  EXPECT_EQ(cache.find("b"), nullptr);
  EXPECT_NE(cache.find("c"), nullptr);
}

TEST(WireCache, TtlExpiresAndRestamps) {
  std::int64_t now = 0;
  WireCache::Config config;
  config.capacity = 8;
  config.shards = 1;
  config.ttl_s = 10;
  config.clock = [&now] { return now; };
  WireCache cache(config);

  cache.insert("key", "frame");
  now = 9;
  EXPECT_NE(cache.find("key"), nullptr);
  now = 10;  // aged out: fast path must not outlive the result cache
  EXPECT_EQ(cache.find("key"), nullptr);
  auto stats = cache.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.size, 0u);

  // Re-inserting restarts the clock.
  now = 20;
  cache.insert("key", "frame");
  now = 29;
  EXPECT_NE(cache.find("key"), nullptr);
}

TEST(WireCache, ClearEmptiesEveryShard) {
  WireCache cache;
  for (int i = 0; i < 32; ++i)
    cache.insert("key-" + std::to_string(i), "frame");
  EXPECT_EQ(cache.stats().size, 32u);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.find("key-0"), nullptr);
}

TEST(WireCache, CapacityFloorsAtOneAndBoundsSize) {
  WireCache::Config config;
  config.capacity = 0;  // floored to 1
  WireCache floored(config);
  EXPECT_EQ(floored.capacity(), 1u);

  WireCache::Config small;
  small.capacity = 8;
  small.shards = 4;
  WireCache cache(small);
  for (int i = 0; i < 100; ++i)
    cache.insert("key-" + std::to_string(i), "frame");
  // Per-shard LRU: total occupancy never exceeds ceil(capacity/shards)
  // per shard, i.e. capacity overall.
  EXPECT_LE(cache.stats().size, 8u);
}

TEST(WireCache, ConcurrentMixedTrafficIsSafe) {
  WireCache::Config config;
  config.capacity = 64;
  WireCache cache(config);
  constexpr int kThreads = 4;
  constexpr int kIterations = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::string key = "key-" + std::to_string((t * 7 + i) % 96);
        if (i % 3 == 0) {
          cache.insert(key, "frame-" + key);
        } else if (const auto hit = cache.find(key)) {
          EXPECT_EQ(*hit, "frame-" + key);
        }
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.stats().size, 64u);
}

}  // namespace
