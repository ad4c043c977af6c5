#include <gtest/gtest.h>

#include "src/cache/page_cache.h"

namespace cedar::cache {
namespace {

std::vector<std::uint8_t> Data(std::uint8_t fill) {
  return std::vector<std::uint8_t>(64, fill);
}

TEST(PageCacheTest, MissThenHit) {
  PageCache cache(8);
  EXPECT_EQ(cache.Find(1), nullptr);
  cache.Insert(1, Data(0xA));
  Frame* frame = cache.Find(1);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->data, Data(0xA));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PageCacheTest, InsertReplacesAndResetsFlags) {
  PageCache cache(8);
  Frame& first = cache.Insert(1, Data(1));
  first.dirty = true;
  first.logged_lsn = 2;
  Frame& second = cache.Insert(1, Data(2));
  EXPECT_FALSE(second.dirty);
  EXPECT_EQ(second.logged_lsn, 0u);
  EXPECT_EQ(second.data, Data(2));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PageCacheTest, EvictsCleanLruAtCapacity) {
  PageCache cache(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    cache.Insert(i, Data(static_cast<std::uint8_t>(i)));
  }
  cache.Find(0);  // 0 is now most recently used; 1 is the LRU
  cache.Insert(100, Data(0x64));
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.Find(1), nullptr);   // evicted
  EXPECT_NE(cache.Find(0), nullptr);   // kept
  EXPECT_NE(cache.Find(100), nullptr);
}

TEST(PageCacheTest, NeverEvictsDirtyFrames) {
  PageCache cache(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    cache.Insert(i, Data(1)).dirty = true;
  }
  cache.Insert(100, Data(2));
  // All 8 dirty frames survive; the cache grew instead.
  EXPECT_EQ(cache.size(), 9u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_NE(cache.Find(i), nullptr) << i;
  }
}

TEST(PageCacheTest, DirtySinceLogAlsoProtected) {
  PageCache cache(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    Frame& frame = cache.Insert(i, Data(1));
    frame.dirty_since_log = true;
  }
  cache.Insert(100, Data(2));
  EXPECT_EQ(cache.size(), 9u);
}

TEST(PageCacheTest, EraseAndClear) {
  PageCache cache(8);
  cache.Insert(1, Data(1));
  cache.Insert(2, Data(2));
  cache.Erase(1);
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_NE(cache.Find(2), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PageCacheTest, EvictionCountersTrackTailWalk) {
  PageCache cache(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    cache.Insert(i, Data(1));
  }
  EXPECT_EQ(cache.evictions(), 0u);
  cache.Insert(100, Data(2));  // evicts key 0, the exact LRU tail
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.eviction_scan_steps(), 1u);
  EXPECT_EQ(cache.Find(0), nullptr);
}

TEST(PageCacheTest, EvictionWalksPastDirtyTail) {
  PageCache cache(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    Frame& frame = cache.Insert(i, Data(1));
    frame.dirty = i < 3;  // the three oldest frames are dirty
  }
  cache.Insert(100, Data(2));
  // Keys 0..2 are dirty and protected; key 3 is the oldest clean frame.
  EXPECT_EQ(cache.Find(3), nullptr);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_NE(cache.Find(i), nullptr) << i;
  }
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.eviction_scan_steps(), 4u);  // 3 dirty skips + the victim
}

TEST(PageCacheTest, InsertOfExistingKeyRefreshesRecency) {
  PageCache cache(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    cache.Insert(i, Data(1));
  }
  cache.Insert(0, Data(9));  // re-insert the LRU key: now MRU, size stays 8
  EXPECT_EQ(cache.size(), 8u);
  cache.Insert(100, Data(2));
  EXPECT_NE(cache.Find(0), nullptr);  // refreshed, so key 1 was the victim
  EXPECT_EQ(cache.Find(1), nullptr);
}

TEST(PageCacheTest, EraseUnlinksFromLruOrder) {
  PageCache cache(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    cache.Insert(i, Data(1));
  }
  cache.Erase(0);  // remove the tail
  cache.Erase(7);  // remove the head
  cache.Insert(20, Data(2));
  cache.Insert(21, Data(2));
  EXPECT_EQ(cache.size(), 8u);
  cache.Insert(22, Data(2));  // over capacity: evicts key 1, the oldest left
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_NE(cache.Find(2), nullptr);
}

TEST(PageCacheTest, LruOrderSurvivesHeavyChurn) {
  // Pointer-stability torture: interleave inserts, finds, and erases, then
  // check the cache still behaves like an LRU.
  PageCache cache(16);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    cache.Insert(i % 64, Data(static_cast<std::uint8_t>(i)));
    cache.Find((i * 7) % 64);
    if (i % 13 == 0) {
      cache.Erase((i * 3) % 64);
    }
  }
  EXPECT_LE(cache.size(), 16u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(PageCacheTest, ForEachVisitsAll) {
  PageCache cache(8);
  for (std::uint32_t i = 0; i < 5; ++i) {
    cache.Insert(i, Data(1));
  }
  int visited = 0;
  cache.ForEach([&](std::uint32_t, Frame& frame) {
    ++visited;
    frame.logged_lsn = 1;
  });
  EXPECT_EQ(visited, 5);
  EXPECT_EQ(cache.Find(3)->logged_lsn, 1u);
}

}  // namespace
}  // namespace cedar::cache
