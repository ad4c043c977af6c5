#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>

#include "src/cache/page_cache.h"
#include "src/util/random.h"

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

// Reference model: one LRU list of keys (front = most recent) and a copy of
// each frame's flags; an eviction walks from the back past pinned frames.
// The cache's pinned list and cleaned set must reproduce its victims.
class ReferenceLru {
 public:
  struct Flags {
    bool dirty = false;
    bool dirty_since_log = false;
  };

  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool Contains(std::uint32_t key) const { return flags_.contains(key); }
  std::size_t size() const { return flags_.size(); }
  std::uint64_t evictions() const { return evictions_; }
  Flags& flags(std::uint32_t key) { return flags_.at(key); }

  void Touch(std::uint32_t key) {
    order_.remove(key);
    order_.push_front(key);
  }

  void Add(std::uint32_t key) {
    if (flags_.size() >= capacity_) {
      for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        const Flags& f = flags_.at(*it);
        if (!f.dirty && !f.dirty_since_log) {
          flags_.erase(*it);
          order_.erase(std::next(it).base());
          ++evictions_;
          break;
        }
      }
    }
    flags_[key] = Flags{};
    order_.push_front(key);
  }

  void Remove(std::uint32_t key) {
    flags_.erase(key);
    order_.remove(key);
  }

 private:
  std::size_t capacity_;
  std::list<std::uint32_t> order_;
  std::map<std::uint32_t, Flags> flags_;
  std::uint64_t evictions_ = 0;
};

void RandomFlags(Rng& rng, Frame& frame, ReferenceLru::Flags& ref) {
  // Mostly clean, so evictions find victims at many walk depths.
  frame.dirty = rng.Chance(0.35);
  frame.dirty_since_log = rng.Chance(0.2);
  ref.dirty = frame.dirty;
  ref.dirty_since_log = frame.dirty_since_log;
}

TEST(PageCacheTest, VictimOrderMatchesReferenceTailWalk) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const auto capacity = static_cast<std::size_t>(rng.Between(8, 24));
    const auto keys = static_cast<std::uint32_t>(capacity * 3);
    PageCache cache(capacity);
    ReferenceLru ref(capacity);
    for (int step = 0; step < 6000; ++step) {
      const auto key = static_cast<std::uint32_t>(rng.Below(keys));
      const bool present = ref.Contains(key);
      switch (rng.Below(9)) {
        case 0: {  // Insert: replaces a frame with a clean one
          Frame& frame = cache.Insert(key, Data(1));
          present ? ref.Touch(key) : ref.Add(key);
          ref.flags(key) = {};
          if (rng.Chance(0.3)) {  // raw flag change right after the call
            RandomFlags(rng, frame, ref.flags(key));
          }
          break;
        }
        case 1:  // Find
          ASSERT_EQ(cache.Find(key) != nullptr, present);
          if (present) {
            ref.Touch(key);
          }
          break;
        case 2: {  // ReadInto
          std::vector<std::uint8_t> out(64);
          ASSERT_EQ(cache.ReadInto(key, out), present);
          if (present) {
            ref.Touch(key);
          }
          break;
        }
        case 3:  // Upsert: dirties or cleans, and touches
          present ? ref.Touch(key) : ref.Add(key);
          cache.Upsert(key, [&](Frame& frame, bool inserted) {
            ASSERT_EQ(inserted, !present);
            RandomFlags(rng, frame, ref.flags(key));
          });
          break;
        case 4:  // Apply: flag flips without a touch
        case 5: {
          auto flip = [&](Frame& frame) {
            RandomFlags(rng, frame, ref.flags(key));
          };
          ASSERT_EQ(cache.Apply(key, flip), present);
          break;
        }
        case 6:  // InsertIfAbsent
          ASSERT_EQ(cache.InsertIfAbsent(key, Data(2)), !present);
          if (!present) {
            ref.Add(key);
          }
          break;
        case 7: {  // EraseIf: erases, or flips flags and keeps the frame
          const bool erase = rng.Chance(0.3);
          const bool erased = cache.EraseIf(key, [&](Frame& frame) {
            if (!erase) {
              RandomFlags(rng, frame, ref.flags(key));
            }
            return erase;
          });
          ASSERT_EQ(erased, present && erase);
          if (erased) {
            ref.Remove(key);
          }
          break;
        }
        case 8:  // ForEach: a checkpoint-like sweep over some frames
          cache.ForEach([&](std::uint32_t k, Frame& frame) {
            if (rng.Chance(0.3)) {
              RandomFlags(rng, frame, ref.flags(k));
            }
          });
          break;
      }
      ASSERT_EQ(cache.size(), ref.size())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(cache.evictions(), ref.evictions())
          << "seed " << seed << " step " << step;
      for (std::uint32_t k = 0; k < keys; ++k) {
        ASSERT_EQ(cache.Apply(k, [](Frame&) {}), ref.Contains(k))
            << "seed " << seed << " step " << step << " key " << k;
      }
    }
    // Each frame is examined at most once per touch before it is evicted
    // or pinned, so the walk stays short.
    EXPECT_GT(cache.evictions(), 100u);
    EXPECT_LE(cache.eviction_scan_steps(), 6000u + cache.evictions());
  }
}

}  // namespace
}  // namespace cedar::cache
