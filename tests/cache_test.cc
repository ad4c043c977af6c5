#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>

#include "src/btree/btree.h"
#include "src/btree/mem_page_store.h"
#include "src/cache/page_cache.h"
#include "src/core/fsd.h"
#include "src/util/random.h"

namespace cedar::cache {
namespace {

std::vector<std::uint8_t> Data(std::uint8_t fill) {
  return std::vector<std::uint8_t>(64, fill);
}

// Test classification: a frame whose bytes are kInteriorFill is interior.
constexpr std::uint8_t kInteriorFill = 0xB7;
bool FillIsInterior(std::uint32_t, std::span<const std::uint8_t> data) {
  return !data.empty() && data[0] == kInteriorFill;
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

// Interior frames live on their own list, so the walk from the LRU tail
// never steps over them: with interior frames older than the dirty tail
// and between it and the victim, the walk still takes 4 steps.
TEST(PageCacheTest, EvictionWalkNeverStepsOverInteriorFrames) {
  PageCache cache(8, nullptr, &FillIsInterior);
  cache.Insert(50, Data(kInteriorFill));
  for (std::uint32_t i = 0; i < 5; ++i) {
    cache.Insert(i, Data(1)).dirty = i < 3;
  }
  cache.Insert(51, Data(kInteriorFill));
  cache.Insert(52, Data(kInteriorFill));
  cache.Insert(100, Data(2));  // evicts key 3, the oldest clean leaf
  EXPECT_EQ(cache.Find(3), nullptr);
  EXPECT_NE(cache.Find(50), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.eviction_scan_steps(), 4u);  // 3 dirty skips + the victim
}

// A cache whose clean frames are all interior still evicts — the oldest
// clean interior frame, past dirty ones — and grows past capacity only
// when every frame is dirty.
TEST(PageCacheTest, AllInteriorCacheStillEvicts) {
  PageCache cache(8, nullptr, &FillIsInterior);
  for (std::uint32_t i = 0; i < 8; ++i) {
    cache.Insert(i, Data(kInteriorFill)).dirty = i < 2;
  }
  cache.Insert(100, Data(kInteriorFill));  // evicts key 2
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.eviction_scan_steps(), 3u);  // 2 dirty skips + the victim
  EXPECT_EQ(cache.Apply(2, [](Frame&) {}), false);
  EXPECT_TRUE(cache.Apply(0, [](Frame&) {}));
  EXPECT_TRUE(cache.Apply(1, [](Frame&) {}));

  // A leaf arriving now still finds an interior victim (key 3, the oldest
  // clean one) rather than growing the cache.
  cache.Insert(101, Data(1));
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_FALSE(cache.Apply(3, [](Frame&) {}));

  // Every frame dirty: nothing may go, so the cache grows.
  cache.ForEach([](std::uint32_t, Frame& frame) { frame.dirty = true; });
  cache.Insert(102, Data(kInteriorFill));
  EXPECT_EQ(cache.size(), 9u);
  EXPECT_EQ(cache.evictions(), 2u);
}

// A page rewritten from leaf to interior (a root split) moves to the
// interior list and outlives every clean leaf; one rewritten from interior
// to leaf (a root collapse) rejoins the LRU order at its recency — by a
// touching Upsert at the front, by an Apply where its last touch left it.
TEST(PageCacheTest, ReclassifiedPageMovesLists) {
  PageCache cache(8, nullptr, &FillIsInterior);
  for (std::uint32_t i = 0; i < 8; ++i) {
    cache.Insert(i, Data(1));
  }
  // Key 0, the LRU tail, becomes interior without a touch.
  cache.Apply(0, [](Frame& frame) { frame.data = Data(kInteriorFill); });
  cache.Insert(100, Data(1));  // evicts key 1, not key 0
  EXPECT_FALSE(cache.Apply(1, [](Frame&) {}));
  EXPECT_TRUE(cache.Apply(0, [](Frame&) {}));
  for (std::uint32_t k = 101; k < 107; ++k) {
    cache.Insert(k, Data(1));  // evicts keys 2..7: key 0 survives them all
  }
  EXPECT_TRUE(cache.Apply(0, [](Frame&) {}));
  for (std::uint32_t k = 2; k < 8; ++k) {
    EXPECT_FALSE(cache.Apply(k, [](Frame&) {})) << k;
  }

  // Key 0 back to a leaf without a touch: its stamp is older than every
  // leaf now cached, so it is the next victim.
  cache.Apply(0, [](Frame& frame) { frame.data = Data(1); });
  cache.Insert(107, Data(1));
  EXPECT_FALSE(cache.Apply(0, [](Frame&) {}));

  // Key 100 (now the oldest leaf) rewritten as interior by a touching
  // Upsert, then back to a leaf by another: it is then the newest leaf, so
  // the two next victims are keys 101 and 102.
  cache.Upsert(100,
               [](Frame& frame, bool) { frame.data = Data(kInteriorFill); });
  cache.Upsert(100, [](Frame& frame, bool) { frame.data = Data(1); });
  cache.Insert(108, Data(1));
  cache.Insert(109, Data(1));
  EXPECT_FALSE(cache.Apply(101, [](Frame&) {}));
  EXPECT_FALSE(cache.Apply(102, [](Frame&) {}));
  EXPECT_TRUE(cache.Apply(100, [](Frame&) {}));
}

// FSD's classifier reads a name-table frame's B-tree node type, but never
// a leader frame's: a leader whose first byte equals an interior node's is
// still a leaf, evicted before a real interior page.
TEST(PageCacheTest, LeaderKeyIsNeverInterior) {
  // A genuine interior node: the root of a tree that has split.
  btree::MemPageStore store(504);
  btree::BTree tree(&store, *store.AllocatePage());
  ASSERT_TRUE(tree.Create().ok());
  for (int i = 0; i < 100; ++i) {
    const std::vector<std::uint8_t> key(8, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(tree.Insert(key, key).ok());
  }
  std::vector<std::uint8_t> root(504);
  ASSERT_TRUE(store.ReadPage(tree.root(), root).ok());
  ASSERT_TRUE(btree::BTree::IsInteriorPage(root));
  std::vector<std::uint8_t> leader(512, 0);
  leader[0] = root[0];

  constexpr std::uint32_t kLeader = core::Fsd::kLeaderKeyBit | 7;
  EXPECT_TRUE(core::IsInteriorFrame(3, root));
  EXPECT_FALSE(core::IsInteriorFrame(kLeader, leader));
  EXPECT_FALSE(core::IsInteriorFrame(kLeader, root));

  PageCache cache(8, nullptr, &core::IsInteriorFrame);
  cache.Insert(3, root);  // interior, and the oldest frame
  cache.Insert(kLeader, leader);
  for (std::uint32_t i = 10; i < 16; ++i) {
    cache.Insert(i, std::vector<std::uint8_t>(512, 1));
  }
  cache.Insert(20, std::vector<std::uint8_t>(512, 1));  // evicts the leader
  EXPECT_FALSE(cache.Apply(kLeader, [](Frame&) {}));
  EXPECT_TRUE(cache.Apply(3, [](Frame&) {}));
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
// each frame's flags; an eviction walks from the back past pinned and
// interior frames to the oldest clean leaf, and only when there is none
// walks again for the oldest clean interior frame. The cache's pinned list,
// cleaned set and interior list must reproduce its victims.
class ReferenceLru {
 public:
  struct Flags {
    bool dirty = false;
    bool dirty_since_log = false;
    bool interior = false;
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

  // New frames are clean; `interior` classes their data.
  void Add(std::uint32_t key, bool interior = false) {
    if (flags_.size() >= capacity_ && !Evict(/*interior=*/false)) {
      Evict(/*interior=*/true);
    }
    flags_[key] = Flags{.interior = interior};
    order_.push_front(key);
  }

  void Remove(std::uint32_t key) {
    flags_.erase(key);
    order_.remove(key);
  }

  // Interior frames the interior walks examined: the cache's walk takes
  // the same steps.
  std::uint64_t interior_steps() const { return interior_steps_; }

 private:
  // Evicts the oldest clean frame of the class; false when there is none.
  bool Evict(bool interior) {
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      const Flags& f = flags_.at(*it);
      if (f.interior != interior) {
        continue;
      }
      interior_steps_ += interior ? 1 : 0;
      if (!f.dirty && !f.dirty_since_log) {
        flags_.erase(*it);
        order_.erase(std::next(it).base());
        ++evictions_;
        return true;
      }
    }
    return false;
  }

  std::size_t capacity_;
  std::list<std::uint32_t> order_;
  std::map<std::uint32_t, Flags> flags_;
  std::uint64_t evictions_ = 0;
  std::uint64_t interior_steps_ = 0;
};

void RandomFlags(Rng& rng, Frame& frame, ReferenceLru::Flags& ref) {
  // Mostly clean, so evictions find victims at many walk depths.
  frame.dirty = rng.Chance(0.35);
  frame.dirty_since_log = rng.Chance(0.2);
  ref.dirty = frame.dirty;
  ref.dirty_since_log = frame.dirty_since_log;
}

// Page bytes for a write: interior about one time in four, as a tree's
// splits and collapses rewrite pages of either kind.
std::vector<std::uint8_t> RandomData(Rng& rng) {
  return Data(rng.Chance(0.25) ? kInteriorFill : 1);
}
void RandomWrite(Rng& rng, Frame& frame, ReferenceLru::Flags& ref) {
  frame.data = RandomData(rng);
  ref.interior = frame.data[0] == kInteriorFill;
}

TEST(PageCacheTest, VictimOrderMatchesReferenceTailWalk) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const auto capacity = static_cast<std::size_t>(rng.Between(8, 24));
    const auto keys = static_cast<std::uint32_t>(capacity * 3);
    PageCache cache(capacity, nullptr, &FillIsInterior);
    ReferenceLru ref(capacity);
    for (int step = 0; step < 6000; ++step) {
      const auto key = static_cast<std::uint32_t>(rng.Below(keys));
      const bool present = ref.Contains(key);
      switch (rng.Below(9)) {
        case 0: {  // Insert: replaces a frame with a clean one
          std::vector<std::uint8_t> data = RandomData(rng);
          const bool interior = data[0] == kInteriorFill;
          Frame& frame = cache.Insert(key, std::move(data));
          present ? ref.Touch(key) : ref.Add(key);
          ref.flags(key) = {.interior = interior};
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
        case 3:  // Upsert: dirties or cleans, may rewrite, and touches
          present ? ref.Touch(key) : ref.Add(key);
          cache.Upsert(key, [&](Frame& frame, bool inserted) {
            ASSERT_EQ(inserted, !present);
            RandomFlags(rng, frame, ref.flags(key));
            if (inserted || rng.Chance(0.3)) {
              RandomWrite(rng, frame, ref.flags(key));
            }
          });
          break;
        case 4:  // Apply: flag flips, and rewrites, without a touch
        case 5: {
          auto flip = [&](Frame& frame) {
            RandomFlags(rng, frame, ref.flags(key));
            if (rng.Chance(0.3)) {
              RandomWrite(rng, frame, ref.flags(key));
            }
          };
          ASSERT_EQ(cache.Apply(key, flip), present);
          break;
        }
        case 6: {  // InsertIfAbsent
          const std::vector<std::uint8_t> data = RandomData(rng);
          ASSERT_EQ(cache.InsertIfAbsent(key, data), !present);
          if (!present) {
            ref.Add(key, data[0] == kInteriorFill);
          }
          break;
        }
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
    // On the LRU side each frame is examined at most once per step that
    // files it there (a touch, or a rewrite back to a leaf) before it is
    // evicted or pinned, so that walk stays short; the interior walks take
    // the reference's steps.
    EXPECT_GT(cache.evictions(), 100u);
    EXPECT_GT(ref.interior_steps(), 0u);
    EXPECT_LE(cache.eviction_scan_steps(),
              6000u + cache.evictions() + ref.interior_steps());
  }
}

}  // namespace
}  // namespace cedar::cache
