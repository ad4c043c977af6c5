#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/btree/btree.h"
#include "src/btree/mem_page_store.h"
#include "src/util/random.h"

namespace cedar::btree {
namespace {

Key K(const std::string& s) { return Key(s.begin(), s.end()); }
Value V(const std::string& s) { return Value(s.begin(), s.end()); }

std::string ToString(std::span<const std::uint8_t> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : store_(512), tree_(&store_, 0) {
    CEDAR_CHECK_OK(tree_.Create());
  }

  MemPageStore store_;
  BTree tree_;
};

TEST_F(BTreeTest, EmptyTreeLookupFails) {
  EXPECT_EQ(tree_.Lookup(K("nope")).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(*tree_.Count(), 0u);
}

TEST_F(BTreeTest, InsertLookupSingle) {
  ASSERT_TRUE(tree_.Insert(K("alpha"), V("1")).ok());
  auto r = tree_.Lookup(K("alpha"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ToString(*r), "1");
}

TEST_F(BTreeTest, InsertReplacesExisting) {
  ASSERT_TRUE(tree_.Insert(K("key"), V("old")).ok());
  ASSERT_TRUE(tree_.Insert(K("key"), V("new")).ok());
  EXPECT_EQ(ToString(*tree_.Lookup(K("key"))), "new");
  EXPECT_EQ(*tree_.Count(), 1u);
}

TEST_F(BTreeTest, EraseRemoves) {
  ASSERT_TRUE(tree_.Insert(K("key"), V("v")).ok());
  ASSERT_TRUE(tree_.Erase(K("key")).ok());
  EXPECT_EQ(tree_.Lookup(K("key")).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(tree_.Erase(K("key")).code(), ErrorCode::kNotFound);
}

TEST_F(BTreeTest, RejectsOversizedEntry) {
  Key big(600, 'x');
  EXPECT_EQ(tree_.Insert(big, V("v")).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(tree_.Insert(K(""), V("v")).code(), ErrorCode::kInvalidArgument);
}

TEST_F(BTreeTest, ManyInsertionsSplitAndStayOrdered) {
  for (int i = 0; i < 500; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "file-%04d.mesa", i);
    ASSERT_TRUE(tree_.Insert(K(buf), V("uid=" + std::to_string(i))).ok());
  }
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  EXPECT_EQ(*tree_.Count(), 500u);

  std::vector<std::string> keys;
  ASSERT_TRUE(tree_.Scan({}, [&](auto key, auto) {
                    keys.push_back(ToString(key));
                    return true;
                  }).ok());
  ASSERT_EQ(keys.size(), 500u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST_F(BTreeTest, ScanFromMidpoint) {
  for (char c = 'a'; c <= 'z'; ++c) {
    ASSERT_TRUE(tree_.Insert(K(std::string(1, c)), V("x")).ok());
  }
  std::vector<std::string> keys;
  ASSERT_TRUE(tree_.Scan(K("m"), [&](auto key, auto) {
                    keys.push_back(ToString(key));
                    return true;
                  }).ok());
  ASSERT_EQ(keys.size(), 14u);  // m..z
  EXPECT_EQ(keys.front(), "m");
  EXPECT_EQ(keys.back(), "z");
}

TEST_F(BTreeTest, ScanEarlyStop) {
  for (int i = 0; i < 100; ++i) {
    const std::string key = std::string("k").append(std::to_string(1000 + i));
    ASSERT_TRUE(tree_.Insert(K(key), V("v")).ok());
  }
  int visited = 0;
  ASSERT_TRUE(tree_.Scan({}, [&](auto, auto) {
                    ++visited;
                    return visited < 5;
                  }).ok());
  EXPECT_EQ(visited, 5);
}

TEST_F(BTreeTest, DeleteEverythingFreesInteriorPages) {
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        tree_.Insert(K("entry-" + std::to_string(10000 + i)), V("v")).ok());
  }
  const std::size_t peak = store_.live_pages();
  EXPECT_GT(peak, 10u);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(tree_.Erase(K("entry-" + std::to_string(10000 + i))).ok());
  }
  EXPECT_EQ(*tree_.Count(), 0u);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  // Everything but the root page has been returned.
  EXPECT_EQ(store_.live_pages(), 1u);
}

TEST_F(BTreeTest, CollectPagesCoversAllocated) {
  for (int i = 0; i < 300; ++i) {
    const std::string key = std::string("f").append(std::to_string(i));
    ASSERT_TRUE(tree_.Insert(K(key), V("vv")).ok());
  }
  std::vector<PageId> pages;
  ASSERT_TRUE(tree_.CollectPages(&pages).ok());
  EXPECT_EQ(pages.size(), store_.live_pages());
  EXPECT_EQ(pages[0], 0u);  // root first
}

TEST_F(BTreeTest, VariableLengthValues) {
  ASSERT_TRUE(tree_.Insert(K("short"), V("v")).ok());
  ASSERT_TRUE(tree_.Insert(K("long"), Value(200, 0xAB)).ok());
  EXPECT_EQ(tree_.Lookup(K("long"))->size(), 200u);
  ASSERT_TRUE(tree_.CheckInvariants().ok());
}

// A split at the byte midpoint once left a half too full to hold its
// cells: with three 150-byte entries on a 512-byte page, a 230-byte entry
// for "c" lands right after the midpoint. Every entry is under
// MaxEntrySize(), so the insert must split somewhere both halves fit.
TEST_F(BTreeTest, SplitAroundLargeCellKeepsBothHalvesInPage) {
  ASSERT_LT(230u, tree_.MaxEntrySize());
  for (const char* key : {"a", "b", "d"}) {
    ASSERT_TRUE(tree_.Insert(K(key), Value(150, 0x11)).ok());
  }
  ASSERT_TRUE(tree_.Insert(K("c"), Value(230, 0x22)).ok());
  ASSERT_TRUE(tree_.CheckInvariants().ok());
  for (const char* key : {"a", "b", "c", "d"}) {
    EXPECT_TRUE(tree_.Lookup(K(key)).ok()) << key;
  }
  EXPECT_EQ(tree_.Lookup(K("c"))->size(), 230u);
}

// Entries of any size up to MaxEntrySize(), in random key order, with
// keys long enough to make interior separators large too: every split,
// leaf and interior, must leave a valid tree.
TEST_F(BTreeTest, RandomSizesUpToMaxEntrySizeKeepInvariants) {
  Rng rng(2113);
  std::map<std::string, std::size_t> oracle;
  for (int step = 0; step < 600; ++step) {
    const std::string key =
        std::string("k").append(std::to_string(rng.Below(400))) +
        std::string(rng.Below(120), 'x');
    const std::size_t size = rng.Between(1, tree_.MaxEntrySize() - key.size());
    ASSERT_TRUE(tree_.Insert(K(key), Value(size, 0x5A)).ok()) << step;
    oracle[key] = size;
    ASSERT_TRUE(tree_.CheckInvariants().ok()) << "step " << step;
  }
  EXPECT_EQ(*tree_.Count(), oracle.size());
  for (const auto& [key, size] : oracle) {
    auto value = tree_.Lookup(K(key));
    ASSERT_TRUE(value.ok()) << key;
    EXPECT_EQ(value->size(), size) << key;
  }
}

TEST_F(BTreeTest, BinaryKeysWithEmbeddedZeros) {
  Key k1{0x00, 0x01, 0x00};
  Key k2{0x00, 0x01};
  ASSERT_TRUE(tree_.Insert(k1, V("a")).ok());
  ASSERT_TRUE(tree_.Insert(k2, V("b")).ok());
  EXPECT_EQ(ToString(*tree_.Lookup(k1)), "a");
  EXPECT_EQ(ToString(*tree_.Lookup(k2)), "b");
}

TEST(CompareKeysTest, Lexicographic) {
  EXPECT_LT(CompareKeys(K("a"), K("b")), 0);
  EXPECT_GT(CompareKeys(K("b"), K("a")), 0);
  EXPECT_EQ(CompareKeys(K("same"), K("same")), 0);
  EXPECT_LT(CompareKeys(K("ab"), K("abc")), 0);  // prefix sorts first
  EXPECT_LT(CompareKeys(K(""), K("a")), 0);
}

// A store that refuses allocations past a cap, like a full name-table
// region. Inserts must fail cleanly BEFORE mutating the tree.
class CappedStore : public MemPageStore {
 public:
  using MemPageStore::MemPageStore;
  void set_budget(std::uint32_t budget) { budget_ = budget; }
  Result<PageId> AllocatePage() override {
    if (budget_ == 0) {
      return MakeError(ErrorCode::kNoFreeSpace, "capped");
    }
    --budget_;
    return MemPageStore::AllocatePage();
  }
  bool CanAllocate(std::uint32_t count) override { return budget_ >= count; }

 private:
  std::uint32_t budget_ = 0xFFFFFFFF;
};

TEST(BTreeCappedTest, FullStoreFailsInsertsWithoutLosingEntries) {
  CappedStore store(256);
  BTree tree(&store, 0);
  ASSERT_TRUE(tree.Create().ok());
  std::vector<std::string> inserted;
  // Fill until the store runs dry mid-growth.
  store.set_budget(12);
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "cap-" + std::to_string(10000 + i);
    Status s = tree.Insert(K(key), V("xxxxxxxxxxxxxxxxxxxx"));
    if (!s.ok()) {
      ASSERT_EQ(s.code(), ErrorCode::kNoFreeSpace);
      break;
    }
    inserted.push_back(key);
  }
  ASSERT_FALSE(inserted.empty());
  ASSERT_LT(inserted.size(), 5000u) << "store never filled";
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (const std::string& key : inserted) {
    EXPECT_TRUE(tree.Lookup(K(key)).ok()) << key;
  }
  // Freeing space lets inserts continue.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(tree.Erase(K(inserted[i])).ok());
  }
  store.set_budget(64);
  EXPECT_TRUE(tree.Insert(K("cap-after"), V("v")).ok());
}

// Property test: random interleaved operations checked against std::map,
// across several page sizes (FSD uses 512-byte pages, CFS 2048).
class BTreeRandomTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BTreeRandomTest, MatchesMapOracle) {
  const std::uint32_t page_size = GetParam();
  MemPageStore store(page_size);
  BTree tree(&store, 0);
  ASSERT_TRUE(tree.Create().ok());

  std::map<std::string, std::string> oracle;
  Rng rng(page_size * 7919);

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.Below(10);
    std::string key = "doc-" + std::to_string(rng.Below(500)) + ".tioga";
    if (op < 6) {  // insert / update
      std::string value(rng.Between(1, 60), static_cast<char>('A' + step % 26));
      ASSERT_TRUE(tree.Insert(K(key), V(value)).ok());
      oracle[key] = value;
    } else if (op < 9) {  // erase
      Status s = tree.Erase(K(key));
      EXPECT_EQ(s.ok(), oracle.erase(key) > 0) << key;
    } else {  // lookup
      auto r = tree.Lookup(K(key));
      auto it = oracle.find(key);
      ASSERT_EQ(r.ok(), it != oracle.end()) << key;
      if (r.ok()) {
        EXPECT_EQ(ToString(*r), it->second);
      }
    }
    if (step % 500 == 499) {
      ASSERT_TRUE(tree.CheckInvariants().ok()) << "step " << step;
    }
  }

  ASSERT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(*tree.Count(), oracle.size());

  // Full scan equals the oracle, in order.
  auto it = oracle.begin();
  ASSERT_TRUE(tree.Scan({}, [&](auto key, auto value) {
                    EXPECT_NE(it, oracle.end());
                    EXPECT_EQ(ToString(key), it->first);
                    EXPECT_EQ(ToString(value), it->second);
                    ++it;
                    return true;
                  }).ok());
  EXPECT_EQ(it, oracle.end());
}

INSTANTIATE_TEST_SUITE_P(PageSizes, BTreeRandomTest,
                         ::testing::Values(256u, 512u, 1024u, 2048u));

}  // namespace
}  // namespace cedar::btree
