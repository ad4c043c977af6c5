#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "src/util/bitmap.h"
#include "src/util/random.h"

namespace cedar {
namespace {

TEST(BitmapTest, InitialValue) {
  Bitmap zeros(100, false);
  Bitmap ones(100, true);
  EXPECT_EQ(zeros.Count(), 0u);
  EXPECT_EQ(ones.Count(), 100u);
  EXPECT_FALSE(zeros.Get(50));
  EXPECT_TRUE(ones.Get(50));
}

TEST(BitmapTest, TailBitsClearedOnInit) {
  Bitmap ones(70, true);  // 70 is not a multiple of 64
  EXPECT_EQ(ones.Count(), 70u);
}

TEST(BitmapTest, SetAndRange) {
  Bitmap bits(200);
  bits.Set(7, true);
  bits.SetRange(100, 50, true);
  EXPECT_TRUE(bits.Get(7));
  EXPECT_TRUE(bits.Get(100));
  EXPECT_TRUE(bits.Get(149));
  EXPECT_FALSE(bits.Get(150));
  EXPECT_EQ(bits.Count(), 51u);
  bits.SetRange(100, 50, false);
  EXPECT_EQ(bits.Count(), 1u);
}

TEST(BitmapTest, FindRunForward) {
  Bitmap bits(100);
  bits.SetRange(10, 5, true);
  bits.SetRange(40, 20, true);
  EXPECT_EQ(*bits.FindRunForward(0, 3), 10u);
  EXPECT_EQ(*bits.FindRunForward(0, 10), 40u);
  EXPECT_EQ(*bits.FindRunForward(20, 3), 40u);
  EXPECT_FALSE(bits.FindRunForward(0, 21).has_value());
}

TEST(BitmapTest, FindRunBackward) {
  Bitmap bits(100);
  bits.SetRange(10, 5, true);
  bits.SetRange(40, 20, true);
  EXPECT_EQ(*bits.FindRunBackward(99, 3), 57u);  // run ends at 59
  EXPECT_EQ(*bits.FindRunBackward(30, 3), 12u);
  EXPECT_FALSE(bits.FindRunBackward(99, 25).has_value());
}

TEST(BitmapTest, FindRunBackwardAtZero) {
  Bitmap bits(10);
  bits.Set(0, true);
  EXPECT_EQ(*bits.FindRunBackward(9, 1), 0u);
}

TEST(BitmapTest, OrWith) {
  Bitmap a(128);
  Bitmap b(128);
  a.SetRange(0, 10, true);
  b.SetRange(5, 10, true);
  a.OrWith(b);
  EXPECT_EQ(a.Count(), 15u);
}

TEST(BitmapTest, EqualityAndWords) {
  Bitmap a(65, true);
  Bitmap b(65, true);
  EXPECT_EQ(a, b);
  b.Set(64, false);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.words().size(), 2u);
}

TEST(BitmapTest, RandomizedAgainstVector) {
  Rng rng(88);
  Bitmap bits(500);
  std::vector<bool> oracle(500, false);
  for (int step = 0; step < 2000; ++step) {
    const auto i = static_cast<std::uint32_t>(rng.Below(500));
    const bool v = rng.Chance(0.5);
    bits.Set(i, v);
    oracle[i] = v;
  }
  std::uint32_t count = 0;
  for (std::uint32_t i = 0; i < 500; ++i) {
    ASSERT_EQ(bits.Get(i), oracle[i]) << i;
    count += oracle[i];
  }
  EXPECT_EQ(bits.Count(), count);
}

// Bit-at-a-time reference searches over the logical bits [0, size): the
// word-wise Bitmap must return exactly what these return.
struct RefBits {
  std::vector<bool> bits;

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(bits.size());
  }

  std::optional<std::uint32_t> FindRunForward(std::uint32_t from,
                                              std::uint32_t count) const {
    std::uint32_t run = 0;
    for (std::uint32_t i = from; i < size(); ++i) {
      run = bits[i] ? run + 1 : 0;
      if (run >= count) {
        return i - count + 1;
      }
    }
    return std::nullopt;
  }

  std::optional<std::uint32_t> FindRunBackward(std::uint32_t from,
                                               std::uint32_t count) const {
    if (size() == 0) {
      return std::nullopt;
    }
    std::uint32_t run = 0;
    for (std::uint32_t i = std::min(from, size() - 1) + 1; i-- > 0;) {
      run = bits[i] ? run + 1 : 0;
      if (run >= count) {
        return i;
      }
    }
    return std::nullopt;
  }

  std::uint32_t Count() const {
    return static_cast<std::uint32_t>(
        std::count(bits.begin(), bits.end(), true));
  }
};

// A random map of runs: long free and used stretches (so runs cross word
// boundaries and whole words are all-free or all-used) mixed with noise.
void FillRandomRuns(Rng& rng, Bitmap* map, RefBits* ref) {
  const std::uint32_t size = map->size();
  const double density = rng.NextDouble();
  for (std::uint32_t i = 0; i < size;) {
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(size - i, rng.Between(1, 150)));
    const bool value = rng.Chance(density);
    map->SetRange(i, len, value);
    for (std::uint32_t j = i; j < i + len; ++j) {
      ref->bits[j] = value;
    }
    i += len;
  }
  const std::uint64_t flips = size > 0 ? rng.Below(8) : 0;
  for (std::uint64_t flip = 0; flip < flips; ++flip) {
    const auto i = static_cast<std::uint32_t>(rng.Below(size));
    const bool value = rng.Chance(0.5);
    map->Set(i, value);
    ref->bits[i] = value;
  }
}

// A position or length probe: mostly in range, sometimes at or past size().
std::uint32_t Probe(Rng& rng, std::uint32_t size) {
  switch (rng.Below(4)) {
    case 0:
      return static_cast<std::uint32_t>(rng.Between(0, 8));
    case 1:
      return size + static_cast<std::uint32_t>(rng.Between(0, 70));
    default:
      return static_cast<std::uint32_t>(rng.Between(0, size + 1));
  }
}

TEST(BitmapTest, WordSearchesMatchBitByBitReference) {
  Rng rng(1987);
  for (std::uint32_t size = 0; size <= 700; ++size) {
    for (int trial = 0; trial < 3; ++trial) {
      Bitmap map(size);
      RefBits ref{std::vector<bool>(size, false)};
      FillRandomRuns(rng, &map, &ref);
      if (trial == 2 && size % 64 != 0) {
        // Garbage past size() (as a deserializer might leave it) must never
        // be reported by any search or count.
        map.mutable_words().back() |= ~0ull << (size % 64);
      }
      ASSERT_EQ(map.Count(), ref.Count()) << "size " << size;
      for (int probe = 0; probe < 40; ++probe) {
        const std::uint32_t from = Probe(rng, size);
        const std::uint32_t count = Probe(rng, size);
        ASSERT_EQ(map.FindRunForward(from, count),
                  ref.FindRunForward(from, count))
            << "size " << size << " from " << from << " count " << count;
        ASSERT_EQ(map.FindRunBackward(from, count),
                  ref.FindRunBackward(from, count))
            << "size " << size << " from " << from << " count " << count;
      }
    }
  }
}

TEST(BitmapTest, SetRangeMatchesBitByBitReference) {
  Rng rng(5);
  for (std::uint32_t size = 1; size <= 700; size += 1 + size / 16) {
    Bitmap map(size);
    RefBits ref{std::vector<bool>(size, false)};
    for (int step = 0; step < 60; ++step) {
      const auto start = static_cast<std::uint32_t>(rng.Below(size));
      const auto count =
          static_cast<std::uint32_t>(rng.Between(0, size - start));
      const bool value = rng.Chance(0.5);
      map.SetRange(start, count, value);
      for (std::uint32_t i = start; i < start + count; ++i) {
        ref.bits[i] = value;
      }
      ASSERT_EQ(map.Count(), ref.Count()) << "size " << size;
    }
    for (std::uint32_t i = 0; i < size; ++i) {
      ASSERT_EQ(map.Get(i), ref.bits[i]) << "size " << size << " bit " << i;
    }
    // Tail bits stay clear, so equality with a fresh map stays exact.
    EXPECT_EQ(map.words().back() >> 1 >> ((size - 1) % 64), 0u);
  }
}

TEST(BitmapTest, RunsAcrossWordBoundaries) {
  Bitmap bits(256);
  bits.SetRange(60, 70, true);  // words 0..2
  EXPECT_EQ(bits.FindRunForward(0, 70), 60u);
  EXPECT_EQ(bits.FindRunForward(61, 69), 61u);
  EXPECT_FALSE(bits.FindRunForward(61, 70).has_value());
  EXPECT_EQ(bits.FindRunBackward(255, 70), 60u);
  EXPECT_EQ(bits.FindRunBackward(128, 10), 119u);
}

TEST(BitmapTest, EmptyRunRequests) {
  Bitmap bits(100);
  EXPECT_EQ(bits.FindRunForward(10, 0), 11u);
  EXPECT_EQ(bits.FindRunBackward(10, 0), 10u);
  EXPECT_EQ(bits.FindRunBackward(500, 0), 99u);
  EXPECT_FALSE(bits.FindRunForward(100, 0).has_value());
  EXPECT_FALSE(Bitmap().FindRunBackward(0, 0).has_value());
}

}  // namespace
}  // namespace cedar
