// Unit tests for the FSD VAM (shadow map, persistence) and run allocator
// (search directions around the metadata complex, first-extent contiguity,
// rollback, fragmentation caps).

#include <gtest/gtest.h>

#include "src/core/allocator.h"
#include "src/core/vam.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/random.h"

namespace cedar::core {
namespace {

constexpr std::uint32_t kTotal = 10000;
constexpr std::uint32_t kNtPages = 64;

class VamTest : public ::testing::Test {
 protected:
  VamTest() : vam_(kTotal, kNtPages) {
    vam_.free().SetRange(0, kTotal, true);
  }
  Vam vam_;
};

TEST_F(VamTest, MarkUsedAndFree) {
  vam_.MarkUsed(fs::Extent{.start = 100, .count = 50});
  EXPECT_EQ(vam_.FreeCount(), kTotal - 50);
  EXPECT_FALSE(vam_.IsFree(120));
  vam_.MarkFree(fs::Extent{.start = 100, .count = 50});
  EXPECT_EQ(vam_.FreeCount(), kTotal);
}

TEST_F(VamTest, ShadowDoesNotFreeUntilCommit) {
  vam_.MarkUsed(fs::Extent{.start = 0, .count = 100});
  vam_.MarkFreeShadow(fs::Extent{.start = 0, .count = 100});
  EXPECT_EQ(vam_.FreeCount(), kTotal - 100);
  EXPECT_EQ(vam_.ShadowCount(), 100u);
  vam_.CommitShadow();
  EXPECT_EQ(vam_.FreeCount(), kTotal);
  EXPECT_EQ(vam_.ShadowCount(), 0u);
}

TEST_F(VamTest, SaveLoadRoundTrip) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  vam_.MarkUsed(fs::Extent{.start = 123, .count = 45});
  vam_.nt_free().SetRange(0, kNtPages, true);
  vam_.nt_free().Set(3, false);

  const std::uint32_t sectors = 1 + (kTotal + 4095) / 4096 + 1;
  ASSERT_TRUE(vam_.Save(&disk, 10, sectors, /*boot_count=*/7).ok());

  Vam loaded(kTotal, kNtPages);
  ASSERT_TRUE(loaded.Load(&disk, 10, sectors, /*expected_boot=*/7).ok());
  EXPECT_EQ(loaded.FreeCount(), vam_.FreeCount());
  EXPECT_FALSE(loaded.IsFree(130));
  EXPECT_FALSE(loaded.nt_free().Get(3));
  EXPECT_TRUE(loaded.nt_free().Get(4));
}

TEST_F(VamTest, StaleStampRejected) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  const std::uint32_t sectors = 1 + (kTotal + 4095) / 4096 + 1;
  ASSERT_TRUE(vam_.Save(&disk, 10, sectors, 7).ok());
  Vam loaded(kTotal, kNtPages);
  EXPECT_EQ(loaded.Load(&disk, 10, sectors, 8).code(),
            ErrorCode::kFailedPrecondition);
}

// A toy layout: data area [1000, 9000) with the metadata complex at
// [4000, 5000), which the VAM marks used like Fsd::MarkSystemRegionsUsed.
FsdLayout ToyLayout() {
  FsdLayout layout;
  layout.data_low = 1000;
  layout.log_base = 4000;
  layout.nt_end = 5000;
  layout.data_high = 9000;
  return layout;
}

class AllocatorTest : public ::testing::Test {
 protected:
  AllocatorTest()
      : vam_(kTotal, kNtPages),
        allocator_(&vam_, ToyLayout(), /*big_threshold_sectors=*/64) {
    vam_.free().SetRange(1000, 3000, true);
    vam_.free().SetRange(5000, 4000, true);
  }
  Vam vam_;
  RunAllocator allocator_;
};

// The four search directions: small files hug the complex (down from
// complex_begin(), then up from complex_end()), big files hug the edges
// (down from data_high, then up from data_low).
TEST_F(AllocatorTest, SmallAllocatesJustBelowComplex) {
  auto runs = allocator_.Allocate(10);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs->size(), 1u);
  EXPECT_EQ((*runs)[0].start, 3990u);
  EXPECT_EQ((*runs)[0].count, 10u);
  auto next = allocator_.Allocate(4);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)[0].start, 3986u);  // the heap grows down
}

TEST_F(AllocatorTest, SmallFallsBackJustAboveComplex) {
  vam_.free().SetRange(1000, 3000, false);  // the lower half is full
  auto runs = allocator_.Allocate(10);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs->size(), 1u);
  EXPECT_EQ((*runs)[0].start, 5000u);
  auto next = allocator_.Allocate(4);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)[0].start, 5010u);  // and grows up
}

TEST_F(AllocatorTest, BigAllocatesHigh) {
  auto runs = allocator_.Allocate(100);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs->size(), 1u);
  EXPECT_EQ((*runs)[0].start + (*runs)[0].count, 9000u);
}

TEST_F(AllocatorTest, BigSpillsIntoSmallAreaAsLastResort) {
  // Fill the upper half so the big area is gone; big allocations must
  // still succeed, from the volume's low edge (areas are hints, not
  // invariants).
  vam_.free().SetRange(5000, 4000, false);
  auto runs = allocator_.Allocate(100);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs->size(), 1u);
  EXPECT_EQ((*runs)[0].start, 1000u);
}

TEST_F(AllocatorTest, BothDirectionsTriedBeforeHalving) {
  // A 30-sector hole above the complex and only 20-sector holes below:
  // a 30-sector small file takes the upper hole whole instead of
  // splitting into two runs below.
  vam_.free().SetRange(1000, 3000, false);
  vam_.free().SetRange(5000, 4000, false);
  vam_.MarkFree(fs::Extent{.start = 2000, .count = 20});
  vam_.MarkFree(fs::Extent{.start = 3000, .count = 20});
  vam_.MarkFree(fs::Extent{.start = 7000, .count = 30});
  auto runs = allocator_.Allocate(30);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs->size(), 1u);
  EXPECT_EQ((*runs)[0].start, 7000u);
}

TEST_F(AllocatorTest, ExtensionContinuesAfterTheFile) {
  auto file = allocator_.Allocate(4);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)[0].start, 3996u);
  // Above the file lies the complex, so the first append takes the
  // lowest free run past it; later appends continue that run.
  auto first = allocator_.Allocate(2, /*tail=*/4000);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)[0].start, 5000u);
  auto second = allocator_.Allocate(3, /*tail=*/5002);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)[0].start, 5002u);
  // A file ending at the volume's edge falls back to the size policy.
  auto edge = allocator_.Allocate(2, /*tail=*/9000);
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ((*edge)[0].start, 3994u);
}

TEST_F(AllocatorTest, BigExtensionSkipsAheadOnlyInPlace) {
  auto file = allocator_.Allocate(4);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)[0].start, 3996u);
  // 100 sectors would fit just past the complex, in the small-file spill
  // area, but a big extension that cannot continue at the file's tail
  // goes where big files go.
  auto away = allocator_.Allocate(100, /*tail=*/4000);
  ASSERT_TRUE(away.ok());
  ASSERT_EQ(away->size(), 1u);
  EXPECT_EQ((*away)[0].start + (*away)[0].count, 9000u);
  // When the sectors after the tail are free, it continues there.
  auto in_place = allocator_.Allocate(100, /*tail=*/6000);
  ASSERT_TRUE(in_place.ok());
  ASSERT_EQ(in_place->size(), 1u);
  EXPECT_EQ((*in_place)[0].start, 6000u);
}

TEST_F(AllocatorTest, NeverAllocatesInsideComplex) {
  // Mark the complex free by mistake: the allocator's own bounds still
  // keep files out of it.
  vam_.free().SetRange(1000, 8000, true);
  vam_.free().SetRange(1000, 3000, false);
  vam_.free().SetRange(5000, 4000, false);
  EXPECT_EQ(allocator_.Allocate(1).status().code(), ErrorCode::kNoFreeSpace);
  EXPECT_EQ(allocator_.Allocate(100).status().code(),
            ErrorCode::kNoFreeSpace);
}

TEST_F(AllocatorTest, MarksVamUsed) {
  const std::uint32_t before = vam_.FreeCount();
  auto runs = allocator_.Allocate(25);
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ(vam_.FreeCount(), before - 25);
}

TEST_F(AllocatorTest, FirstExtentKeepsLeaderWithPageZero) {
  // Fragment the area next to the complex into 1-sector holes.
  for (std::uint32_t lba = 3000; lba < 4000; lba += 2) {
    vam_.MarkUsed(fs::Extent{.start = lba, .count = 1});
  }
  auto runs = allocator_.Allocate(5);
  ASSERT_TRUE(runs.ok());
  // The first extent must hold at least leader + page 0 together.
  EXPECT_GE((*runs)[0].count, 2u);
}

TEST_F(AllocatorTest, SplitsAcrossHolesWhenNeeded) {
  // Only scattered 8-sector holes remain.
  vam_.free().SetRange(1000, 8000, false);
  for (std::uint32_t lba = 1000; lba < 1200; lba += 16) {
    vam_.MarkFree(fs::Extent{.start = lba, .count = 8});
  }
  auto runs = allocator_.Allocate(30);
  ASSERT_TRUE(runs.ok());
  EXPECT_GT(runs->size(), 1u);
  std::uint32_t total = 0;
  for (const auto& run : *runs) {
    total += run.count;
  }
  EXPECT_EQ(total, 30u);
}

TEST_F(AllocatorTest, TooFragmentedFailsAndRollsBack) {
  vam_.free().SetRange(1000, 8000, false);
  // 20 one-sector holes: a 2+ sector allocation can't even start (the
  // first extent needs 2 contiguous), and kMaxRuns bounds the rest.
  for (std::uint32_t i = 0; i < 20; ++i) {
    vam_.MarkFree(fs::Extent{.start = 1000 + i * 3, .count = 1});
  }
  const std::uint32_t before = vam_.FreeCount();
  auto runs = allocator_.Allocate(40);
  EXPECT_FALSE(runs.ok());
  EXPECT_EQ(vam_.FreeCount(), before);  // everything rolled back
}

TEST_F(AllocatorTest, VolumeFullFails) {
  vam_.free().SetRange(1000, 8000, false);
  auto runs = allocator_.Allocate(1);
  EXPECT_EQ(runs.status().code(), ErrorCode::kNoFreeSpace);
}

TEST_F(AllocatorTest, ReleaseReturnsSectors) {
  auto runs = allocator_.Allocate(50);
  ASSERT_TRUE(runs.ok());
  const std::uint32_t after_alloc = vam_.FreeCount();
  allocator_.Release(*runs);
  EXPECT_EQ(vam_.FreeCount(), after_alloc + 50);
}

TEST_F(AllocatorTest, ChurnNeverDoubleAllocates) {
  Rng rng(44);
  std::vector<std::vector<fs::Extent>> held;
  Bitmap owned(kTotal, false);
  for (int step = 0; step < 2000; ++step) {
    if (held.empty() || rng.Chance(0.6)) {
      auto runs = allocator_.Allocate(
          static_cast<std::uint32_t>(rng.Between(1, 120)));
      if (!runs.ok()) {
        ASSERT_FALSE(held.empty());
        allocator_.Release(held.back());
        for (const auto& run : held.back()) {
          owned.SetRange(run.start, run.count, false);
        }
        held.pop_back();
        continue;
      }
      for (const auto& run : *runs) {
        for (std::uint32_t i = 0; i < run.count; ++i) {
          ASSERT_FALSE(owned.Get(run.start + i)) << "double allocation";
          owned.Set(run.start + i, true);
        }
      }
      held.push_back(*runs);
    } else {
      const std::size_t victim = rng.Below(held.size());
      allocator_.Release(held[victim]);
      for (const auto& run : held[victim]) {
        owned.SetRange(run.start, run.count, false);
      }
      held.erase(held.begin() + victim);
    }
  }
}

}  // namespace
}  // namespace cedar::core
