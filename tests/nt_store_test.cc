// The name table's two home copies on their own (src/core/nt_store.h): the
// store is built on a bare SimDisk with no Fsd, so the sector format, the
// vote, the per-page reader, the miss path's cluster read, the one repair
// routine and the remap directory are exercised directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/nt_store.h"
#include "src/obs/metrics.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/check.h"

namespace cedar::core {
namespace {

FsdConfig Config() {
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 64;
  config.cache_frames = 512;
  return config;
}

bool SameBytes(std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

class NtStoreTest : public ::testing::Test {
 protected:
  NtStoreTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        layout_(FsdLayout::Compute(disk_.geometry(), Config())),
        nt_(&disk_, layout_, Config(), &metrics_, &health_) {
    CEDAR_CHECK_OK(nt_.Format());
  }

  // Composes a page and writes it to both of page `pid`'s homes.
  std::vector<std::uint8_t> WriteBoth(std::uint32_t pid, std::uint8_t fill) {
    std::vector<std::uint8_t> sector =
        nt_.Compose(std::vector<std::uint8_t>(NtStore::kPayload, fill));
    const NtStore::Homes homes = nt_.HomesOf(pid);
    CEDAR_CHECK_OK(disk_.Write(homes.primary, sector));
    CEDAR_CHECK_OK(disk_.Write(homes.replica, sector));
    return sector;
  }

  std::uint64_t Count(const char* name) const {
    return metrics_.Snapshot().CounterValue(name);
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  FsdLayout layout_;
  obs::MetricsRegistry metrics_;
  MediaHealth health_{&disk_, &metrics_};
  NtStore nt_;
};

TEST_F(NtStoreTest, ReaderElectsTheSurvivorAndTheRepairHealsTheLoser) {
  const std::vector<std::uint8_t> sector = WriteBoth(5, 0x3C);
  EXPECT_EQ(nt_.HomesOf(5).primary, layout_.NtHome(FsdLayout::kPrimary, 5));
  EXPECT_EQ(nt_.HomesOf(5).replica, layout_.NtHome(FsdLayout::kReplica, 5));
  // Bit rot in the primary.
  disk_.CorruptSector(layout_.NtHome(FsdLayout::kPrimary, 5), 77);

  auto copies = nt_.ReadCopies(5, health_.c.corruption_detected);
  ASSERT_TRUE(copies.ok());
  EXPECT_FALSE(copies->vote.ok_a);
  EXPECT_TRUE(copies->vote.ok_b);
  EXPECT_TRUE(copies->vote.b_wins);
  EXPECT_TRUE(copies->vote.diverged);
  EXPECT_TRUE(SameBytes(copies->winner(), sector));
  EXPECT_EQ(Count("fsd.corruption_detected"), 1u);

  auto fixed = nt_.RepairCopy(nt_.LoserOf(copies->vote, 5), copies->winner());
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(*fixed, NtStore::Repair::kWritten);
  auto healed = nt_.ReadCopies(5, nullptr);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed->vote.ok_a && healed->vote.ok_b);
  EXPECT_FALSE(healed->vote.diverged);
  EXPECT_TRUE(SameBytes(healed->sector[0], sector));
}

TEST_F(NtStoreTest, ClusterReadOffersWinnersAndRepairsAcceptedLosers) {
  const std::vector<std::uint8_t> five = WriteBoth(5, 0x11);
  const std::vector<std::uint8_t> six = WriteBoth(6, 0x22);
  // Bit rot in a replica.
  disk_.CorruptSector(layout_.NtHome(FsdLayout::kReplica, 5), 78);
  disk_.CorruptSector(layout_.NtHome(FsdLayout::kReplica, 6), 79);
  std::vector<std::uint32_t> offered;
  // Page 6 is "already cached": offered, declined, so never repaired.
  ASSERT_TRUE(nt_.ReadCluster(5, [&](std::uint32_t pid,
                                     std::span<const std::uint8_t> good) {
                   offered.push_back(pid);
                   EXPECT_TRUE(SameBytes(good, pid == 5 ? five : six));
                   return pid == 5;
                 }).ok());
  EXPECT_EQ(offered, (std::vector<std::uint32_t>{5, 6}));
  EXPECT_EQ(Count("fsd.nt_repairs"), 1u);
  std::vector<std::uint8_t> replica(512);
  ASSERT_TRUE(
      disk_.Read(layout_.NtHome(FsdLayout::kReplica, 5), replica).ok());
  EXPECT_EQ(replica, five);
  ASSERT_TRUE(
      disk_.Read(layout_.NtHome(FsdLayout::kReplica, 6), replica).ok());
  EXPECT_NE(replica, six);
}

TEST_F(NtStoreTest, ClusterReadFailsAttributedWhenNeitherCopyHoldsThePage) {
  WriteBoth(5, 0x11);
  disk_.CorruptSector(layout_.NtHome(FsdLayout::kPrimary, 5), 80);
  disk_.CorruptSector(layout_.NtHome(FsdLayout::kReplica, 5), 81);
  const Status read = nt_.ReadCluster(
      5, [](std::uint32_t, std::span<const std::uint8_t>) { return true; });
  EXPECT_EQ(read.code(), ErrorCode::kSectorDamaged);
  EXPECT_EQ(health_.Snapshot().nt_pages_lost, 1u);
}

TEST_F(NtStoreTest, DeadHomeMovesToASpareThatAFreshInstanceReloads) {
  const std::vector<std::uint8_t> sector = WriteBoth(9, 0x5A);
  disk_.InjectPersistentFault(layout_.NtHome(FsdLayout::kPrimary, 9),
                              sim::FaultMode::kDead);
  auto fixed = nt_.RepairCopy(nt_.HomesOf(9).primary, sector);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(*fixed, NtStore::Repair::kRemapped);
  const sim::Lba spare = nt_.HomesOf(9).primary;
  EXPECT_EQ(spare, layout_.remap_base + FsdLayout::kRemapDirCopies);
  ASSERT_TRUE(nt_.CopyAt(spare).has_value());
  EXPECT_EQ(nt_.CopyAt(spare)->pid, 9u);
  EXPECT_FALSE(nt_.CopyAt(spare)->replica);
  EXPECT_EQ(Count("fsd.remaps"), 1u);

  // A fresh instance knows nothing until it loads the directory.
  MediaHealth health(&disk_, &metrics_);
  NtStore fresh(&disk_, layout_, Config(), &metrics_, &health);
  EXPECT_EQ(fresh.HomesOf(9).primary, layout_.NtHome(FsdLayout::kPrimary, 9));
  ASSERT_TRUE(fresh.LoadRemapTable().ok());
  EXPECT_EQ(fresh.HomesOf(9).primary, spare);
  EXPECT_EQ(fresh.HomesOf(9).replica, layout_.NtHome(FsdLayout::kReplica, 9));
  auto copies = fresh.ReadCopies(9, nullptr);
  ASSERT_TRUE(copies.ok());
  EXPECT_TRUE(copies->vote.ok_a && copies->vote.ok_b);
  EXPECT_FALSE(copies->vote.diverged);
  EXPECT_TRUE(health.Snapshot().notes.empty());
}

TEST_F(NtStoreTest, CorruptDirectoryCopyFallsBackToTheOther) {
  const std::vector<std::uint8_t> sector = WriteBoth(9, 0x5A);
  disk_.InjectPersistentFault(layout_.NtHome(FsdLayout::kReplica, 9),
                              sim::FaultMode::kDead);
  ASSERT_TRUE(nt_.RepairCopy(nt_.HomesOf(9).replica, sector).ok());
  // Copy 0 decodes with a valid CRC but maps a home to a sector outside the
  // spare pool: the loader must refuse it and take copy 1.
  const std::vector<std::uint8_t> bad = NtStore::EncodeRemapDirectory(
      {{layout_.NtHome(FsdLayout::kReplica, 9), layout_.data_low + 100}});
  ASSERT_TRUE(disk_.Write(layout_.remap_base, bad).ok());
  MediaHealth health(&disk_, &metrics_);
  NtStore fresh(&disk_, layout_, Config(), &metrics_, &health);
  ASSERT_TRUE(fresh.LoadRemapTable().ok());
  EXPECT_EQ(fresh.HomesOf(9).replica,
            layout_.remap_base + FsdLayout::kRemapDirCopies);
  // ... and refresh copy 0 from the survivor.
  std::vector<std::uint8_t> dir(512);
  ASSERT_TRUE(disk_.Read(layout_.remap_base, dir).ok());
  EXPECT_TRUE(NtStore::DecodeRemapDirectory(dir, layout_).ok());
}

// A miss reads the primary cluster and then the replica cluster one band
// later on the same cylinder: the replica pays no seek, only a rotational
// wait of a few sectors, and each copy's time lands in its own counter.
TEST(NtStoreMissTest, ReplicaClusterIsReachedWithoutASeek) {
  const sim::DiskGeometry geometry{
      .cylinders = 48, .heads = 19, .sectors_per_track = 28};
  const sim::DiskTimingParams timing;
  sim::VirtualClock clock;
  sim::SimDisk disk(geometry, timing, &clock);
  FsdConfig config = Config();
  config.log_sectors = 800;
  config.nt_pages = 512;
  const FsdLayout layout = FsdLayout::Compute(geometry, config);
  obs::MetricsRegistry metrics;
  MediaHealth health(&disk, &metrics);
  NtStore nt(&disk, layout, config, &metrics, &health);
  ASSERT_TRUE(nt.Format().ok());
  const std::vector<std::uint8_t> sector =
      nt.Compose(std::vector<std::uint8_t>(NtStore::kPayload, 0x6B));
  constexpr std::uint32_t kPid = 300;  // in the second band
  for (const sim::Lba home :
       {nt.HomesOf(kPid).primary, nt.HomesOf(kPid).replica}) {
    ASSERT_TRUE(disk.Write(home, sector).ok());
  }
  std::vector<std::uint8_t> far(512);
  ASSERT_TRUE(disk.Read(0, far).ok());  // park the head at cylinder 0
  ASSERT_TRUE(nt.ReadCluster(kPid, [](std::uint32_t,
                                      std::span<const std::uint8_t>) {
                  return true;
                }).ok());
  const obs::MetricsSnapshot snap = metrics.Snapshot();
  const std::uint64_t primary_us = snap.CounterValue("fsd.nt_miss_primary_us");
  const std::uint64_t replica_us = snap.CounterValue("fsd.nt_miss_replica_us");
  const std::uint64_t cluster = config.durability.nt_read_ahead_pages;
  const std::uint64_t sector_us =
      timing.rotation_us / geometry.sectors_per_track;
  // The replica starts nt_band sectors after the primary, so after the
  // primary's cluster its first sector is (band - cluster) % track sectors
  // away: a wait of less than a revolution, with no seek in front.
  EXPECT_GT(replica_us, cluster * sector_us);
  EXPECT_LT(replica_us,
            timing.controller_us + timing.rotation_us + cluster * sector_us);
  EXPECT_LT(replica_us, primary_us);
}

}  // namespace
}  // namespace cedar::core
