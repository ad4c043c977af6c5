// Section 5.8: "FSD when compared to CFS is robust against six additional
// types of errors." Each class gets direct fault-injection coverage here:
//
//   1. multi-page B-tree updates were not atomic     -> the log
//   2. a partial name-table write could corrupt a page -> the log
//   3. the file name table could have bad pages       -> replication
//   4. the VAM can have disk errors                   -> reconstruction
//   5/6. pages needed in booting could become bad     -> replication
//
// plus the wild-store defense (read-only cached pages / leader checks) and
// the CFS-side contrast where the paper says CFS was vulnerable.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cfs/cfs.h"
#include "src/core/allocator.h"
#include "src/core/fsd.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"

namespace cedar {
namespace {

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t seed) {
  return std::vector<std::uint8_t>(n, seed);
}

core::FsdConfig FsdCfg() {
  core::FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  return config;
}

cfs::CfsConfig CfsCfg() {
  cfs::CfsConfig config;
  config.nt_page_count = 64;
  return config;
}

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        fsd_(std::make_unique<core::Fsd>(&disk_, FsdCfg())) {
    CEDAR_CHECK_OK(fsd_->Format());
    for (int i = 0; i < 60; ++i) {
      CEDAR_CHECK_OK(
          fsd_->CreateFile("lib/m" + std::to_string(i), Bytes(1200, 7))
              .status());
    }
    CEDAR_CHECK_OK(fsd_->Force());
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  std::unique_ptr<core::Fsd> fsd_;
};

// Error class 1+2: torn multi-page update / partial name-table write.
TEST_F(RobustnessTest, TornNameTableWriteIsInvisible) {
  // Force a burst whose home write-back is torn: fill to trigger a third
  // entry, arming a crash that cuts a multi-sector write.
  disk_.ArmCrash(sim::CrashPlan{.at_write_index = 5,
                                .sectors_completed = 1,
                                .sectors_damaged = 2,
                                .drop_writes = {}});
  Status status = OkStatus();
  for (int i = 0; i < 200 && status.ok(); ++i) {
    status =
        fsd_->CreateFile("torn/f" + std::to_string(i), Bytes(300, 1)).status();
    if (status.ok() && i % 5 == 4) {
      clock_.Advance(600 * sim::kMillisecond);
      status = fsd_->Tick();
    }
  }
  ASSERT_EQ(status.code(), ErrorCode::kDeviceCrashed);
  disk_.Reopen();
  core::Fsd after(&disk_, FsdCfg());
  ASSERT_TRUE(after.Mount().ok());
  ASSERT_TRUE(after.CheckNameTableInvariants().ok());
  auto list = after.List("lib/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 60u);  // the committed prefix is fully intact
}

// Error class 3: bad name-table pages (either copy, one- or two-sector).
TEST_F(RobustnessTest, AnySingleNameTablePageDamageIsTransparent) {
  ASSERT_TRUE(fsd_->Shutdown().ok());
  const auto& layout = fsd_->layout();
  for (const int copy :
       {core::FsdLayout::kPrimary, core::FsdLayout::kReplica}) {
    for (std::uint32_t offset : {0u, 1u, 7u, 40u}) {
      disk_.DamageSectors(layout.NtHome(copy, offset), 2);
      core::Fsd reader(&disk_, FsdCfg());
      ASSERT_TRUE(reader.Mount().ok());
      auto list = reader.List("lib/");
      ASSERT_TRUE(list.ok()) << "copy " << copy << " offset " << offset;
      EXPECT_EQ(list->size(), 60u);
      ASSERT_TRUE(reader.Shutdown().ok());
    }
  }
}

// Error class 4: VAM disk errors -> reconstruction.
TEST_F(RobustnessTest, DamagedVamSaveIsRebuiltFromNameTable) {
  const std::uint32_t live_free = fsd_->FreeSectors();
  ASSERT_TRUE(fsd_->Shutdown().ok());
  disk_.DamageSectors(fsd_->layout().vam_base, 2);
  core::Fsd after(&disk_, FsdCfg());
  ASSERT_TRUE(after.Mount().ok());
  EXPECT_EQ(after.FreeSectors(), live_free);
}

// Error classes 5/6: boot pages replicated.
TEST_F(RobustnessTest, DamagedBootPagesSurviveViaReplicas) {
  ASSERT_TRUE(fsd_->Shutdown().ok());
  disk_.DamageSectors(0, 1);  // volume root primary
  {
    core::Fsd after(&disk_, FsdCfg());
    ASSERT_TRUE(after.Mount().ok());
    ASSERT_TRUE(after.Shutdown().ok());
  }
  // Mount healed nothing at sector 0 (damage persists) but the copy at +2
  // keeps working; now damage the copy instead after healing the primary.
  {
    core::Fsd healer(&disk_, FsdCfg());
    ASSERT_TRUE(healer.Mount().ok());  // rewrites the root pair
    ASSERT_TRUE(healer.Shutdown().ok());
  }
  disk_.DamageSectors(2, 1);
  core::Fsd after(&disk_, FsdCfg());
  EXPECT_TRUE(after.Mount().ok());
}

// Wild stores: the leader/name-table cross-check. The first access detects
// the mismatch and rebuilds the leader from the entry (the entry is
// authoritative); the read itself is served from the entry's run table.
// File data carries no checksum (paper fidelity), so the wild-written
// payload is the caller's to verify — what FSD guarantees is that the
// metadata damage is detected, counted, and healed, not silently ignored.
TEST_F(RobustnessTest, WildWriteOverLeaderDetectedOnFirstAccess) {
  ASSERT_TRUE(fsd_->Shutdown().ok());
  core::Fsd reader(&disk_, FsdCfg());
  ASSERT_TRUE(reader.Mount().ok());
  // Smash the whole small-file area (data + leaders).
  for (sim::Lba lba =
           core::RunAllocator::FirstSmallFileStart(reader.layout(), 200);
       lba < reader.layout().complex_begin(); ++lba) {
    disk_.WildWrite(lba, lba);
  }
  auto handle = reader.Open("lib/m0");
  ASSERT_TRUE(handle.ok());  // metadata is intact (name table untouched)
  std::vector<std::uint8_t> out(1200);
  ASSERT_TRUE(reader.Read(*handle, 0, out).ok());
  const auto health = reader.Health();
  EXPECT_GE(health.corruption_detected, 1u);  // the wild store was caught
  EXPECT_GE(health.repairs, 1u);              // and the leader rebuilt
  // The repair stuck: a fresh access is clean (no new detection).
  auto handle2 = reader.Open("lib/m0");
  ASSERT_TRUE(handle2.ok());
  ASSERT_TRUE(reader.Read(*handle2, 0, out).ok());
  EXPECT_EQ(reader.Health().corruption_detected, health.corruption_detected);
}

// Data-sector damage stays contained to one file.
TEST_F(RobustnessTest, SectorDamageAffectsOnlyOneFile) {
  // Find one file's data sector via its neighbours: smash a sector in the
  // small area and verify at most one file fails while all others read.
  disk_.DamageSectors(
      core::RunAllocator::FirstSmallFileStart(fsd_->layout(), 12), 2);
  auto list = fsd_->List("lib/");
  ASSERT_TRUE(list.ok());
  int failures = 0;
  for (const auto& info : *list) {
    auto handle = fsd_->Open(info.name);
    ASSERT_TRUE(handle.ok());
    std::vector<std::uint8_t> out(info.byte_size);
    if (!fsd_->Read(*handle, 0, out).ok()) {
      ++failures;
    }
  }
  EXPECT_LE(failures, 2);  // two damaged sectors can straddle two files
  EXPECT_GE(static_cast<int>(list->size()) - failures, 58);
}

// Beyond the failure model: losing the entire track that holds the first
// primaries still cannot hurt, because their replicas sit a band (at least
// one track) later on the same cylinder, on tracks of their own (the
// paper's "more stringent requirements (e.g., loss of a whole track) can be
// met within the framework of the design"). The sweep over every track of
// the first band cylinders is WholeTrackSweepOfTheBandsIsTransparent.
TEST_F(RobustnessTest, WholeTrackLossInNameTableRegionSurvives) {
  ASSERT_TRUE(fsd_->Shutdown().ok());
  const auto& geometry = disk_.geometry();
  const auto chs =
      geometry.ToChs(fsd_->layout().NtHome(core::FsdLayout::kPrimary, 0));
  disk_.DamageTrack(chs.cylinder, chs.head);
  core::Fsd after(&disk_, FsdCfg());
  ASSERT_TRUE(after.Mount().ok());
  auto list = after.List("lib/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 60u);
  // And every file's contents are intact.
  for (const auto& info : *list) {
    auto handle = after.Open(info.name);
    ASSERT_TRUE(handle.ok());
    std::vector<std::uint8_t> out(info.byte_size);
    ASSERT_TRUE(after.Read(*handle, 0, out).ok()) << info.name;
  }
}

// The whole-track claim, track by track: on every track of the band
// cylinders, the loss of that one track leaves mount, listing, every read
// and fsck working (each track on a fresh copy of the same volume). Long
// names spread the table over the whole first band cylinder, so every one
// of its tracks holds live pages.
TEST_F(RobustnessTest, WholeTrackSweepOfTheBandsIsTransparent) {
  constexpr int kBandFiles = 400;
  auto band_name = [](int i) {
    return "band/" + std::string(72, 'n') + std::to_string(i);
  };
  auto band_bytes = [](int i) {
    return Bytes(100, static_cast<std::uint8_t>(i));
  };
  for (int i = 0; i < kBandFiles; ++i) {
    ASSERT_TRUE(fsd_->CreateFile(band_name(i), band_bytes(i)).ok());
  }
  ASSERT_TRUE(fsd_->Shutdown().ok());
  const sim::DiskSnapshot intact = disk_.Snapshot();
  const core::FsdLayout& layout = fsd_->layout();
  const auto& geometry = disk_.geometry();
  const std::uint32_t first = geometry.ToChs(layout.nt_base).cylinder;
  const std::uint32_t last = geometry.ToChs(layout.nt_end - 1).cylinder;
  ASSERT_GT(last, first);  // the table spans several band cylinders
  std::uint32_t repaired_tracks = 0;
  for (std::uint32_t cylinder = first; cylinder <= last; ++cylinder) {
    for (std::uint32_t head = 0; head < geometry.heads; ++head) {
      SCOPED_TRACE("cylinder " + std::to_string(cylinder) + " head " +
                   std::to_string(head));
      disk_.Restore(intact);
      disk_.DamageTrack(cylinder, head);
      core::Fsd after(&disk_, FsdCfg());
      ASSERT_TRUE(after.Mount().ok());
      auto list = after.List("lib/");
      ASSERT_TRUE(list.ok());
      ASSERT_EQ(list->size(), 60u);
      for (const auto& info : *list) {
        auto handle = after.Open(info.name);
        ASSERT_TRUE(handle.ok()) << info.name;
        std::vector<std::uint8_t> out(info.byte_size);
        ASSERT_TRUE(after.Read(*handle, 0, out).ok()) << info.name;
        EXPECT_EQ(out, Bytes(1200, 7)) << info.name;
      }
      auto band = after.List("band/");
      ASSERT_TRUE(band.ok());
      ASSERT_EQ(band->size(), static_cast<std::size_t>(kBandFiles));
      for (int i = 0; i < kBandFiles; ++i) {
        auto handle = after.Open(band_name(i));
        ASSERT_TRUE(handle.ok()) << i;
        std::vector<std::uint8_t> out(handle->byte_size);
        ASSERT_TRUE(after.Read(*handle, 0, out).ok()) << i;
        EXPECT_EQ(out, band_bytes(i)) << i;
      }
      auto report = after.Fsck();
      ASSERT_TRUE(report.ok());
      EXPECT_TRUE(report->Clean()) << report->Summary();
      repaired_tracks += after.Health().repairs > 0 ? 1 : 0;
    }
  }
  // The damage was real: at least every track of the first band cylinder
  // lost live copies, which were rewritten from their siblings.
  EXPECT_GE(repaired_tracks, geometry.heads);
}

// CFS contrast: the torn name-table write that FSD shrugs off forces CFS
// into a full scavenge (the paper's motivating weakness).
TEST(CfsContrastTest, TornNameTableWriteBreaksCfsUntilScavenge) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  cfs::Cfs cfs(&disk, CfsCfg());
  ASSERT_TRUE(cfs.Format().ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        cfs.CreateFile("lib/m" + std::to_string(i), Bytes(500, 1)).ok());
  }
  // Tear the next 4-sector name-table write in the middle.
  disk.ArmCrash(sim::CrashPlan{.at_write_index = 4,
                               .sectors_completed = 2,
                               .sectors_damaged = 1,
                               .drop_writes = {}});
  Status status = OkStatus();
  for (int i = 0; i < 100 && status.ok(); ++i) {
    status = cfs.CreateFile("t/g" + std::to_string(i), Bytes(500, 2)).status();
  }
  ASSERT_EQ(status.code(), ErrorCode::kDeviceCrashed);
  disk.Reopen();

  // A plain mount sees the damage (or a later operation does); only the
  // scavenger restores full service.
  cfs::Cfs recovered(&disk, CfsCfg());
  ASSERT_TRUE(recovered.Scavenge().ok());
  auto list = recovered.List("lib/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 40u);
}

// Crash-at-every-write matrix for CFS: scavenging must always restore a
// consistent volume in which every file with an intact header is fully
// readable — at any crash point.
class CfsScavengeMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(CfsScavengeMatrixTest, ScavengeRestoresConsistencyAtAnyCrashPoint) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  cfs::Cfs cfs(&disk, CfsCfg());
  ASSERT_TRUE(cfs.Format().ok());
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(
        cfs.CreateFile("pre/f" + std::to_string(i), Bytes(800 + i, 1)).ok());
  }

  disk.ArmCrash(sim::CrashPlan{
      .at_write_index = static_cast<std::uint64_t>(GetParam()),
      .sectors_completed = 1,
      .sectors_damaged = 1,
      .drop_writes = {}});
  Status status = OkStatus();
  for (int i = 0; i < 200 && status.ok(); ++i) {
    switch (i % 3) {
      case 0:
        status =
            cfs.CreateFile("mid/f" + std::to_string(i), Bytes(600, 2)).status();
        break;
      case 1: {
        Status s = cfs.DeleteFile("mid/f" + std::to_string(i - 1));
        status = s.code() == ErrorCode::kNotFound ? OkStatus() : s;
        break;
      }
      case 2:
        status = cfs.Touch("pre/f3");
        break;
    }
  }
  ASSERT_EQ(status.code(), ErrorCode::kDeviceCrashed);
  disk.Reopen();

  cfs::Cfs recovered(&disk, CfsCfg());
  ASSERT_TRUE(recovered.Scavenge().ok());
  auto list = recovered.List("");
  ASSERT_TRUE(list.ok());
  // Every surviving file is fully readable, and the volume is writable.
  for (const auto& info : *list) {
    auto handle = recovered.Open(info.name);
    ASSERT_TRUE(handle.ok()) << info.name;
    std::vector<std::uint8_t> out(handle->byte_size);
    EXPECT_TRUE(recovered.Read(*handle, 0, out).ok()) << info.name;
  }
  EXPECT_GE(list->size(), 15u);  // the pre-crash files all had headers
  ASSERT_TRUE(recovered.CreateFile("post/alive", Bytes(100, 0)).ok());
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CfsScavengeMatrixTest,
                         ::testing::Range(0, 40, 4));

}  // namespace
}  // namespace cedar
