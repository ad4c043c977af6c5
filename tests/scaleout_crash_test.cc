// Crash consistency on the scale-out topologies: the systematic crash-point
// harness running FSD on striped and mirrored DiskArrays (member-level cuts
// produce torn stripes and diverged replicas — crash shapes a single
// spindle cannot), mirrored reads with one replica entirely dead, and the
// cross-volume rename two-step cut on both sides of its force boundary.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/crash/harness.h"
#include "src/crash/workload.h"
#include "src/sim/array.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/check.h"
#include "src/volume/router.h"
#include "src/workload/workload.h"

namespace cedar::crash {
namespace {

using core::Fsd;
using workload::Payload;

TEST(ScaleoutCrashTest, BoundedSweepPassesOnStripedArray) {
  HarnessOptions options;
  options.topology = Topology::kStriped;
  options.spindles = 2;
  options.chunk_sectors = 4;  // small chunks: logical writes span members
  options.max_cases = 80;
  options.double_crash_points = 1;
  CrashHarness harness(options);
  auto report = harness.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GT(report->enumerated, options.max_cases);
  for (const CaseResult& r : report->results) {
    EXPECT_TRUE(r.pass) << "w" << r.c.plan.at_write_index << " ["
                        << r.c.variant << "]: " << r.failure;
  }
}

TEST(ScaleoutCrashTest, BoundedSweepPassesOnMirroredArray) {
  HarnessOptions options;
  options.topology = Topology::kMirrored;
  options.spindles = 2;
  options.max_cases = 80;
  options.double_crash_points = 1;
  CrashHarness harness(options);
  auto report = harness.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  // Every logical write becomes two member writes, so cuts land BETWEEN the
  // replica writes of single logical requests — diverged-replica recovery.
  EXPECT_TRUE(report->AllPassed()) << report->results.size() << " cases";
}

// One replica entirely dead: every read the volume does must fall back to
// the surviving replica, writes must keep succeeding on it, and the volume
// stays structurally clean — the mirror's whole point.
TEST(ScaleoutCrashTest, MirroredVolumeSurvivesOneReplicaDead) {
  sim::VirtualClock clock;
  sim::ArrayConfig array_config;
  array_config.mode = sim::ArrayMode::kMirrored;
  array_config.spindles = 2;
  array_config.member_geometry = sim::TestGeometry();
  sim::DiskArray array(array_config, &clock);

  const core::FsdConfig config = CrashHarness::FsdConfigFor(false);
  {
    Fsd fsd(&array, config);
    ASSERT_TRUE(fsd.Format().ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          fsd.CreateFile("dead/f" + std::to_string(i), Payload(900, 61)).ok());
    }
    ASSERT_TRUE(fsd.Shutdown().ok());
  }

  // Replica 0 dies wholesale (controller failure): every sector kDead.
  const sim::Lba total = sim::TestGeometry().TotalSectors();
  for (sim::Lba lba = 0; lba < total; ++lba) {
    array.member(0).InjectPersistentFault(lba, sim::FaultMode::kDead);
  }

  Fsd fsd(&array, config);
  ASSERT_TRUE(fsd.Mount().ok());
  for (int i = 0; i < 20; ++i) {
    auto handle = fsd.Open("dead/f" + std::to_string(i));
    ASSERT_TRUE(handle.ok()) << i;
    std::vector<std::uint8_t> out(handle->byte_size);
    ASSERT_TRUE(fsd.Read(*handle, 0, out).ok()) << i;
    EXPECT_EQ(out, Payload(900, 61)) << i;
  }
  // Mutations keep working on the surviving replica.
  ASSERT_TRUE(fsd.CreateFile("dead/new", Payload(700, 63)).ok());
  ASSERT_TRUE(fsd.Force().ok());
  auto fsck = fsd.Fsck();
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->Clean()) << fsck->Summary();
}

// ---------------------------------------------------------------------------
// The cross-volume rename cut. The two-step protocol's contract: a crash at
// ANY point leaves the file reachable under at least one of the two names
// with intact contents, and both volumes recover structurally clean. The
// two interesting cuts are the first write on each side of the step-1 force
// boundary.

class CrossVolumeCutTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kVolumes = 2;

  CrossVolumeCutTest() : config_(CrashHarness::FsdConfigFor(false)) {
    for (std::size_t v = 0; v < kVolumes; ++v) {
      disks_[v] = std::make_unique<sim::SimDisk>(
          sim::TestGeometry(), sim::DiskTimingParams{}, &clocks_[v]);
      fsds_[v] = std::make_unique<Fsd>(disks_[v].get(), config_);
      CEDAR_CHECK_OK(fsds_[v]->Format());
    }
    // A name pair that crosses volumes.
    from_ = "cut/src0";
    src_ = vol::VolumeRouter::VolumeOf(from_, kVolumes);
    for (int i = 0; i < 64 && to_.empty(); ++i) {
      std::string candidate = "cut/dst" + std::to_string(i);
      if (vol::VolumeRouter::VolumeOf(candidate, kVolumes) != src_) {
        to_ = candidate;
      }
    }
    CEDAR_CHECK(!to_.empty());
    dst_ = 1 - src_;
  }

  // Recovers volume `v` after a crash: discard the wedged Fsd, reopen the
  // device, mount fresh, and require a clean fsck.
  void Recover(std::size_t v) {
    fsds_[v].reset();
    disks_[v]->Reopen();
    fsds_[v] = std::make_unique<Fsd>(disks_[v].get(), config_);
    ASSERT_TRUE(fsds_[v]->Mount().ok()) << "volume " << v;
    auto fsck = fsds_[v]->Fsck();
    ASSERT_TRUE(fsck.ok()) << "volume " << v;
    EXPECT_TRUE(fsck->Clean()) << "volume " << v << ": " << fsck->Summary();
  }

  // True when volume `v` holds `name` with exactly `want` as contents.
  bool Holds(std::size_t v, const std::string& name,
             const std::vector<std::uint8_t>& want) {
    auto handle = fsds_[v]->Open(name);
    if (!handle.ok() || handle->byte_size != want.size()) {
      return false;
    }
    std::vector<std::uint8_t> out(want.size());
    return fsds_[v]->Read(*handle, 0, out).ok() && out == want;
  }

  core::FsdConfig config_;
  std::array<sim::VirtualClock, kVolumes> clocks_;
  std::array<std::unique_ptr<sim::SimDisk>, kVolumes> disks_;
  std::array<std::unique_ptr<Fsd>, kVolumes> fsds_;
  std::string from_;
  std::string to_;
  std::size_t src_ = 0;
  std::size_t dst_ = 0;
};

TEST_F(CrossVolumeCutTest, CrashAfterDestinationForceDuplicatesNeverLoses) {
  const std::vector<std::uint8_t> contents = Payload(1700, 71);
  {
    vol::VolumeRouter router({fsds_[0].get(), fsds_[1].get()});
    ASSERT_TRUE(router.CreateFile(from_, contents).ok());
    ASSERT_TRUE(router.Force().ok());

    // First write to the SOURCE after this point is step 2 (the delete's
    // force) — step 1 only reads the source. Cut there: the destination
    // copy is already durable, the source delete never commits.
    sim::CrashPlan cut;
    cut.at_write_index = 0;
    disks_[src_]->ArmCrash(cut);
    EXPECT_FALSE(router.Rename(from_, to_).ok());
    EXPECT_TRUE(disks_[src_]->crashed());
  }

  Recover(src_);
  // Destination holds the file (its force completed before the cut)...
  EXPECT_TRUE(Holds(dst_, to_, contents));
  // ...and the source still has the original: duplicate, never lost.
  EXPECT_TRUE(Holds(src_, from_, contents));

  // Retrying the rename converges to the final state.
  vol::VolumeRouter router({fsds_[0].get(), fsds_[1].get()});
  ASSERT_TRUE(router.Rename(from_, to_).ok());
  EXPECT_FALSE(router.Open(from_).ok());
  EXPECT_TRUE(Holds(dst_, to_, contents));
}

TEST_F(CrossVolumeCutTest, CrashDuringDestinationCopyLeavesSourceIntact) {
  const std::vector<std::uint8_t> contents = Payload(1700, 73);
  {
    vol::VolumeRouter router({fsds_[0].get(), fsds_[1].get()});
    ASSERT_TRUE(router.CreateFile(from_, contents).ok());
    ASSERT_TRUE(router.Force().ok());

    // Cut the DESTINATION's first write: step 1's copy dies before its
    // force, so nothing about the rename is durable anywhere.
    sim::CrashPlan cut;
    cut.at_write_index = 0;
    disks_[dst_]->ArmCrash(cut);
    EXPECT_FALSE(router.Rename(from_, to_).ok());
    EXPECT_TRUE(disks_[dst_]->crashed());
  }

  Recover(dst_);
  // The source never saw a write; the file is exactly where it started.
  EXPECT_TRUE(Holds(src_, from_, contents));
  // The destination recovered clean; the half-copied name must not hold
  // corrupt bytes — either absent or (if its create committed) intact.
  auto handle = fsds_[dst_]->Open(to_);
  if (handle.ok()) {
    EXPECT_TRUE(Holds(dst_, to_, contents));
  }

  vol::VolumeRouter router({fsds_[0].get(), fsds_[1].get()});
  ASSERT_TRUE(router.Rename(from_, to_).ok());
  EXPECT_FALSE(router.Open(from_).ok());
  EXPECT_TRUE(Holds(dst_, to_, contents));
}

}  // namespace
}  // namespace cedar::crash
