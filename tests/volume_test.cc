// VolumeRouter: shard routing, stateless handle encoding, merged listing,
// same-volume and cross-volume rename, the maintenance and health fan-out,
// and an FSD volume running end-to-end on a striped DiskArray.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/sim/geometry.h"
#include "src/volume/rig.h"
#include "src/volume/router.h"

namespace cedar::vol {
namespace {

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return out;
}

RigConfig SmallRig(std::uint32_t volumes) {
  RigConfig config;
  config.volumes = volumes;
  config.geometry = sim::TestGeometry();
  config.fsd.log_sectors = 400;
  config.fsd.nt_pages = 64;
  config.fsd.cache_frames = 512;
  return config;
}

// Finds a name pair ("<base><i>", "<base><j>") living on DIFFERENT volumes,
// for cross-volume rename tests. The 16-way shard hash scatters numeric
// suffixes, so a handful of probes suffices.
std::pair<std::string, std::string> CrossVolumePair(std::size_t volumes) {
  std::string from = "cross/src0";
  const std::size_t src_vol = VolumeRouter::VolumeOf(from, volumes);
  for (int i = 0; i < 64; ++i) {
    std::string to = "cross/dst" + std::to_string(i);
    if (VolumeRouter::VolumeOf(to, volumes) != src_vol) {
      return {from, to};
    }
  }
  ADD_FAILURE() << "no cross-volume name pair found";
  return {from, from};
}

TEST(VolumeOfTest, StableAndWithinRange) {
  for (std::size_t volumes : {1u, 2u, 4u, 8u, 16u}) {
    for (int i = 0; i < 100; ++i) {
      const std::string name = "stable/f" + std::to_string(i);
      const std::size_t v = VolumeRouter::VolumeOf(name, volumes);
      EXPECT_LT(v, volumes);
      EXPECT_EQ(v, VolumeRouter::VolumeOf(name, volumes));  // deterministic
    }
  }
  // With one volume everything routes to it.
  EXPECT_EQ(VolumeRouter::VolumeOf("anything", 1), 0u);
}

TEST(VolumeRouterTest, ShardsFilesAcrossAllVolumes) {
  ScaleoutRig rig(SmallRig(4));
  for (int i = 0; i < 64; ++i) {
    const std::string name = "spread/f" + std::to_string(i);
    ASSERT_TRUE(rig.router().CreateFile(name, Bytes(100, 1)).ok());
  }
  // Every volume received a share (64 names over 16 shards over 4 volumes).
  for (std::uint32_t v = 0; v < 4; ++v) {
    auto list = rig.fsd(v).List("spread/");
    ASSERT_TRUE(list.ok());
    EXPECT_GT(list->size(), 0u) << "volume " << v;
  }
  // And the name is only on the volume the shard map says.
  for (int i = 0; i < 64; ++i) {
    const std::string name = "spread/f" + std::to_string(i);
    const std::size_t owner = VolumeRouter::VolumeOf(name, 4);
    for (std::uint32_t v = 0; v < 4; ++v) {
      const bool found = rig.fsd(v).Open(name).ok();
      EXPECT_EQ(found, v == owner) << name << " on volume " << v;
    }
  }
}

TEST(VolumeRouterTest, HandlesRouteStatelessly) {
  ScaleoutRig rig(SmallRig(4));
  const auto contents = Bytes(1500, 7);
  ASSERT_TRUE(rig.router().CreateFile("h/alpha", contents).ok());
  auto handle = rig.router().Open("h/alpha");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->byte_size, 1500u);
  // The low uid bits carry the owning volume.
  EXPECT_EQ(handle->uid & 0xF, VolumeRouter::VolumeOf("h/alpha", 4));

  std::vector<std::uint8_t> out(contents.size());
  ASSERT_TRUE(rig.router().Read(*handle, 0, out).ok());
  EXPECT_EQ(out, contents);

  // Write and Extend route through the same encoding.
  const auto patch = Bytes(100, 9);
  ASSERT_TRUE(rig.router().Write(*handle, 200, patch).ok());
  ASSERT_TRUE(rig.router().Extend(*handle, 512).ok());
  ASSERT_TRUE(rig.router().Close(*handle).ok());

  auto reopened = rig.router().Open("h/alpha");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->byte_size, 2012u);
  std::vector<std::uint8_t> back(100);
  ASSERT_TRUE(rig.router().Read(*reopened, 200, back).ok());
  EXPECT_EQ(back, patch);
}

TEST(VolumeRouterTest, ListMergesSortedAcrossVolumes) {
  ScaleoutRig rig(SmallRig(4));
  for (int i = 0; i < 40; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "merge/f%02d", i);
    ASSERT_TRUE(rig.router().CreateFile(name, Bytes(10, 2)).ok());
  }
  auto list = rig.router().List("merge/");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 40u);
  for (std::size_t i = 1; i < list->size(); ++i) {
    EXPECT_LT((*list)[i - 1].name, (*list)[i].name);
  }
  // Properties came through the merge.
  EXPECT_EQ((*list)[0].byte_size, 10u);
}

TEST(VolumeRouterTest, SameVolumeRenameForwardsToFsd) {
  ScaleoutRig rig(SmallRig(4));
  // Find a sibling name on the SAME volume as the source.
  const std::string from = "same/src0";
  const std::size_t vol = VolumeRouter::VolumeOf(from, 4);
  std::string to;
  for (int i = 0; i < 64; ++i) {
    std::string candidate = "same/dst" + std::to_string(i);
    if (VolumeRouter::VolumeOf(candidate, 4) == vol) {
      to = candidate;
      break;
    }
  }
  ASSERT_FALSE(to.empty());

  const auto contents = Bytes(700, 3);
  ASSERT_TRUE(rig.router().CreateFile(from, contents).ok());
  ASSERT_TRUE(rig.router().Rename(from, to).ok());
  EXPECT_FALSE(rig.router().Open(from).ok());
  auto handle = rig.router().Open(to);
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(contents.size());
  ASSERT_TRUE(rig.router().Read(*handle, 0, out).ok());
  EXPECT_EQ(out, contents);

  const auto snapshot = rig.router().Metrics().Snapshot();
  EXPECT_EQ(snapshot.CounterValue("router.local_renames"), 1u);
  EXPECT_EQ(snapshot.CounterValue("router.cross_renames"), 0u);
}

TEST(VolumeRouterTest, CrossVolumeRenameMovesContentsAndProperties) {
  ScaleoutRig rig(SmallRig(4));
  const auto [from, to] = CrossVolumePair(4);
  const auto contents = Bytes(2300, 11);
  ASSERT_TRUE(rig.router().CreateFile(from, contents).ok());
  ASSERT_TRUE(rig.router().SetKeep(from, 3).ok());

  ASSERT_TRUE(rig.router().Rename(from, to).ok());
  EXPECT_FALSE(rig.router().Open(from).ok());
  auto handle = rig.router().Open(to);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->byte_size, contents.size());
  std::vector<std::uint8_t> out(contents.size());
  ASSERT_TRUE(rig.router().Read(*handle, 0, out).ok());
  EXPECT_EQ(out, contents);

  // The keep property traveled with the file.
  auto list = rig.router().List(to);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].keep, 3u);

  const auto snapshot = rig.router().Metrics().Snapshot();
  EXPECT_EQ(snapshot.CounterValue("router.cross_renames"), 1u);
}

TEST(VolumeRouterTest, RenameOfMissingFileFails) {
  ScaleoutRig rig(SmallRig(2));
  EXPECT_FALSE(rig.router().Rename("nope/src", "nope/dst").ok());
}

TEST(VolumeRouterTest, ManyRenamesAllComplete) {
  ScaleoutRig rig(SmallRig(2));
  std::vector<std::pair<std::string, std::string>> moves;
  for (int i = 0; i < 16; ++i) {
    const std::string from = "bulk/src" + std::to_string(i);
    const std::string to = "bulk/dst" + std::to_string(i);
    ASSERT_TRUE(rig.router().CreateFile(from, Bytes(200, 4)).ok());
    moves.emplace_back(from, to);
  }
  for (const auto& [from, to] : moves) {
    ASSERT_TRUE(rig.router().Rename(from, to).ok());
  }
  ASSERT_TRUE(rig.router().Force().ok());
  for (const auto& [from, to] : moves) {
    EXPECT_FALSE(rig.router().Open(from).ok()) << from;
    EXPECT_TRUE(rig.router().Open(to).ok()) << to;
  }
}

TEST(VolumeRouterTest, ForceAndShutdownFanOut) {
  ScaleoutRig rig(SmallRig(4));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        rig.router().CreateFile("fan/f" + std::to_string(i), Bytes(64, 6))
            .ok());
  }
  ASSERT_TRUE(rig.router().Force().ok());
  EXPECT_TRUE(rig.router().RecoveryWindow().ok());
  ASSERT_TRUE(rig.router().Shutdown().ok());
}

// Checkpoint reaches every volume, Maintenance sums the volumes' counters,
// and Health sums theirs and tags each note with its volume's index.
TEST(VolumeRouterTest, MaintenanceAndHealthFanOutAndSum) {
  ScaleoutRig rig(SmallRig(3));
  // Two forced groups: a checkpoint retires every log record but the
  // newest, so each volume needs two.
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(
        rig.router().CreateFile("ops/f" + std::to_string(i), Bytes(700, 5))
            .ok());
    if (i % 12 == 11) {
      ASSERT_TRUE(rig.router().Force().ok());
    }
  }
  ASSERT_TRUE(rig.router().Checkpoint().ok());
  fs::MaintenanceStats sum;
  for (std::uint32_t v = 0; v < 3; ++v) {
    const fs::MaintenanceStats m = rig.fsd(v).Maintenance();
    EXPECT_GE(m.checkpoint_batches, 1u) << "volume " << v;
    sum.log_live_bytes += m.log_live_bytes;
    sum.log_capacity_bytes += m.log_capacity_bytes;
    sum.recovery_window_bytes += m.recovery_window_bytes;
    sum.checkpoint_batches += m.checkpoint_batches;
    sum.checkpoint_pages += m.checkpoint_pages;
    sum.checkpoint_advances += m.checkpoint_advances;
    sum.third_flush_fallbacks += m.third_flush_fallbacks;
  }
  const fs::MaintenanceStats total = rig.router().Maintenance();
  EXPECT_GT(total.log_capacity_bytes, 0u);
  EXPECT_EQ(total.log_live_bytes, sum.log_live_bytes);
  EXPECT_EQ(total.log_capacity_bytes, sum.log_capacity_bytes);
  EXPECT_EQ(total.recovery_window_bytes, sum.recovery_window_bytes);
  EXPECT_EQ(total.checkpoint_batches, sum.checkpoint_batches);
  EXPECT_EQ(total.checkpoint_pages, sum.checkpoint_pages);
  EXPECT_EQ(total.checkpoint_advances, sum.checkpoint_advances);
  EXPECT_EQ(total.third_flush_fallbacks, sum.third_flush_fallbacks);

  // Lose both copies of volume 2's live name-table pages: its scrub can
  // only report them, and the router's notes say which volume lost them.
  EXPECT_TRUE(rig.router().Health().notes.empty());
  const core::FsdLayout layout = rig.fsd(2).layout();
  for (std::uint32_t pid = 0; pid < 8; ++pid) {
    rig.device(2).DamageSectors(layout.NtHome(core::FsdLayout::kPrimary, pid),
                                1);
    rig.device(2).DamageSectors(layout.NtHome(core::FsdLayout::kReplica, pid),
                                1);
  }
  ASSERT_TRUE(rig.fsd(2).Scrub().ok());
  const fs::HealthStats lost = rig.fsd(2).Health();
  ASSERT_FALSE(lost.notes.empty());
  const fs::HealthStats health = rig.router().Health();
  EXPECT_EQ(health.unrepairable, lost.unrepairable);
  EXPECT_EQ(health.nt_pages_lost, lost.nt_pages_lost);
  ASSERT_EQ(health.notes.size(), lost.notes.size());
  for (std::size_t i = 0; i < lost.notes.size(); ++i) {
    EXPECT_EQ(health.notes[i], "vol2: " + lost.notes[i]);
  }
}

TEST(ScaleoutRigTest, FsdRunsOnStripedArrayEndToEnd) {
  RigConfig config = SmallRig(1);
  config.spindles = 4;
  config.mode = sim::ArrayMode::kStriped;
  ScaleoutRig rig(config);
  const auto contents = Bytes(40 * 1024, 13);  // spans many stripe chunks
  ASSERT_TRUE(rig.router().CreateFile("array/big", contents).ok());
  ASSERT_TRUE(rig.router().Force().ok());
  auto handle = rig.router().Open("array/big");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(contents.size());
  ASSERT_TRUE(rig.router().Read(*handle, 0, out).ok());
  EXPECT_EQ(out, contents);

  // All four spindles serviced I/O.
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_GT(rig.device(0).SpindleStats(s).TotalIos(), 0u) << "spindle " << s;
  }
  auto report = rig.fsd(0).Fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->violations(), 0u) << report->Summary();
}

TEST(ScaleoutRigTest, FsdRunsOnMirroredArrayEndToEnd) {
  RigConfig config = SmallRig(1);
  config.spindles = 2;
  config.mode = sim::ArrayMode::kMirrored;
  ScaleoutRig rig(config);
  const auto contents = Bytes(8 * 1024, 17);
  ASSERT_TRUE(rig.router().CreateFile("mirror/f", contents).ok());
  ASSERT_TRUE(rig.router().Force().ok());
  auto handle = rig.router().Open("mirror/f");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(contents.size());
  ASSERT_TRUE(rig.router().Read(*handle, 0, out).ok());
  EXPECT_EQ(out, contents);
  auto report = rig.fsd(0).Fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->violations(), 0u);
}

}  // namespace
}  // namespace cedar::vol
