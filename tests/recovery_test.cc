// Mount-time recovery on its own (src/core/recovery.h): the module is built
// on a bare SimDisk with no Fsd, so the root's sector format and election,
// the replay collector and the name-table walk are exercised directly.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/btree/btree.h"
#include "src/btree/mem_page_store.h"
#include "src/core/recovery.h"
#include "src/fsapi/name_key.h"
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
  return config;
}

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        layout_(FsdLayout::Compute(disk_.geometry(), Config())),
        nt_(&disk_, layout_, Config(), &metrics_, &health_),
        log_(&disk_, layout_.log_base, Config().log_sectors, &metrics_),
        recovery_(&disk_, layout_, Config(), &log_, &nt_, &health_,
                  &metrics_) {
    CEDAR_CHECK_OK(nt_.Format());
  }

  // Writes the root pair with each copy's own boot count.
  void WriteRootPair(std::uint32_t boot0, std::uint32_t boot2) {
    for (const std::uint32_t slot : {0u, 2u}) {
      const VolumeRoot root{.log_sectors = Config().log_sectors,
                            .nt_pages = Config().nt_pages,
                            .nt_band = layout_.nt_band,
                            .boot_count = slot == 0 ? boot0 : boot2,
                            .clean = true};
      CEDAR_CHECK_OK(disk_.Write(layout_.root_lba + slot,
                                 VolumeRoot::Encode(root, disk_.geometry())));
    }
  }

  std::vector<std::uint8_t> Sector(sim::Lba lba) {
    std::vector<std::uint8_t> out(512);
    CEDAR_CHECK_OK(disk_.Read(lba, out));
    return out;
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  FsdLayout layout_;
  obs::MetricsRegistry metrics_;
  MediaHealth health_{&disk_, &metrics_};
  NtStore nt_;
  FsdLog log_;
  Recovery recovery_;
};

TEST_F(RecoveryTest, RootRoundTripsAndRejectsWhatEncodeNeverWrites) {
  const VolumeRoot root{.log_sectors = 400,
                        .nt_pages = 64,
                        .nt_band = 112,
                        .boot_count = 7,
                        .nt_seq = 1234,
                        .clean = true};
  std::vector<std::uint8_t> sector = VolumeRoot::Encode(root, disk_.geometry());
  ASSERT_EQ(sector.size(), 512u);
  auto decoded = VolumeRoot::Decode(sector, disk_.geometry());
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->log_sectors, 400u);
  EXPECT_EQ(decoded->nt_pages, 64u);
  EXPECT_EQ(decoded->nt_band, 112u);
  EXPECT_EQ(decoded->boot_count, 7u);
  EXPECT_EQ(decoded->nt_seq, 1234u);
  EXPECT_TRUE(decoded->clean);

  sim::DiskGeometry other = disk_.geometry();
  ++other.cylinders;
  EXPECT_EQ(VolumeRoot::Decode(sector, other).status().code(),
            ErrorCode::kCorruptMetadata);
  sector[20] ^= 1;  // a size field: the CRC catches it
  EXPECT_EQ(VolumeRoot::Decode(sector, disk_.geometry()).status().code(),
            ErrorCode::kCorruptMetadata);
}

TEST_F(RecoveryTest, TornRootPairElectsTheHigherBootAndHealsTheStaleCopy) {
  WriteRootPair(/*boot0=*/4, /*boot2=*/5);  // the write reached copy 2 only
  auto root = recovery_.ReadRoot();
  ASSERT_TRUE(root.ok()) << root.status().message();
  EXPECT_EQ(root->boot_count, 5u);
  EXPECT_EQ(Sector(layout_.root_lba), Sector(layout_.root_lba + 2));
  EXPECT_EQ(metrics_.Snapshot().CounterValue("fsd.repairs"), 1u);

  WriteRootPair(/*boot0=*/9, /*boot2=*/8);
  root = recovery_.ReadRoot();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->boot_count, 9u);
  EXPECT_EQ(Sector(layout_.root_lba + 2), Sector(layout_.root_lba));
}

TEST_F(RecoveryTest, DegradedRootReadWritesNothing) {
  WriteRootPair(/*boot0=*/4, /*boot2=*/5);
  health_.set_degraded(true);
  const sim::DiskSnapshot before = disk_.Snapshot();
  auto root = recovery_.ReadRoot();
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->boot_count, 5u);
  EXPECT_TRUE(disk_.StateEquals(before));
}

TEST_F(RecoveryTest, RootOfAnotherSizeFailsNamingBothAndWritesNothing) {
  const VolumeRoot root{.log_sectors = 400, .nt_pages = 128, .boot_count = 3};
  const std::vector<std::uint8_t> sector =
      VolumeRoot::Encode(root, disk_.geometry());
  CEDAR_CHECK_OK(disk_.Write(layout_.root_lba, sector));  // copy 2 unwritten
  const sim::DiskSnapshot before = disk_.Snapshot();
  auto read = recovery_.ReadRoot();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("nt_pages 128"), std::string::npos);
  EXPECT_NE(read.status().message().find("nt_pages 64"), std::string::npos);
  EXPECT_TRUE(disk_.StateEquals(before));
}

TEST_F(RecoveryTest, ReplayKeepsTheNewestImageAndTombstonesCancelLeaders) {
  CEDAR_CHECK_OK(log_.Format(/*boot_count=*/1));
  const std::uint32_t pid = 3;
  const sim::Lba leader = layout_.data_low + 10;
  auto nt_page = [&](std::uint8_t fill) {
    return PageImage{
        .primary = layout_.NtHome(FsdLayout::kPrimary, pid),
        .secondary = layout_.NtHome(FsdLayout::kReplica, pid),
        .data = nt_.Compose(
            std::vector<std::uint8_t>(NtStore::kPayload, fill))};
  };
  auto delta_page = [](std::uint32_t start) {
    return PageImage{
        .kind = PageKind::kVamDelta,
        .data = SerializeDeltas(std::vector<VamDelta>{
            {.op = VamDelta::Op::kAlloc, .start = start, .count = 2}})[0]};
  };
  const PageImage first = nt_page(0x11);
  const PageImage second = nt_page(0x22);
  const PageImage leader_image{.primary = leader,
                               .data = std::vector<std::uint8_t>(512, 0x33)};
  const PageImage tombstone{.primary = leader,
                            .kind = PageKind::kTombstone,
                            .data = std::vector<std::uint8_t>(512, 0)};
  auto no_third = [](std::uint64_t) { return OkStatus(); };
  auto lsn1 = log_.AppendGroup(
      std::vector<PageImage>{delta_page(100), first, leader_image}, no_third);
  auto lsn2 = log_.AppendGroup(
      std::vector<PageImage>{second, tombstone, delta_page(200)}, no_third);
  ASSERT_TRUE(lsn1.ok() && lsn2.ok());
  const std::uint32_t newest_seq = nt_.seq_clock();

  // A fresh log and store, as after a crash: only the disk survives.
  obs::MetricsRegistry metrics;
  MediaHealth health(&disk_, &metrics);
  NtStore nt(&disk_, layout_, Config(), &metrics, &health);
  FsdLog log(&disk_, layout_.log_base, Config().log_sectors, &metrics);
  Recovery recovery(&disk_, layout_, Config(), &log, &nt, &health, &metrics);
  Replay replay;
  ASSERT_TRUE(recovery.CollectReplay(/*boot_count=*/2, /*keep_deltas=*/true,
                                     &replay)
                  .ok());
  ASSERT_EQ(replay.pages.size(), 1u);
  const PageImage& kept =
      replay.pages.at(layout_.NtHome(FsdLayout::kPrimary, pid));
  EXPECT_EQ(kept.data, second.data);
  EXPECT_EQ(kept.secondary, layout_.NtHome(FsdLayout::kReplica, pid));
  EXPECT_EQ(replay.pages.count(leader), 0u);
  ASSERT_EQ(replay.deltas.size(), 2u);
  EXPECT_EQ(replay.deltas[0].first, *lsn1);
  EXPECT_EQ(replay.deltas[0].second.start, 100u);
  EXPECT_EQ(replay.deltas[1].first, *lsn2);
  EXPECT_EQ(replay.deltas[1].second.start, 200u);
  EXPECT_EQ(nt.seq_clock(), newest_seq);  // merged from the replayed trailer
}

TEST_F(RecoveryTest, ADeltaPastTheVolumeFailsTheReplayAsCorrupt) {
  CEDAR_CHECK_OK(log_.Format(/*boot_count=*/1));
  const auto total = static_cast<std::uint32_t>(layout_.data_high);
  const PageImage bad{
      .kind = PageKind::kVamDelta,
      .data = SerializeDeltas(std::vector<VamDelta>{
          {.op = VamDelta::Op::kFree, .start = total - 1, .count = 2}})[0]};
  ASSERT_TRUE(log_.AppendGroup(std::vector<PageImage>{bad},
                               [](std::uint64_t) { return OkStatus(); })
                  .ok());
  Replay replay;
  EXPECT_EQ(recovery_.CollectReplay(2, /*keep_deltas=*/true, &replay).code(),
            ErrorCode::kCorruptMetadata);
  // The degraded mount skips delta pages, so the same log still replays.
  Replay pages_only;
  EXPECT_TRUE(recovery_.CollectReplay(2, /*keep_deltas=*/false, &pages_only)
                  .ok());
}

// A tree holding every kind of entry the walk must survive.
TEST_F(RecoveryTest, WalkReportsBadEntriesAndMarksOnlyInBoundsExtents) {
  btree::MemPageStore store(NtStore::kPayload);
  btree::BTree tree(&store, 0);
  ASSERT_TRUE(tree.Create().ok());
  const auto low = static_cast<std::uint32_t>(layout_.data_low);
  const auto total = static_cast<std::uint32_t>(layout_.data_high);
  auto put = [&](const std::string& name, std::uint32_t leader,
                 std::vector<fs::Extent> runs) {
    FsdEntry entry{.uid = 1, .leader_lba = leader, .runs = std::move(runs)};
    ASSERT_TRUE(
        tree.Insert(fs::EncodeNameKey(name, 1), SerializeEntry(entry)).ok());
  };
  put("good", low + 10, {{.start = low + 11, .count = 3}});
  put("far", total + 5, {{.start = low + 20, .count = 2}});
  put("tail", low + 30, {{.start = total - 1, .count = 4}});
  put("dup", low + 40, {{.start = low + 12, .count = 2}});
  put("inlog", static_cast<std::uint32_t>(layout_.log_base), {});
  ASSERT_TRUE(tree.Insert(fs::EncodeNameKey("junk", 1),
                          std::vector<std::uint8_t>{0xFF, 0xFF, 0xFF})
                  .ok());
  ASSERT_TRUE(
      tree.Insert(std::vector<std::uint8_t>{'k', 1, 2},
                  SerializeEntry(FsdEntry{.leader_lba = low, .runs = {}}))
          .ok());

  std::vector<std::string> visited;
  std::size_t pages_seen = 0;
  NtWalk walk;
  ASSERT_TRUE(WalkNameTable(
                  tree, layout_,
                  [&](std::span<const btree::PageId> live) {
                    pages_seen = live.size();
                    return OkStatus();
                  },
                  [&](const std::string& name, std::uint32_t version,
                      const FsdEntry&) {
                    visited.push_back(name + "!" + std::to_string(version));
                  },
                  &walk)
                  .ok());
  EXPECT_EQ(walk.live, std::vector<btree::PageId>{0});
  EXPECT_EQ(pages_seen, 1u);
  EXPECT_EQ(walk.entries, 5u);
  // Visits in key order, skipping entries whose leader is out of bounds.
  EXPECT_EQ(visited, (std::vector<std::string>{"dup!1", "good!1", "tail!1"}));

  std::map<NtWalk::Problem, std::vector<std::string>> found;
  for (const NtWalk::Finding& finding : walk.findings) {
    found[finding.problem].push_back(finding.detail);
  }
  using P = NtWalk::Problem;
  ASSERT_EQ(found[P::kOutOfBounds].size(), 3u);
  EXPECT_NE(found[P::kOutOfBounds][0].find("far!1 leader"), std::string::npos);
  EXPECT_NE(found[P::kOutOfBounds][1].find("inlog!1 leader"),
            std::string::npos);
  EXPECT_NE(found[P::kOutOfBounds][2].find("tail!1 run"), std::string::npos);
  ASSERT_EQ(found[P::kDoubleReferenced].size(), 2u);
  EXPECT_NE(found[P::kDoubleReferenced][0].find("sector " +
                                                std::to_string(low + 12)),
            std::string::npos);
  EXPECT_EQ(found[P::kEntryUnparsable],
            std::vector<std::string>{"junk!1: undecodable entry value"});
  EXPECT_EQ(found[P::kKeyUnparsable].size(), 1u);

  // good's leader and run, far's run, tail's leader, dup's leader and run.
  std::vector<std::uint32_t> marked;
  for (std::uint32_t lba = 0; lba < walk.referenced.size(); ++lba) {
    if (walk.referenced.Get(lba)) {
      marked.push_back(lba - low);
    }
  }
  EXPECT_EQ(marked, (std::vector<std::uint32_t>{10, 11, 12, 13, 20, 21, 30,
                                                40}));
}

TEST_F(RecoveryTest, ComparisonYieldsTheDeltasThatSettleTheMap) {
  Vam vam(static_cast<std::uint32_t>(layout_.data_high), Config().nt_pages);
  MarkAllFree(layout_, &vam);
  const auto low = static_cast<std::uint32_t>(layout_.data_low);
  vam.MarkUsed({.start = low + 1, .count = 2});  // low+2 is a leak
  vam.nt_free().Set(5, false);                   // page 5 is a leak
  Bitmap referenced(static_cast<std::uint32_t>(layout_.data_high));
  referenced.Set(low + 1, true);
  referenced.Set(low + 7, true);  // referenced but free
  const std::vector<btree::PageId> live = {0, 9};  // 0 and 9 marked free

  std::vector<VamDelta> fixes;
  CompareAllocation(vam, layout_, referenced, live,
                    [&](const VamDelta& fix) { fixes.push_back(fix); });
  auto is = [](const VamDelta& d, VamDelta::Op op, std::uint32_t at) {
    return d.op == op && d.start == at && d.count == 1;
  };
  ASSERT_EQ(fixes.size(), 5u);
  EXPECT_TRUE(is(fixes[0], VamDelta::Op::kFree, low + 2));
  EXPECT_TRUE(is(fixes[1], VamDelta::Op::kAlloc, low + 7));
  EXPECT_TRUE(is(fixes[2], VamDelta::Op::kNtAlloc, 0));
  EXPECT_TRUE(is(fixes[3], VamDelta::Op::kNtFree, 5));
  EXPECT_TRUE(is(fixes[4], VamDelta::Op::kNtAlloc, 9));
}

}  // namespace
}  // namespace cedar::core
