#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/allocator.h"
#include "src/core/fsd.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/crc32.h"
#include "src/util/random.h"
#include "src/workload/zipf.h"

namespace cedar::core {
namespace {

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return out;
}

FsdConfig SmallConfig() {
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  return config;
}

class FsdTest : public ::testing::Test {
 protected:
  FsdTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        fsd_(&disk_, SmallConfig()) {
    CEDAR_CHECK_OK(fsd_.Format());
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  Fsd fsd_;
};

TEST_F(FsdTest, CreateReadRoundTrip) {
  auto contents = Bytes(1300, 5);
  ASSERT_TRUE(fsd_.CreateFile("Foo.mesa", contents).ok());
  auto handle = fsd_.Open("Foo.mesa");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->byte_size, 1300u);
  std::vector<std::uint8_t> out(1300);
  ASSERT_TRUE(fsd_.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, contents);
}

// Re-stamps both volume-root copies with `magic`, as an older format wrote
// them: the root body is the magic, eight u32 fields and the clean flag,
// then its CRC, which is recomputed.
void RestampRootMagic(sim::SimDisk* disk, sim::Lba root, std::uint32_t magic) {
  std::vector<std::uint8_t> sector(512);
  ASSERT_TRUE(disk->Read(root, sector).ok());
  constexpr std::size_t kBody = 4 + 8 * 4 + 1;
  for (int i = 0; i < 4; ++i) {
    sector[i] = static_cast<std::uint8_t>(magic >> (8 * i));
  }
  const std::uint32_t crc =
      Crc32(std::span<const std::uint8_t>(sector).subspan(0, kBody));
  for (int i = 0; i < 4; ++i) {
    sector[kBody + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  for (const sim::Lba lba : {root, root + 2}) {
    ASSERT_TRUE(disk->Write(lba, sector).ok());
  }
}

// A volume written before name-table entries were varint-coded carries the
// root magic "FSDR". Its fixed-width entries would misparse, so Mount must
// refuse the volume at the root instead of reading the table.
TEST_F(FsdTest, OldEntryLayoutVolumeFailsMount) {
  ASSERT_TRUE(fsd_.CreateFile("old", Bytes(700, 3)).ok());
  ASSERT_TRUE(fsd_.Shutdown().ok());
  RestampRootMagic(&disk_, fsd_.layout().root_lba, 0x46534452);  // "FSDR"
  Fsd mounted(&disk_, SmallConfig());
  EXPECT_EQ(mounted.Mount().code(), ErrorCode::kCorruptMetadata);
}

// A volume written before the name table's copies shared band cylinders
// carries the root magic "FSDV": its pages sit in two regions on either
// side of the log, where NtHome no longer looks, so Mount must refuse it.
TEST_F(FsdTest, SeparatedCopiesLayoutVolumeFailsMount) {
  ASSERT_TRUE(fsd_.CreateFile("old", Bytes(700, 3)).ok());
  ASSERT_TRUE(fsd_.Shutdown().ok());
  RestampRootMagic(&disk_, fsd_.layout().root_lba, 0x46534456);  // "FSDV"
  Fsd mounted(&disk_, SmallConfig());
  EXPECT_EQ(mounted.Mount().code(), ErrorCode::kCorruptMetadata);
}

// The band follows the read-ahead cluster (half of TestGeometry's 224-sector
// cylinder rounded down to a cluster multiple), and the root records it. A
// config that plans the same band mounts the volume; Mount refuses one
// that would look for the pages elsewhere without writing, and the
// read-only degraded mount treats its root as unreadable, as it does any
// root of another volume.
TEST_F(FsdTest, MountRefusesAReadAheadThatMovesTheBand) {
  ASSERT_TRUE(fsd_.CreateFile("kept", Bytes(700, 3)).ok());
  ASSERT_TRUE(fsd_.Shutdown().ok());
  auto with_read_ahead = [](std::uint32_t pages) {
    FsdConfig config = SmallConfig();
    config.durability.nt_read_ahead_pages = pages;
    return config;
  };
  {
    Fsd moved(&disk_, with_read_ahead(3));  // band 111, not 112
    ASSERT_EQ(moved.layout().nt_band, 111u);
    const sim::DiskSnapshot before = disk_.Snapshot();
    const Status mounted = moved.Mount();
    EXPECT_EQ(mounted.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(mounted.message().find("band of 112"), std::string::npos)
        << mounted.message();
    EXPECT_TRUE(disk_.StateEquals(before));
    EXPECT_TRUE(moved.MountDegraded().ok());
    ASSERT_FALSE(moved.Health().notes.empty());
    EXPECT_NE(moved.Health().notes[0].find("volume root unreadable"),
              std::string::npos);
    EXPECT_TRUE(disk_.StateEquals(before));
  }
  Fsd same_band(&disk_, with_read_ahead(1));  // band 112, as formatted
  ASSERT_EQ(same_band.layout().nt_band, fsd_.layout().nt_band);
  ASSERT_TRUE(same_band.Mount().ok());
  auto handle = same_band.Open("kept");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(700);
  ASSERT_TRUE(same_band.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, Bytes(700, 3));
  EXPECT_TRUE(same_band.Shutdown().ok());
}

TEST_F(FsdTest, CreateIsOneSynchronousIo) {
  // The paper's headline: "A file create typically does one I/O
  // synchronously: the combination of the write of the leader and data
  // pages." (Typical = name table warm in cache.)
  ASSERT_TRUE(fsd_.CreateFile("warmup", Bytes(1, 0)).ok());
  disk_.ResetStats();
  ASSERT_TRUE(fsd_.CreateFile("one-byte", Bytes(1, 0)).ok());
  EXPECT_EQ(disk_.stats().TotalIos(), 1u);
  EXPECT_EQ(disk_.stats().writes, 1u);
  EXPECT_EQ(disk_.stats().sectors_written, 2u);  // leader + data page
}

TEST_F(FsdTest, OpenAndListAndDeleteDoNoIoWhenWarm) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        fsd_.CreateFile("dir/f" + std::to_string(i), Bytes(64, 1)).ok());
  }
  disk_.ResetStats();
  ASSERT_TRUE(fsd_.Open("dir/f7").ok());
  EXPECT_EQ(disk_.stats().TotalIos(), 0u);  // name table cached

  auto list = fsd_.List("dir/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 20u);
  EXPECT_EQ((*list)[0].byte_size, 64u);  // properties came with the names
  EXPECT_EQ(disk_.stats().TotalIos(), 0u);

  ASSERT_TRUE(fsd_.DeleteFile("dir/f3").ok());
  EXPECT_EQ(disk_.stats().TotalIos(), 0u);  // shadow free + cached tree
}

TEST_F(FsdTest, TouchIsPureMetadataHotSpot) {
  ASSERT_TRUE(fsd_.CreateFile("cached-remote", Bytes(100, 2)).ok());
  disk_.ResetStats();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fsd_.Touch("cached-remote").ok());
  }
  EXPECT_EQ(disk_.stats().TotalIos(), 0u);
}

TEST_F(FsdTest, GroupCommitForcesEveryHalfSecond) {
  ASSERT_TRUE(fsd_.CreateFile("a", Bytes(10, 0)).ok());
  EXPECT_TRUE(fsd_.HasPendingUpdates());
  clock_.Advance(600 * sim::kMillisecond);
  ASSERT_TRUE(fsd_.Tick().ok());
  EXPECT_FALSE(fsd_.HasPendingUpdates());
  EXPECT_GE(fsd_.SnapshotMetrics().CounterValue("fsd.forces"), 1u);
}

TEST_F(FsdTest, UpdatesWithinWindowShareOneLogWrite) {
  // Many updates inside one commit window produce one force with one set of
  // page images — the group-commit batching of section 5.4.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        fsd_.CreateFile("batch/f" + std::to_string(i), Bytes(32, 1)).ok());
  }
  auto records = [&] {
    return fsd_.SnapshotMetrics().FindHistogram("log.record_sectors")->count;
  };
  const std::uint64_t records_before = records();
  clock_.Advance(600 * sim::kMillisecond);
  ASSERT_TRUE(fsd_.Tick().ok());
  EXPECT_EQ(records(), records_before + 1);
}

TEST_F(FsdTest, ClientForceMakesUpdatesDurableImmediately) {
  ASSERT_TRUE(fsd_.CreateFile("must-persist", Bytes(10, 0)).ok());
  ASSERT_TRUE(fsd_.Force().ok());
  EXPECT_FALSE(fsd_.HasPendingUpdates());
}

TEST_F(FsdTest, DeletedPagesStayShadowedUntilCommit) {
  ASSERT_TRUE(fsd_.CreateFile("victim", Bytes(4096, 1)).ok());
  ASSERT_TRUE(fsd_.Force().ok());
  const std::uint32_t free_before = fsd_.FreeSectors();
  ASSERT_TRUE(fsd_.DeleteFile("victim").ok());
  // Not yet allocatable: the delete is uncommitted.
  EXPECT_EQ(fsd_.FreeSectors(), free_before);
  EXPECT_EQ(fsd_.ShadowSectors(), 9u);  // leader + 8 data pages
  ASSERT_TRUE(fsd_.Force().ok());
  EXPECT_EQ(fsd_.FreeSectors(), free_before + 9);
  EXPECT_EQ(fsd_.ShadowSectors(), 0u);
}

TEST_F(FsdTest, VersionsIncrementAndDeleteTakesHighest) {
  ASSERT_TRUE(fsd_.CreateFile("v", Bytes(10, 0)).ok());
  ASSERT_TRUE(fsd_.CreateFile("v", Bytes(20, 1)).ok());
  auto handle = fsd_.Open("v");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->version, 2u);
  ASSERT_TRUE(fsd_.DeleteFile("v").ok());
  handle = fsd_.Open("v");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->version, 1u);
}

TEST_F(FsdTest, ReadAtUnalignedOffsets) {
  auto contents = Bytes(3000, 9);
  ASSERT_TRUE(fsd_.CreateFile("u", contents).ok());
  auto handle = fsd_.Open("u");
  std::vector<std::uint8_t> out(1000);
  ASSERT_TRUE(fsd_.Read(*handle, 777, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), contents.begin() + 777));
}

TEST_F(FsdTest, WriteInPlaceAndReadBack) {
  ASSERT_TRUE(fsd_.CreateFile("w", Bytes(2048, 0)).ok());
  auto handle = fsd_.Open("w");
  auto patch = Bytes(300, 77);
  ASSERT_TRUE(fsd_.Write(*handle, 1000, patch).ok());
  std::vector<std::uint8_t> out(300);
  ASSERT_TRUE(fsd_.Read(*handle, 1000, out).ok());
  EXPECT_EQ(out, patch);
}

TEST_F(FsdTest, EmptyCreateThenWritePiggybacksLeader) {
  ASSERT_TRUE(fsd_.CreateFile("empty", {}).ok());
  auto handle = fsd_.Open("empty");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(fsd_.Extend(*handle, 1024).ok());
  disk_.ResetStats();
  ASSERT_TRUE(fsd_.Write(*handle, 0, Bytes(1024, 3)).ok());
  // One combined leader+data write.
  EXPECT_EQ(disk_.stats().writes, 1u);
  EXPECT_EQ(
      fsd_.SnapshotMetrics().CounterValue("fsd.piggyback_leader_writes"), 1u);
}

TEST_F(FsdTest, RepeatedExtendsGrowOneRun) {
  // "log" sits just below "other", which sits just below the name table,
  // so no append fits right after it; the appends must still share runs
  // instead of filling the 16-entry run table.
  ASSERT_TRUE(fsd_.CreateFile("other", Bytes(900, 1)).ok());
  ASSERT_TRUE(fsd_.CreateFile("log", Bytes(512, 2)).ok());
  auto handle = fsd_.Open("log");
  ASSERT_TRUE(handle.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fsd_.Extend(*handle, 512).ok()) << "append " << i;
  }
  disk_.ResetStats();
  std::vector<std::uint8_t> out(41 * 512);
  ASSERT_TRUE(fsd_.Read(*handle, 0, out).ok());
  EXPECT_LE(disk_.stats().reads, 2u);  // page 0's run, then the appends
}

TEST_F(FsdTest, FirstReadVerifiesLeaderByPiggyback) {
  ASSERT_TRUE(fsd_.CreateFile("check", Bytes(1024, 4)).ok());
  // Force a fresh open state and cold leader.
  auto handle = fsd_.Open("check");
  disk_.ResetStats();
  std::vector<std::uint8_t> out(1024);
  ASSERT_TRUE(fsd_.Read(*handle, 0, out).ok());
  // One read covering leader + both data pages.
  EXPECT_EQ(disk_.stats().reads, 1u);
  EXPECT_EQ(disk_.stats().sectors_read, 3u);
  EXPECT_EQ(
      fsd_.SnapshotMetrics().CounterValue("fsd.piggyback_leader_verifies"),
      1u);
  // Second read: no verification needed.
  disk_.ResetStats();
  ASSERT_TRUE(fsd_.Read(*handle, 0, out).ok());
  EXPECT_EQ(disk_.stats().sectors_read, 2u);
}

TEST_F(FsdTest, LeaderCatchesWildWrite) {
  ASSERT_TRUE(fsd_.CreateFile("smashed", Bytes(512, 5)).ok());
  ASSERT_TRUE(fsd_.Force().ok());
  // Find the leader (first sector of the file's allocation) and smash it.
  auto info = fsd_.Stat("smashed");
  ASSERT_TRUE(info.ok());
  // The volume's first small file (leader + page 0) fills the two sectors
  // just below the name-table replica; its leader is the lower one.
  disk_.WildWrite(RunAllocator::FirstSmallFileStart(fsd_.layout(), 2), 999);
  auto handle = fsd_.Open("smashed");
  ASSERT_TRUE(handle.ok());
  // The read detects the smashed leader, rebuilds it from the entry (the
  // entry is authoritative), and serves the data anyway — heal-and-serve.
  std::vector<std::uint8_t> out(512);
  EXPECT_TRUE(fsd_.Read(*handle, 0, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), Bytes(512, 5).begin()));
  const auto health = fsd_.Health();
  EXPECT_GE(health.corruption_detected, 1u);
  EXPECT_GE(health.repairs, 1u);
  // A second open+read sees the repaired leader: no further detection.
  auto handle2 = fsd_.Open("smashed");
  ASSERT_TRUE(handle2.ok());
  EXPECT_TRUE(fsd_.Read(*handle2, 0, out).ok());
  EXPECT_EQ(fsd_.Health().corruption_detected, health.corruption_detected);
}

TEST_F(FsdTest, ExtendUpdatesEntryAndLeader) {
  ASSERT_TRUE(fsd_.CreateFile("grow", Bytes(512, 1)).ok());
  auto handle = fsd_.Open("grow");
  ASSERT_TRUE(fsd_.Extend(*handle, 2048).ok());
  auto info = fsd_.Stat("grow");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->byte_size, 2560u);
  // Re-open and read across the extension; leader verification must still
  // pass (the leader was refreshed with the new run table).
  auto handle2 = fsd_.Open("grow");
  std::vector<std::uint8_t> out(2560);
  EXPECT_TRUE(fsd_.Read(*handle2, 0, out).ok());
  EXPECT_TRUE(
      std::equal(out.begin(), out.begin() + 512, Bytes(512, 1).begin()));
}

TEST_F(FsdTest, CleanShutdownAndRemountLoadsSavedVam) {
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(fsd_.CreateFile("p/f" + std::to_string(i), Bytes(600, 2)).ok());
  }
  const std::uint32_t free_before = fsd_.FreeSectors();
  ASSERT_TRUE(fsd_.Shutdown().ok());

  Fsd again(&disk_, SmallConfig());
  disk_.ResetStats();
  ASSERT_TRUE(again.Mount().ok());
  // Clean mount is cheap: root read, log format, VAM load — no tree scan.
  EXPECT_LT(disk_.stats().TotalIos(), 10u);
  EXPECT_EQ(again.FreeSectors(), free_before);

  auto handle = again.Open("p/f3");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(600);
  ASSERT_TRUE(again.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, Bytes(600, 2));
}

TEST_F(FsdTest, NameTablePageDamageRepairedFromReplica) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fsd_.CreateFile("r/f" + std::to_string(i), Bytes(100, 1)).ok());
  }
  ASSERT_TRUE(fsd_.Shutdown().ok());
  // Damage a primary name-table sector; the replica must silently repair.
  disk_.DamageSectors(fsd_.layout().NtHome(FsdLayout::kPrimary, 0), 2);

  Fsd again(&disk_, SmallConfig());
  ASSERT_TRUE(again.Mount().ok());
  auto list = again.List("r/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 40u);
  EXPECT_GE(again.SnapshotMetrics().CounterValue("fsd.nt_repairs"), 1u);
}

TEST_F(FsdTest, NameTableReplicaDamageAlsoRepaired) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fsd_.CreateFile("r/f" + std::to_string(i), Bytes(100, 1)).ok());
  }
  ASSERT_TRUE(fsd_.Shutdown().ok());
  disk_.DamageSectors(fsd_.layout().NtHome(FsdLayout::kReplica, 0), 2);
  Fsd again(&disk_, SmallConfig());
  ASSERT_TRUE(again.Mount().ok());
  auto list = again.List("r/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 40u);
  // The damaged replica sectors were rewritten; both copies readable now.
  std::vector<std::uint8_t> buf(512);
  EXPECT_TRUE(
      disk_.Read(fsd_.layout().NtHome(FsdLayout::kReplica, 0), buf).ok());
}

TEST_F(FsdTest, BigFilesAtEdgeSmallFilesNextToNameTable) {
  const auto small = Bytes(1024, 1);
  const auto big = Bytes(100 * 512, 2);  // >= threshold
  ASSERT_TRUE(fsd_.CreateFile("small", small).ok());
  ASSERT_TRUE(fsd_.CreateFile("big", big).ok());
  ASSERT_TRUE(fsd_.Force().ok());
  // Read the data pages straight off the disk. The small file (leader + 2
  // pages) ends just below the name-table replica; the big one (leader +
  // 100 pages) ends at the volume's last sector.
  const FsdLayout& layout = fsd_.layout();
  std::vector<std::uint8_t> out(small.size());
  ASSERT_TRUE(
      disk_.Read(RunAllocator::FirstSmallFileStart(layout, 2), out).ok());
  EXPECT_EQ(out, small);
  out.resize(big.size());
  ASSERT_TRUE(disk_.Read(layout.data_high - 100, out).ok());
  EXPECT_EQ(out, big);
}

TEST_F(FsdTest, LargeFileContentsSurvive) {
  auto contents = Bytes(300 * 512, 6);
  ASSERT_TRUE(fsd_.CreateFile("large", contents).ok());
  auto handle = fsd_.Open("large");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(contents.size());
  ASSERT_TRUE(fsd_.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, contents);
}

TEST_F(FsdTest, NameTableFullFailsCleanly) {
  // Fill the name table until inserts are refused; every previously created
  // file must remain reachable (regression: a mid-split allocation failure
  // used to orphan a freshly written sibling leaf).
  std::vector<std::string> created;
  for (int i = 0; i < 100000; ++i) {
    const std::string name = "full/file-" + std::to_string(100000 + i);
    auto result = fsd_.CreateFile(name, Bytes(64, 1));
    if (!result.ok()) {
      ASSERT_EQ(result.status().code(), ErrorCode::kNoFreeSpace);
      break;
    }
    created.push_back(name);
  }
  ASSERT_GT(created.size(), 100u);
  ASSERT_LT(created.size(), 100000u) << "name table never filled";
  ASSERT_TRUE(fsd_.CheckNameTableInvariants().ok());
  for (const std::string& name : created) {
    EXPECT_TRUE(fsd_.Open(name).ok()) << name;
  }
  // Deleting makes room again.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fsd_.DeleteFile(created[i]).ok());
  }
  ASSERT_TRUE(fsd_.Force().ok());
  EXPECT_TRUE(fsd_.CreateFile("full/after", Bytes(64, 2)).ok());
}

TEST_F(FsdTest, NameTableInvariantsHoldUnderChurn) {
  Rng rng(777);
  for (int step = 0; step < 500; ++step) {
    const std::string name = "churn/f" + std::to_string(rng.Below(60));
    if (rng.Chance(0.6)) {
      ASSERT_TRUE(fsd_.CreateFile(name, Bytes(rng.Between(1, 2000),
                                              static_cast<std::uint8_t>(step)))
                      .ok());
    } else {
      Status s = fsd_.DeleteFile(name);
      ASSERT_TRUE(s.ok() || s.code() == ErrorCode::kNotFound);
    }
    clock_.Advance(50 * sim::kMillisecond);
  }
  ASSERT_TRUE(fsd_.CheckNameTableInvariants().ok());
}

TEST_F(FsdTest, StressWithOracleAcrossCommitWindows) {
  Rng rng(1234);
  std::map<std::string, std::vector<std::uint8_t>> oracle;
  for (int step = 0; step < 400; ++step) {
    const std::string name = "s/f" + std::to_string(rng.Below(30));
    const std::uint64_t op = rng.Below(10);
    if (op < 5) {
      auto contents =
          Bytes(rng.Between(1, 4000), static_cast<std::uint8_t>(step));
      ASSERT_TRUE(fsd_.CreateFile(name, contents).ok());
      oracle[name] = contents;
    } else if (op < 7) {
      Status s = fsd_.DeleteFile(name);
      if (oracle.count(name)) {
        ASSERT_TRUE(s.ok());
        auto reopened = fsd_.Open(name);
        if (reopened.ok()) {
          std::vector<std::uint8_t> out(reopened->byte_size);
          ASSERT_TRUE(fsd_.Read(*reopened, 0, out).ok());
          oracle[name] = out;
        } else {
          oracle.erase(name);
        }
      } else {
        EXPECT_EQ(s.code(), ErrorCode::kNotFound);
      }
    } else {
      auto handle = fsd_.Open(name);
      auto it = oracle.find(name);
      ASSERT_EQ(handle.ok(), it != oracle.end()) << name;
      if (handle.ok()) {
        std::vector<std::uint8_t> out(handle->byte_size);
        ASSERT_TRUE(fsd_.Read(*handle, 0, out).ok());
        EXPECT_EQ(out, it->second);
      }
    }
    clock_.Advance(rng.Between(10, 200) * sim::kMillisecond);
  }
  // Everything must also survive an orderly shutdown + remount.
  ASSERT_TRUE(fsd_.Shutdown().ok());
  Fsd again(&disk_, SmallConfig());
  ASSERT_TRUE(again.Mount().ok());
  for (const auto& [name, contents] : oracle) {
    auto handle = again.Open(name);
    ASSERT_TRUE(handle.ok()) << name;
    std::vector<std::uint8_t> out(handle->byte_size);
    ASSERT_TRUE(again.Read(*handle, 0, out).ok());
    EXPECT_EQ(out, contents) << name;
  }
}

// The same volume with a page cache that classes every frame a leaf: the
// victim order of a plain LRU, for comparison.
class AllLeafFsd : public Fsd {
 public:
  AllLeafFsd(sim::BlockDevice* disk, FsdConfig config)
      : Fsd(disk, config, /*interior=*/nullptr) {}
};

struct NtMisses {
  std::uint64_t interior = 0;
  std::uint64_t leaf = 0;
  std::uint64_t nt_pages = 0;
};

// Zipf Stat lookups over a name table several times larger than a
// 512-frame cache. Warm-up lists every name once (each tree page enters
// the cache) and runs as many lookups as the measured phase; the result is
// the measured phase's name-table misses.
NtMisses ZipfLookupMisses(bool all_leaf) {
  constexpr std::uint32_t kFiles = 8000;
  constexpr int kLookups = 10000;
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::DiskGeometry{.cylinders = 120},
                    sim::DiskTimingParams{}, &clock);
  FsdConfig config;
  config.nt_pages = 2048;
  config.cache_frames = 512;
  std::unique_ptr<Fsd> fsd = all_leaf
                                 ? std::make_unique<AllLeafFsd>(&disk, config)
                                 : std::make_unique<Fsd>(&disk, config);
  CEDAR_CHECK_OK(fsd->Format());
  auto name = [](std::uint32_t i) {
    return "zipf/dir" + std::to_string(i % 37) + "/file" + std::to_string(i);
  };
  for (std::uint32_t i = 0; i < kFiles; ++i) {
    CEDAR_CHECK_OK(fsd->CreateFile(name(i), Bytes(1, 0)).status());
  }
  CEDAR_CHECK_OK(fsd->Shutdown());
  CEDAR_CHECK_OK(fsd->Mount());  // clean: the name table is read lazily

  workload::ZipfSampler zipf(kFiles, 0.9);
  Rng rng(42);
  auto lookups = [&] {
    for (int i = 0; i < kLookups; ++i) {
      // Scatter the popular ranks over the key space.
      const auto file = static_cast<std::uint32_t>(
          (std::uint64_t{zipf.Sample(rng)} * 7919) % kFiles);
      CEDAR_CHECK_OK(fsd->Stat(name(file)).status());
    }
  };
  auto counter = [&](const char* counter_name) {
    return fsd->Metrics().FindCounter(counter_name)->value();
  };
  CEDAR_CHECK(fsd->List("zipf/").ok());
  lookups();
  const std::uint64_t interior = counter("nt.misses_interior");
  const std::uint64_t leaf = counter("nt.misses_leaf");
  lookups();
  NtMisses out{.interior = counter("nt.misses_interior") - interior,
               .leaf = counter("nt.misses_leaf") - leaf};
  auto report = fsd->Fsck();
  CEDAR_CHECK_OK(report.status());
  out.nt_pages = report->nt_pages_checked;
  return out;
}

// The page cache keeps the name table's interior pages: after warm-up no
// lookup misses on one, and the lookups miss less in total than under the
// plain LRU order, which evicts the tree's upper levels.
TEST(FsdBoundedCacheTest, InteriorPagesStayCachedUnderZipfLookups) {
  const NtMisses kept = ZipfLookupMisses(/*all_leaf=*/false);
  const NtMisses lru = ZipfLookupMisses(/*all_leaf=*/true);
  EXPECT_GE(kept.nt_pages, 3u * 512u);
  EXPECT_EQ(kept.nt_pages, lru.nt_pages);
  EXPECT_EQ(kept.interior, 0u);
  EXPECT_GT(lru.interior, 0u);
  EXPECT_LT(kept.interior + kept.leaf, lru.interior + lru.leaf);
  std::printf("nt pages %llu; measured misses: interior-kept %llu+%llu, "
              "all-leaf %llu+%llu\n",
              static_cast<unsigned long long>(kept.nt_pages),
              static_cast<unsigned long long>(kept.interior),
              static_cast<unsigned long long>(kept.leaf),
              static_cast<unsigned long long>(lru.interior),
              static_cast<unsigned long long>(lru.leaf));
}

}  // namespace
}  // namespace cedar::core
