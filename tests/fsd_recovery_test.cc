// Crash-recovery tests for FSD: the paper's section 5.8 robustness claims
// and section 5.9 recovery behaviour, exercised with fault injection.
//
// The durability contract under test:
//   - anything forced (Force()/group-commit fired) survives any crash;
//   - anything not yet forced may be lost — but the file system is always
//     structurally consistent after Mount() (tree invariants hold, the VAM
//     matches the name table, no file's data is cross-corrupted);
//   - one- or two-sector damage anywhere hurts at most one file.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/btree/btree.h"
#include "src/core/fsd.h"
#include "src/fsapi/name_key.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/random.h"

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

class FsdRecoveryTest : public ::testing::Test {
 protected:
  FsdRecoveryTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        fsd_(std::make_unique<Fsd>(&disk_, SmallConfig())) {
    CEDAR_CHECK_OK(fsd_->Format());
  }

  // Simulates a crash: drops all volatile state and re-mounts a fresh
  // instance against the surviving disk image.
  Fsd& CrashAndRemount() {
    disk_.CrashNow();
    disk_.Reopen();
    fsd_ = std::make_unique<Fsd>(&disk_, SmallConfig());
    CEDAR_CHECK_OK(fsd_->Mount());
    return *fsd_;
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  std::unique_ptr<Fsd> fsd_;
};

TEST_F(FsdRecoveryTest, ForcedCreateSurvivesCrash) {
  ASSERT_TRUE(fsd_->CreateFile("durable", Bytes(1000, 3)).ok());
  ASSERT_TRUE(fsd_->Force().ok());

  Fsd& after = CrashAndRemount();
  auto handle = after.Open("durable");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(1000);
  ASSERT_TRUE(after.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, Bytes(1000, 3));
}

TEST_F(FsdRecoveryTest, UnforcedCreateMayVanishButNothingBreaks) {
  ASSERT_TRUE(fsd_->CreateFile("committed", Bytes(100, 1)).ok());
  ASSERT_TRUE(fsd_->Force().ok());
  ASSERT_TRUE(fsd_->CreateFile("volatile", Bytes(100, 2)).ok());
  // No force: at most half a second of work is at risk (section 5.4).

  Fsd& after = CrashAndRemount();
  EXPECT_TRUE(after.Open("committed").ok());
  EXPECT_EQ(after.Open("volatile").status().code(), ErrorCode::kNotFound);
  EXPECT_TRUE(after.CheckNameTableInvariants().ok());
  // The lost file's sectors were reclaimed by the VAM rebuild.
  ASSERT_TRUE(after.CreateFile("reuse", Bytes(100, 3)).ok());
}

TEST_F(FsdRecoveryTest, ForcedDeleteSurvivesCrash) {
  ASSERT_TRUE(fsd_->CreateFile("doomed", Bytes(100, 1)).ok());
  ASSERT_TRUE(fsd_->Force().ok());
  ASSERT_TRUE(fsd_->DeleteFile("doomed").ok());
  ASSERT_TRUE(fsd_->Force().ok());

  Fsd& after = CrashAndRemount();
  EXPECT_EQ(after.Open("doomed").status().code(), ErrorCode::kNotFound);
}

TEST_F(FsdRecoveryTest, UnforcedDeleteRollsBack) {
  ASSERT_TRUE(fsd_->CreateFile("phoenix", Bytes(700, 4)).ok());
  ASSERT_TRUE(fsd_->Force().ok());
  ASSERT_TRUE(fsd_->DeleteFile("phoenix").ok());
  // Crash before the delete commits: the file must come back intact —
  // which is also why its pages sat in the shadow map, unavailable for
  // reallocation.
  Fsd& after = CrashAndRemount();
  auto handle = after.Open("phoenix");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(700);
  ASSERT_TRUE(after.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, Bytes(700, 4));
}

TEST_F(FsdRecoveryTest, TornLogWriteLosesOnlyTheTornBatch) {
  ASSERT_TRUE(fsd_->CreateFile("safe", Bytes(200, 1)).ok());
  ASSERT_TRUE(fsd_->Force().ok());

  ASSERT_TRUE(fsd_->CreateFile("torn", Bytes(200, 2)).ok());
  // The next force's log write is torn after 2 sectors.
  disk_.ArmCrash(sim::CrashPlan{.at_write_index = 0,
                                .sectors_completed = 2,
                                .sectors_damaged = 2,
                                .drop_writes = {}});
  EXPECT_EQ(fsd_->Force().code(), ErrorCode::kDeviceCrashed);

  disk_.Reopen();
  fsd_ = std::make_unique<Fsd>(&disk_, SmallConfig());
  ASSERT_TRUE(fsd_->Mount().ok());
  EXPECT_TRUE(fsd_->Open("safe").ok());
  EXPECT_EQ(fsd_->Open("torn").status().code(), ErrorCode::kNotFound);
  EXPECT_TRUE(fsd_->CheckNameTableInvariants().ok());
}

TEST_F(FsdRecoveryTest, MultiPageTreeUpdateIsAtomicAcrossCrash) {
  // Load the tree until inserts cause splits (multi-page updates), force,
  // then crash. CFS could tear these; FSD must not.
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(
        fsd_->CreateFile("atomic/f" + std::to_string(1000 + i), Bytes(40, 1))
            .ok());
  }
  ASSERT_TRUE(fsd_->Force().ok());
  Fsd& after = CrashAndRemount();
  ASSERT_TRUE(after.CheckNameTableInvariants().ok());
  auto list = after.List("atomic/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 120u);
}

TEST_F(FsdRecoveryTest, RecoveryIsIdempotentAcrossRepeatedCrashes) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        fsd_->CreateFile("i/f" + std::to_string(i), Bytes(100, 1)).ok());
  }
  ASSERT_TRUE(fsd_->Force().ok());
  // Crash, recover, crash again immediately, recover again.
  CrashAndRemount();
  Fsd& after = CrashAndRemount();
  auto list = after.List("i/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 30u);
  EXPECT_TRUE(after.CheckNameTableInvariants().ok());
}

TEST_F(FsdRecoveryTest, CrashAfterAnIdleCleanMountReplaysNothing) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        fsd_->CreateFile("c/f" + std::to_string(i), Bytes(700, 3)).ok());
  }
  ASSERT_TRUE(fsd_->Force().ok());
  ASSERT_TRUE(fsd_->Shutdown().ok());
  // A clean mount formats the log and writes no record before the crash;
  // the previous boot's records still sit in the log area.
  fsd_ = std::make_unique<Fsd>(&disk_, SmallConfig());
  ASSERT_TRUE(fsd_->Mount().ok());
  Fsd& after = CrashAndRemount();
  EXPECT_EQ(after.SnapshotMetrics().CounterValue("fsd.recovery_pages_replayed"),
            0u);
  auto list = after.List("c/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 20u);
}

TEST_F(FsdRecoveryTest, ForcedUpdatesOfBothBootsSurviveAChainSpanningBoots) {
  ASSERT_TRUE(fsd_->CreateFile("boot1", Bytes(600, 1)).ok());
  ASSERT_TRUE(fsd_->Force().ok());
  // The crash mount continues boot 1's chain; its records carry boot 2.
  CrashAndRemount();
  ASSERT_TRUE(fsd_->CreateFile("boot2", Bytes(600, 2)).ok());
  ASSERT_TRUE(fsd_->Force().ok());
  Fsd& after = CrashAndRemount();
  EXPECT_GT(after.SnapshotMetrics().CounterValue("fsd.recovery_pages_replayed"),
            0u);
  for (const auto& [name, seed] : {std::pair{"boot1", 1}, {"boot2", 2}}) {
    auto handle = after.Open(name);
    ASSERT_TRUE(handle.ok()) << name;
    std::vector<std::uint8_t> out(600);
    ASSERT_TRUE(after.Read(*handle, 0, out).ok());
    EXPECT_EQ(out, Bytes(600, static_cast<std::uint8_t>(seed)));
  }
}

TEST_F(FsdRecoveryTest, DeletedLeaderTombstoneProtectsReallocatedSector) {
  // Create F, force (leader image enters the log via... the leader was
  // piggybacked, so use a zero-length create whose leader IS logged).
  ASSERT_TRUE(fsd_->CreateFile("F", {}).ok());
  ASSERT_TRUE(fsd_->Force().ok());  // F's leader image is in the log
  ASSERT_TRUE(fsd_->DeleteFile("F").ok());
  ASSERT_TRUE(fsd_->Force().ok());  // delete commits; sector reusable
  // G reuses F's sector (small files pack down from the name table, so
  // G's run ends where F's leader was).
  ASSERT_TRUE(fsd_->CreateFile("G", Bytes(1500, 9)).ok());
  ASSERT_TRUE(fsd_->Force().ok());

  Fsd& after = CrashAndRemount();
  // Replay must NOT have written F's dead leader over G's pages.
  auto handle = after.Open("G");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(1500);
  ASSERT_TRUE(after.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, Bytes(1500, 9));
}

// The first Extend of an empty file moves its leader next to the new
// pages. The old leader's image is buffered and in the log; neither copy
// may come back over the sector's next owner, and the moved file must
// read back whole.
TEST_F(FsdRecoveryTest, LeaderMovedByFirstExtendSurvivesCrash) {
  // Small files pack down from the name table: A, then E's leader, then B.
  ASSERT_TRUE(fsd_->CreateFile("A", Bytes(512, 1)).ok());
  ASSERT_TRUE(fsd_->CreateFile("E", {}).ok());
  ASSERT_TRUE(fsd_->CreateFile("B", Bytes(512, 2)).ok());
  ASSERT_TRUE(fsd_->Force().ok());  // E's first leader image is in the log
  ASSERT_TRUE(fsd_->DeleteFile("A").ok());
  ASSERT_TRUE(fsd_->Force().ok());
  // A's two sectors are too few for E's leader + 3 pages, so E moves
  // below B, and A's sectors plus E's old leader form a 3-sector hole.
  auto handle = fsd_->Open("E");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(fsd_->Extend(*handle, 1500).ok());
  ASSERT_TRUE(fsd_->Write(*handle, 0, Bytes(1500, 4)).ok());
  ASSERT_TRUE(fsd_->Force().ok());
  // G (leader + 2 pages) fills that hole, its leader on E's old sector.
  ASSERT_TRUE(fsd_->CreateFile("G", Bytes(1000, 9)).ok());
  ASSERT_TRUE(fsd_->Force().ok());

  Fsd& after = CrashAndRemount();
  for (const auto& [name, want] :
       {std::pair{"E", Bytes(1500, 4)}, std::pair{"G", Bytes(1000, 9)},
        std::pair{"B", Bytes(512, 2)}}) {
    auto file = after.Open(name);
    ASSERT_TRUE(file.ok()) << name;
    std::vector<std::uint8_t> out(want.size());
    ASSERT_TRUE(after.Read(*file, 0, out).ok()) << name;
    EXPECT_EQ(out, want) << name;
  }
  EXPECT_EQ(after.Health().corruption_detected, 0u);
  auto report = after.Fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->violations(), 0u);
}

TEST_F(FsdRecoveryTest, VamRebuildMatchesNameTable) {
  Rng rng(55);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(fsd_->CreateFile("m/f" + std::to_string(i),
                                 Bytes(rng.Between(1, 5000),
                                       static_cast<std::uint8_t>(i)))
                    .ok());
  }
  for (int i = 0; i < 60; i += 3) {
    ASSERT_TRUE(fsd_->DeleteFile("m/f" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(fsd_->Force().ok());
  const std::uint32_t free_live = fsd_->FreeSectors();

  Fsd& after = CrashAndRemount();
  // The rebuilt VAM must agree exactly with the live one: same free count.
  EXPECT_EQ(after.FreeSectors(), free_live);
}

// The VAM rebuild reads the name table once, in the mount's preload sweep:
// a cache far smaller than the table costs the mount no extra disk reads,
// and the rebuilt VAM is the same.
TEST(FsdRebuildCacheTest, SmallCacheMountReadsNameTableOnce) {
  FsdConfig config = SmallConfig();
  config.nt_pages = 1024;
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  std::uint32_t free_live = 0;
  {
    Fsd fsd(&disk, config);
    ASSERT_TRUE(fsd.Format().ok());
    for (int i = 0; i < 1500; ++i) {
      ASSERT_TRUE(
          fsd.CreateFile("pin/f" + std::to_string(i), Bytes(100, 3)).ok());
    }
    ASSERT_TRUE(fsd.Force().ok());
    free_live = fsd.FreeSectors();
    disk.CrashNow();
  }
  const sim::DiskSnapshot crashed = disk.Snapshot();

  struct MountResult {
    std::uint64_t reads = 0;
    std::uint32_t free = 0;
    std::uint64_t nt_pages = 0;
  };
  auto mount_with = [&](std::size_t frames) {
    disk.Restore(crashed);
    disk.Reopen();
    FsdConfig small = config;
    small.cache_frames = frames;
    Fsd fsd(&disk, small);
    MountResult result;
    const std::uint64_t before = disk.stats().reads;
    EXPECT_TRUE(fsd.Mount().ok());
    result.reads = disk.stats().reads - before;
    result.free = fsd.FreeSectors();
    auto report = fsd.Fsck();
    EXPECT_TRUE(report.ok());
    if (report.ok()) {
      EXPECT_EQ(report->violations(), 0u);
      result.nt_pages = report->nt_pages_checked;
    }
    return result;
  };
  const MountResult big = mount_with(1024);
  const MountResult small = mount_with(16);
  EXPECT_GE(big.nt_pages, 200u) << "the name table must dwarf 16 frames";
  EXPECT_EQ(small.reads, big.reads);
  EXPECT_EQ(small.free, big.free);
  EXPECT_EQ(big.free, free_live);
}

TEST_F(FsdRecoveryTest, CrashDuringThirdFlushIsSafe) {
  // Drive enough commits to wrap the log and trigger third flushes, with a
  // crash armed in the middle of the churn.
  Rng rng(66);
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(fsd_->CreateFile("w/f" + std::to_string(rng.Below(50)),
                                   Bytes(100, static_cast<std::uint8_t>(i)))
                      .ok());
    }
    clock_.Advance(600 * sim::kMillisecond);
    ASSERT_TRUE(fsd_->Tick().ok());
  }
  EXPECT_GE(fsd_->SnapshotMetrics().CounterValue("log.third_entries"), 1u);
  ASSERT_TRUE(fsd_->Force().ok());
  auto live = fsd_->List("w/");
  ASSERT_TRUE(live.ok());

  Fsd& after = CrashAndRemount();
  auto recovered = after.List("w/");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->size(), live->size());
  EXPECT_TRUE(after.CheckNameTableInvariants().ok());
}

TEST_F(FsdRecoveryTest, DamagedNtSectorDuringRecoveryMount) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fsd_->CreateFile("d/f" + std::to_string(i), Bytes(80, 1)).ok());
  }
  ASSERT_TRUE(fsd_->Force().ok());
  disk_.CrashNow();
  disk_.Reopen();
  // A medium error on a primary name-table sector on top of the crash.
  disk_.DamageSectors(fsd_->layout().NtHome(FsdLayout::kPrimary, 1), 1);
  fsd_ = std::make_unique<Fsd>(&disk_, SmallConfig());
  ASSERT_TRUE(fsd_->Mount().ok());
  auto list = fsd_->List("d/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 50u);
}

// A page store over the name table's home copies, straight on the disk:
// lets a test put a CRC-valid entry into the table that no FSD operation
// would write.
class HomeCopyPages : public btree::PageStore {
 public:
  explicit HomeCopyPages(NtStore* nt, sim::BlockDevice* disk)
      : nt_(nt), disk_(disk) {}
  std::uint32_t page_size() const override { return NtStore::kPayload; }
  Status ReadPage(btree::PageId id, std::span<std::uint8_t> out) override {
    CEDAR_ASSIGN_OR_RETURN(const NtStore::Copies copies,
                           nt_->ReadCopies(id, nullptr));
    std::copy_n(copies.winner().begin(), NtStore::kPayload, out.begin());
    return OkStatus();
  }
  Status WritePage(btree::PageId id,
                   std::span<const std::uint8_t> data) override {
    const std::vector<std::uint8_t> sector = nt_->Compose(data);
    CEDAR_RETURN_IF_ERROR(disk_->Write(nt_->HomesOf(id).primary, sector));
    return disk_->Write(nt_->HomesOf(id).replica, sector);
  }
  Result<btree::PageId> AllocatePage() override {
    return MakeError(ErrorCode::kNoFreeSpace, "planting never splits");
  }
  Status FreePage(btree::PageId) override { return OkStatus(); }
  bool CanAllocate(std::uint32_t) override { return true; }

 private:
  NtStore* nt_;
  sim::BlockDevice* disk_;
};

// An entry whose leader and run lie past the end of the volume: the crash
// mount's rebuild notes it instead of aborting, Fsck reports both extents,
// and Scrub counts them unrepairable.
TEST_F(FsdRecoveryTest, AnEntryPastTheVolumeIsNotedNotFatal) {
  ASSERT_TRUE(fsd_->CreateFile("kept", Bytes(900, 4)).ok());
  ASSERT_TRUE(fsd_->Shutdown().ok());
  {
    const FsdLayout layout =
        FsdLayout::Compute(disk_.geometry(), SmallConfig());
    obs::MetricsRegistry metrics;
    MediaHealth health(&disk_, &metrics);
    NtStore nt(&disk_, layout, SmallConfig(), &metrics, &health);
    HomeCopyPages pages(&nt, &disk_);
    btree::BTree tree(&pages, /*root=*/0);
    const auto total = static_cast<std::uint32_t>(layout.data_high);
    const FsdEntry bad{.uid = 77,
                       .leader_lba = total + 3,
                       .runs = {{.start = total - 2, .count = 5}}};
    const Status planted =
        tree.Insert(fs::EncodeNameKey("bad", 1), SerializeEntry(bad));
    ASSERT_TRUE(planted.ok()) << planted.message();
  }
  fsd_ = std::make_unique<Fsd>(&disk_, SmallConfig());
  ASSERT_TRUE(fsd_->Mount().ok());  // clean: the saved VAM, no walk

  Fsd& after = CrashAndRemount();  // unclean: the rebuild walks the table
  const fs::HealthStats health = after.Health();
  std::size_t noted = 0;
  for (const std::string& note : health.notes) {
    noted += note.find("lies outside the file data region") !=
             std::string::npos;
  }
  EXPECT_EQ(noted, 2u);
  auto handle = after.Open("kept");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(900);
  ASSERT_TRUE(after.Read(*handle, 0, out).ok());
  EXPECT_EQ(out, Bytes(900, 4));

  auto fsck = after.Fsck();
  ASSERT_TRUE(fsck.ok());
  std::size_t out_of_bounds = 0;
  for (const FsckIssue& issue : fsck->issues) {
    out_of_bounds += issue.code == "extent-out-of-bounds";
  }
  EXPECT_EQ(out_of_bounds, 2u) << fsck->Summary();

  auto scrub = after.Scrub();
  ASSERT_TRUE(scrub.ok());
  EXPECT_EQ(scrub->unrepairable, 2u);
  EXPECT_EQ(scrub->files_checked, 2u);
}

// The root names the volume's geometry; a config that disagrees describes
// another volume. Mount refuses it without writing, naming both sizes;
// the degraded mount treats it as an unreadable root.
TEST_F(FsdRecoveryTest, MountWithAnotherNameTableSizeFailsAndWritesNothing) {
  ASSERT_TRUE(fsd_->CreateFile("kept", Bytes(700, 9)).ok());
  ASSERT_TRUE(fsd_->Shutdown().ok());
  FsdConfig other = SmallConfig();
  other.nt_pages = 128;
  const sim::DiskSnapshot before = disk_.Snapshot();
  {
    Fsd wrong(&disk_, other);
    const Status mounted = wrong.Mount();
    EXPECT_EQ(mounted.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(mounted.message().find("nt_pages 256"), std::string::npos)
        << mounted.message();
    EXPECT_NE(mounted.message().find("nt_pages 128"), std::string::npos);
    EXPECT_TRUE(disk_.StateEquals(before));

    EXPECT_TRUE(wrong.MountDegraded().ok());
    ASSERT_FALSE(wrong.Health().notes.empty());
    EXPECT_NE(wrong.Health().notes[0].find("volume root unreadable"),
              std::string::npos);
    EXPECT_TRUE(disk_.StateEquals(before));
  }
  fsd_ = std::make_unique<Fsd>(&disk_, SmallConfig());
  ASSERT_TRUE(fsd_->Mount().ok());
  auto handle = fsd_->Open("kept");
  ASSERT_TRUE(handle.ok());
  std::vector<std::uint8_t> out(700);
  ASSERT_TRUE(fsd_->Read(*handle, 0, out).ok());
  EXPECT_EQ(out, Bytes(700, 9));
}

// A sealed record is replayed only to the homes the force path logs. One
// that names the volume root passes every CRC, so it is the home check that
// refuses it: the mount fails before Redo writes anything, and the degraded
// mount notes the log as unreadable and skips the replay.
TEST_F(FsdRecoveryTest, RecordNamingTheRootIsRefusedAndTheRootKept) {
  ASSERT_TRUE(fsd_->CreateFile("kept", Bytes(700, 9)).ok());
  ASSERT_TRUE(fsd_->Force().ok());
  disk_.CrashNow();
  disk_.Reopen();
  const FsdLayout layout = fsd_->layout();
  {
    obs::MetricsRegistry metrics;
    FsdLog log(&disk_, layout.log_base, SmallConfig().log_sectors, &metrics);
    ASSERT_TRUE(
        log.Recover([](std::uint64_t, auto&) { return OkStatus(); }, 1000)
            .ok());
    const PageImage forged{.primary = layout.root_lba,
                           .data = std::vector<std::uint8_t>(512, 0xEE)};
    ASSERT_TRUE(log.AppendGroup({&forged, 1}, [](std::uint64_t) {
                     return OkStatus();
                   }).ok());
  }
  std::vector<std::uint8_t> root(3 * 512);
  ASSERT_TRUE(disk_.Read(layout.root_lba, root).ok());
  const sim::DiskSnapshot before = disk_.Snapshot();

  fsd_ = std::make_unique<Fsd>(&disk_, SmallConfig());
  const Status mounted = fsd_->Mount();
  EXPECT_EQ(mounted.code(), ErrorCode::kCorruptMetadata) << mounted.message();
  EXPECT_NE(mounted.message().find("home lba " +
                                   std::to_string(layout.root_lba)),
            std::string::npos)
      << mounted.message();
  EXPECT_TRUE(disk_.StateEquals(before));
  std::vector<std::uint8_t> after(3 * 512);
  ASSERT_TRUE(disk_.Read(layout.root_lba, after).ok());
  EXPECT_EQ(after, root);

  ASSERT_TRUE(fsd_->MountDegraded().ok());
  bool noted = false;
  for (const std::string& note : fsd_->Health().notes) {
    noted = noted || note.find("log unreadable") != std::string::npos;
  }
  EXPECT_TRUE(noted) << "no note names the refused log";
  EXPECT_TRUE(disk_.StateEquals(before));
}

// The crash matrix: run a scripted workload, crash after every k-th disk
// write, remount, and check the durability contract. This sweeps the crash
// point across log writes, pointer writes, home writes, and data writes.
class FsdCrashMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(FsdCrashMatrixTest, ConsistentAfterCrashAtAnyWrite) {
  const int crash_write = GetParam();
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  auto fsd = std::make_unique<Fsd>(&disk, SmallConfig());
  ASSERT_TRUE(fsd->Format().ok());

  // Baseline: files created and forced before the crash is armed.
  std::map<std::string, std::vector<std::uint8_t>> durable;
  for (int i = 0; i < 10; ++i) {
    const std::string name = "base/f" + std::to_string(i);
    auto contents = Bytes(200 + i * 37, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(fsd->CreateFile(name, contents).ok());
    durable[name] = contents;
  }
  ASSERT_TRUE(fsd->Force().ok());

  disk.ArmCrash(sim::CrashPlan{
      .at_write_index = static_cast<std::uint64_t>(crash_write),
      .sectors_completed = 1,
      .sectors_damaged = 1,
      .drop_writes = {}});

  // Churn until the crash fires (creates, deletes, touches, commits).
  Rng rng(static_cast<std::uint64_t>(crash_write) * 31 + 7);
  Status status = OkStatus();
  for (int step = 0; step < 500 && status.ok(); ++step) {
    const std::string name = "churn/f" + std::to_string(rng.Below(20));
    switch (rng.Below(4)) {
      case 0:
      case 1:
        status = fsd->CreateFile(name, Bytes(rng.Between(1, 1500),
                                             static_cast<std::uint8_t>(step)))
                     .status();
        break;
      case 2: {
        Status s = fsd->DeleteFile(name);
        status = s.code() == ErrorCode::kNotFound ? OkStatus() : s;
        break;
      }
      case 3:
        clock.Advance(300 * sim::kMillisecond);
        status = fsd->Tick();
        break;
    }
  }
  ASSERT_EQ(status.code(), ErrorCode::kDeviceCrashed)
      << "crash never fired; raise churn";

  disk.Reopen();
  auto after = std::make_unique<Fsd>(&disk, SmallConfig());
  ASSERT_TRUE(after->Mount().ok());

  // Contract 1: structural consistency.
  ASSERT_TRUE(after->CheckNameTableInvariants().ok());
  // Contract 2: all pre-crash forced files fully intact.
  for (const auto& [name, contents] : durable) {
    auto handle = after->Open(name);
    ASSERT_TRUE(handle.ok()) << name;
    std::vector<std::uint8_t> out(handle->byte_size);
    ASSERT_TRUE(after->Read(*handle, 0, out).ok()) << name;
    EXPECT_EQ(out, contents) << name;
  }
  // Contract 3: every surviving churn file is readable end to end.
  auto survivors = after->List("churn/");
  ASSERT_TRUE(survivors.ok());
  for (const auto& info : *survivors) {
    auto handle = after->Open(info.name);
    ASSERT_TRUE(handle.ok()) << info.name;
    std::vector<std::uint8_t> out(handle->byte_size);
    EXPECT_TRUE(after->Read(*handle, 0, out).ok()) << info.name;
  }
  // Contract 4: the volume still works.
  ASSERT_TRUE(after->CreateFile("post/alive", Bytes(100, 0)).ok());
  ASSERT_TRUE(after->Force().ok());
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, FsdCrashMatrixTest,
                         ::testing::Range(0, 60, 3));

}  // namespace
}  // namespace cedar::core
