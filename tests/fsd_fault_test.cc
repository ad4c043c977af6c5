// FSD self-healing against the media-fault model (DESIGN.md section 4h):
// CRC-trailer corruption detection on name-table pages, A/B copy repair,
// durable bad-sector remapping to spares, lying-write divergence arbitration
// by write sequence, bounded-retry exhaustion attribution, the degraded
// read-only mount, and the scrub patrol's healed/remapped/unrepairable
// accounting, and the A/B copy vote all of these paths share. Companion to
// sim_fault_test.cc (device model) and the faultcampaign tool (randomized
// end-to-end sweeps).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/obs/metrics.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/check.h"
#include "src/util/crc32.h"

namespace cedar {
namespace {

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t seed) {
  return std::vector<std::uint8_t>(n, seed);
}

core::FsdConfig FaultCfg() {
  core::FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 128;
  config.cache_frames = 512;
  return config;
}

class FsdFaultTest : public ::testing::Test {
 protected:
  FsdFaultTest() : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_) {
    fsd_ = std::make_unique<core::Fsd>(&disk_, FaultCfg());
    CEDAR_CHECK_OK(fsd_->Format());
    for (int i = 0; i < 40; ++i) {
      CEDAR_CHECK_OK(
          fsd_->CreateFile("lib/m" + std::to_string(i), Bytes(1200, 7))
              .status());
    }
    CEDAR_CHECK_OK(fsd_->Force());
  }

  // Replaces fsd_ with a freshly constructed instance (not mounted).
  core::Fsd* Remake() {
    fsd_ = std::make_unique<core::Fsd>(&disk_, FaultCfg());
    return fsd_.get();
  }

  void ExpectReadable(core::Fsd* fsd, const std::string& name) {
    auto handle = fsd->Open(name);
    ASSERT_TRUE(handle.ok()) << handle.status().message();
    std::vector<std::uint8_t> out(1200);
    ASSERT_TRUE(fsd->Read(*handle, 0, out).ok());
    EXPECT_EQ(out, Bytes(1200, 7));
    EXPECT_TRUE(fsd->Close(*handle).ok());
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  std::unique_ptr<core::Fsd> fsd_;
};

// Bit rot on name-table primary homes: the CRC trailer catches it on the
// first access, the replica serves, and the corrupt copy is rewritten in
// place. (A clean mount reads name-table pages lazily, so the detection
// counters advance when the namespace is first walked, not at Mount().)
TEST_F(FsdFaultTest, NtPrimaryCorruptionDetectedAndRepairedOnAccess) {
  ASSERT_TRUE(fsd_->Shutdown().ok());
  const core::FsdLayout layout = fsd_->layout();
  for (std::uint32_t pid = 0; pid < 8; ++pid) {
    disk_.CorruptSector(layout.nta_base + pid, 1000 + pid);
  }
  core::Fsd* fsd = Remake();
  ASSERT_TRUE(fsd->Mount().ok());
  auto list = fsd->List("lib/");
  ASSERT_TRUE(list.ok()) << list.status().message();
  EXPECT_EQ(list->size(), 40u);
  const fs::HealthStats health = fsd->Health();
  EXPECT_GE(health.corruption_detected, 1u);
  EXPECT_GE(health.repairs, 1u);
  ExpectReadable(fsd, "lib/m5");
  // The repair reached the disk: a fresh mount finds both copies agreeing.
  ASSERT_TRUE(fsd->Shutdown().ok());
  fsd = Remake();
  ASSERT_TRUE(fsd->Mount().ok());
  ASSERT_TRUE(fsd->List("lib/").ok());
  EXPECT_EQ(fsd->Health().corruption_detected, 0u);
}

// A primary home sector that dies outright is remapped to a spare, and the
// remap table survives remount — the dead LBA is never touched again.
TEST_F(FsdFaultTest, DeadNtPrimaryRemapsToSpareDurably) {
  const core::FsdLayout layout = fsd_->layout();
  for (std::uint32_t pid = 0; pid < 8; ++pid) {
    disk_.InjectPersistentFault(layout.nta_base + pid, sim::FaultMode::kDead);
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        fsd_->CreateFile("post/p" + std::to_string(i), Bytes(1200, 7)).ok());
  }
  ASSERT_TRUE(fsd_->Shutdown().ok());
  EXPECT_GE(fsd_->Health().remaps, 1u);

  // The faults are still armed, yet the volume mounts and reads cleanly:
  // every access to the dead sectors goes through the spares.
  core::Fsd* fsd = Remake();
  ASSERT_TRUE(fsd->Mount().ok());
  EXPECT_TRUE(disk_.PersistentFault(layout.nta_base).has_value());
  ExpectReadable(fsd, "lib/m3");
  ExpectReadable(fsd, "post/p3");
  ASSERT_TRUE(fsd->Shutdown().ok());
}

// A lying (dropped) home write leaves a stale-but-valid primary; the write
// sequence in the CRC trailer arbitrates and the stale copy is rewritten.
TEST_F(FsdFaultTest, DroppedHomeWriteHealedBySequenceArbitration) {
  const core::FsdLayout layout = fsd_->layout();
  for (std::uint32_t pid = 0; pid < 16; ++pid) {
    disk_.InjectWriteFault(layout.nta_base + pid,
                           sim::WriteFaultKind::kDropped);
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        fsd_->CreateFile("post/q" + std::to_string(i), Bytes(1200, 7)).ok());
  }
  ASSERT_TRUE(fsd_->Shutdown().ok());

  core::Fsd* fsd = Remake();
  ASSERT_TRUE(fsd->Mount().ok());
  auto list = fsd->List("post/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 40u);
  // A dropped write is not corruption (the stale copy has a valid CRC) —
  // it is a divergence, repaired toward the newer sequence on first access.
  EXPECT_GE(fsd->Health().repairs, 1u);
  ExpectReadable(fsd, "post/q7");
  ASSERT_TRUE(fsd->Shutdown().ok());
}

// When the bounded soft-error retry gives up, the error names the failing
// LBA span and the give-up is counted — not a bare device error.
TEST_F(FsdFaultTest, ReadRetryExhaustionIsAttributed) {
  ASSERT_TRUE(fsd_->Shutdown().ok());
  disk_.InjectTransientReadError(fsd_->layout().root_lba, 100);
  core::Fsd* fsd = Remake();
  const Status mount = fsd->Mount();
  ASSERT_EQ(mount.code(), ErrorCode::kReadTransient);
  EXPECT_NE(mount.message().find("read retries exhausted"), std::string::npos)
      << mount.message();
  EXPECT_NE(mount.message().find("lba"), std::string::npos);
  EXPECT_GE(fsd->Health().read_retry_exhausted, 1u);
}

// Losing both copies of a live name-table page fails Mount with attribution;
// MountDegraded then serves what survives, read-only, and Health() says
// exactly what was lost.
TEST_F(FsdFaultTest, DegradedMountIsReadOnlyAndAttributed) {
  ASSERT_TRUE(fsd_->Shutdown().ok());
  const core::FsdLayout layout = fsd_->layout();
  for (std::uint32_t pid = 2; pid < 6; ++pid) {
    disk_.InjectPersistentFault(layout.nta_base + pid, sim::FaultMode::kDead);
    disk_.InjectPersistentFault(layout.ntb_base + pid, sim::FaultMode::kDead);
  }
  // Damage the saved VAM too, so the mount must rebuild from a full
  // name-table scan — which walks straight into the lost pages. (With the
  // saved VAM intact a clean mount reads pages lazily and only the first
  // access would fail.)
  disk_.DamageSectors(layout.vam_base, 2);
  core::Fsd* fsd = Remake();
  const Status mount = fsd->Mount();
  ASSERT_FALSE(mount.ok());
  ASSERT_NE(mount.code(), ErrorCode::kDeviceCrashed);

  ASSERT_TRUE(fsd->MountDegraded().ok());
  const fs::HealthStats health = fsd->Health();
  EXPECT_TRUE(health.degraded);
  EXPECT_GE(health.nt_pages_lost, 1u);
  EXPECT_FALSE(health.notes.empty());
  // Read-only: every mutating surface refuses with kFailedPrecondition.
  EXPECT_EQ(fsd->CreateFile("new", Bytes(10, 1)).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(fsd->DeleteFile("lib/m0").code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(fsd->Force().code(), ErrorCode::kFailedPrecondition);
  // Nothing was written to the medium: the dead sectors aside, the image is
  // exactly as found (no root update — a second degraded mount still works).
  core::Fsd* again = Remake();
  EXPECT_TRUE(again->MountDegraded().ok());
}

// The scrub patrol rewrites a rotted replica copy in place (healed), and
// reports damage no redundancy covers (unrepairable) without touching it.
TEST_F(FsdFaultTest, ScrubCountsHealedAndUnrepairable) {
  ASSERT_TRUE(fsd_->Shutdown().ok());
  core::Fsd* fsd = Remake();
  ASSERT_TRUE(fsd->Mount().ok());
  // Walk the namespace first so every name-table page is cached: the rot
  // injected below is then invisible to the double-read path and only the
  // scrub patrol — which always reads the home copies — can find it.
  ASSERT_TRUE(fsd->List("lib/").ok());
  const core::FsdLayout layout = fsd->layout();
  for (std::uint32_t pid = 0; pid < 8; ++pid) {
    disk_.CorruptSector(layout.ntb_base + pid, 2000 + pid);
  }
  auto report = fsd->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->healed, 1u);
  EXPECT_EQ(report->unrepairable, 0u);
  EXPECT_GE(fsd->Health().corruption_detected, 1u);

  // Now kill both copies of a live page: the next patrol can only report.
  for (std::uint32_t pid = 2; pid < 6; ++pid) {
    disk_.InjectPersistentFault(layout.nta_base + pid, sim::FaultMode::kDead);
    disk_.InjectPersistentFault(layout.ntb_base + pid, sim::FaultMode::kDead);
  }
  report = fsd->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->unrepairable, 1u);
  EXPECT_GE(fsd->Health().nt_pages_lost, 1u);
  EXPECT_FALSE(fsd->Health().notes.empty());
}

// A name-table page neither copy holds is not "no such name": a create or
// a rename onto a name whose leaf is lost fails with kSectorDamaged, where
// it used to go on with version 1 (and could overwrite a version it could
// not see). Nothing is allocated or written, and once the media heals the
// volume checks clean with the name as it was.
TEST_F(FsdFaultTest, CreateAndRenameOntoLostLeafFail) {
  ASSERT_TRUE(fsd_->Shutdown().ok());
  const core::FsdLayout layout = fsd_->layout();
  auto damage = [&](std::uint32_t pid, bool on) {
    for (const sim::Lba lba : {layout.nta_base + pid, layout.ntb_base + pid}) {
      if (on) {
        disk_.InjectPersistentFault(lba, sim::FaultMode::kReadFail);
      } else {
        disk_.ClearPersistentFault(lba);
      }
    }
  };
  // The leaf holding the target: the first page past the root whose loss
  // fails the target's lookup on a fresh (lazily reading) mount.
  const std::string target = "lib/m5";
  core::Fsd* fsd = nullptr;
  std::uint32_t leaf = 0;
  for (std::uint32_t pid = 1; pid < FaultCfg().nt_pages && leaf == 0; ++pid) {
    damage(pid, true);
    fsd = Remake();
    ASSERT_TRUE(fsd->Mount().ok());
    if (fsd->Stat(target).status().code() == ErrorCode::kSectorDamaged) {
      leaf = pid;
    } else {
      // Each probe starts from a clean mount, which reads pages lazily.
      // Without the shutdown the next mount is a recovery mount, and its
      // log replay rewrites the homes, healing the faults it injects.
      damage(pid, false);
      ASSERT_TRUE(fsd->Shutdown().ok());
    }
  }
  ASSERT_NE(leaf, 0u);
  std::string source;
  for (int i = 39; i >= 0 && source.empty(); --i) {
    const std::string name = "lib/m" + std::to_string(i);
    if (fsd->Stat(name).ok()) {
      source = name;
    }
  }
  ASSERT_FALSE(source.empty());

  const std::uint32_t free_before = fsd->FreeSectors();
  EXPECT_EQ(fsd->CreateFile(target, Bytes(1200, 9)).status().code(),
            ErrorCode::kSectorDamaged);
  EXPECT_EQ(fsd->Rename(source, target).code(), ErrorCode::kSectorDamaged);
  EXPECT_EQ(fsd->FreeSectors(), free_before);
  ASSERT_TRUE(fsd->Force().ok());

  damage(leaf, false);
  for (const std::string& name : {target, source}) {
    auto info = fsd->Stat(name);
    ASSERT_TRUE(info.ok()) << name << ": " << info.status().message();
    EXPECT_EQ(info->version, 1u) << name;
  }
  auto list = fsd->List("lib/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 40u);
  ExpectReadable(fsd, target);
  auto report = fsd->Fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->Clean()) << report->Summary();
}

// A clean mount formats the log, and the log has no spare sectors: a grown
// write defect on its pointer fails the mount, and the degraded mount that
// follows must say why (the fault campaign found this unattributed).
TEST_F(FsdFaultTest, UnwritableLogPointerFailsMountAttributed) {
  ASSERT_TRUE(fsd_->Shutdown().ok());
  disk_.InjectPersistentFault(fsd_->layout().log_base,
                              sim::FaultMode::kWriteFail);
  core::Fsd* fsd = Remake();
  EXPECT_FALSE(fsd->Mount().ok());
  ASSERT_TRUE(fsd->MountDegraded().ok());
  const fs::HealthStats health = fsd->Health();
  EXPECT_TRUE(health.degraded);
  ASSERT_FALSE(health.notes.empty());
  EXPECT_NE(health.notes.front().find("log unwritable"), std::string::npos)
      << health.notes.front();
  ExpectReadable(fsd, "lib/m7");
}

// The volume root rides in three sectors with two copies; a grown read
// defect on the first copy is healed by the mount-time rewrite.
TEST_F(FsdFaultTest, RootCopyReadFaultHealedOnMount) {
  ASSERT_TRUE(fsd_->Shutdown().ok());
  const sim::Lba root = fsd_->layout().root_lba;
  disk_.InjectPersistentFault(root, sim::FaultMode::kReadFail);
  core::Fsd* fsd = Remake();
  ASSERT_TRUE(fsd->Mount().ok());
  EXPECT_GE(fsd->Health().repairs, 1u);
  // The healing rewrite re-allocated the sector: the defect is gone.
  EXPECT_FALSE(disk_.PersistentFault(root).has_value());
  ExpectReadable(fsd, "lib/m1");
  ASSERT_TRUE(fsd->Shutdown().ok());
}

// A root write that fails for good is attributed: the mount that cannot
// mark the volume unclean fails with the device's error, and the degraded
// mount that follows carries a note naming the volume root.
TEST_F(FsdFaultTest, UnwritableRootIsAttributed) {
  ASSERT_TRUE(fsd_->Shutdown().ok());
  disk_.InjectPersistentFault(fsd_->layout().root_lba,
                              sim::FaultMode::kWriteFail);
  core::Fsd* fsd = Remake();
  const Status mount = fsd->Mount();
  EXPECT_EQ(mount.code(), ErrorCode::kSectorDamaged) << mount.message();
  ASSERT_TRUE(fsd->MountDegraded().ok());
  const fs::HealthStats health = fsd->Health();
  bool named = false;
  for (const std::string& note : health.notes) {
    named = named || note.find("volume root unwritable") != std::string::npos;
  }
  EXPECT_TRUE(named) << "no note names the volume root";
  EXPECT_GE(health.unrepairable, 1u);
  ExpectReadable(fsd, "lib/m4");
}

// ---------------------------------------------------------------------------
// The copy vote, over every combination of its inputs. The expectations
// spell out the rule of DESIGN.md section 4h: a copy is ok when readable
// (the replica only when read) with a valid CRC; the ok copy with the
// higher write sequence wins and the primary wins a tie; the loser needs a
// rewrite when the replica was read and the two sectors differ; a readable
// copy with a bad CRC is corruption only when the other copy is ok.

// A composed home sector: `fill` payload, sequence `seq`, CRC trailer
// (broken when `crc_ok` is false).
std::vector<std::uint8_t> NtSector(std::uint8_t fill, std::uint32_t seq,
                                   bool crc_ok) {
  std::vector<std::uint8_t> sector(512, fill);
  auto put = [&](std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      sector[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  put(504, seq);
  put(508, Crc32(std::span<const std::uint8_t>(sector).subspan(0, 508)) ^
               (crc_ok ? 0u : 1u));
  return sector;
}

TEST(NtVoteTest, EveryInputCombination) {
  int rows = 0;
  for (int bits = 0; bits < 64; ++bits) {
    const bool readable_a = bits & 1;
    const bool readable_b = bits & 2;
    const bool crc_a = bits & 4;
    const bool crc_b = bits & 8;
    const bool same_payload = bits & 16;
    const bool read_b = bits & 32;
    for (const std::uint32_t seq_b : {9u, 10u, 11u}) {
      const std::uint32_t seq_a = 10;
      const auto a = NtSector(0x5A, seq_a, crc_a);
      const auto b = NtSector(same_payload ? 0x5A : 0xA5, seq_b, crc_b);
      obs::Counter corruption;
      const core::Fsd::NtVote vote = core::Fsd::VoteNtCopies(
          a, readable_a, b, readable_b, read_b, &corruption);
      ++rows;

      const bool ok_a = readable_a && crc_a;
      const bool ok_b = read_b && readable_b && crc_b;
      SCOPED_TRACE(testing::Message()
                   << "readable " << readable_a << readable_b << " crc "
                   << crc_a << crc_b << " seq_b " << seq_b << " same "
                   << same_payload << " read_b " << read_b);
      EXPECT_EQ(vote.ok_a, ok_a);
      EXPECT_EQ(vote.ok_b, ok_b);
      if (!ok_a && !ok_b) {
        EXPECT_FALSE(vote.any());
        EXPECT_FALSE(vote.diverged);
        EXPECT_EQ(corruption.value(), 0u);
        continue;
      }
      ASSERT_TRUE(vote.any());
      bool b_wins = !ok_a;
      if (ok_a && ok_b) {
        b_wins = seq_b > seq_a;  // a tie goes to the primary
      }
      EXPECT_EQ(vote.b_wins, b_wins);
      EXPECT_EQ(vote.seq, b_wins ? seq_b : seq_a);
      const bool identical = ok_a && ok_b && seq_a == seq_b && same_payload;
      EXPECT_EQ(vote.diverged, read_b && !identical);
      const bool corrupt_a = readable_a && !crc_a;
      const bool corrupt_b = read_b && readable_b && !crc_b;
      EXPECT_EQ(corruption.value(), (corrupt_a || corrupt_b) ? 1u : 0u);
    }
  }
  EXPECT_EQ(rows, 192);
  // A null counter is allowed (fsck votes without counting).
  const auto good = NtSector(1, 4, true);
  const auto bad = NtSector(1, 4, false);
  EXPECT_TRUE(
      core::Fsd::VoteNtCopies(bad, true, good, true, true, nullptr).b_wins);
}

// ---------------------------------------------------------------------------
// Small-cache variants of the preload cases. A crash-recovery mount rebuilds
// the VAM by walking the name table; the walk reads the images the preload
// sweep elected, so with a table many times the cache's size every fault is
// counted and healed once, exactly as with a cache that holds the table.

enum class PreloadFault {
  kNone,
  kReplicaCorrupt,
  kPrimaryUnreadable,
  kRemappedHome
};

struct RebuildOutcome {
  std::uint64_t nt_pages = 0;
  std::uint32_t free_sectors = 0;
  std::uint64_t nt_repairs = 0;
  std::uint64_t repairs = 0;
  std::uint64_t corruption_detected = 0;
  std::uint64_t remaps = 0;
  std::uint64_t remaps_before_crash = 0;
};

// Live name-table pages the faults land on (pages allocate from 0 upward,
// and the table below has dozens of live pages).
constexpr std::uint32_t kFaultPages = 4;

// Builds a volume whose name table dwarfs a 16-frame cache, checkpoints it
// (so replay rewrites none of the faulted home copies), crashes
// it (VAM logging off, so Mount rebuilds from the name table), injects
// `fault`, and mounts with `cache_frames`. *free_live is the VAM's
// free count just before the crash.
RebuildOutcome MountAfterFault(PreloadFault fault, std::size_t cache_frames,
                               std::uint32_t* free_live) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::FsdConfig config = FaultCfg();
  config.nt_pages = 256;
  core::FsdLayout layout;
  std::uint64_t remaps_before_crash = 0;
  {
    core::Fsd fsd(&disk, config);
    CEDAR_CHECK_OK(fsd.Format());
    layout = fsd.layout();
    if (fault == PreloadFault::kRemappedHome) {
      // Dead before the first checkpoint: the home writes remap it durably,
      // and the recovery mount's sweep reads the page from its spare.
      for (std::uint32_t pid = 0; pid < kFaultPages; ++pid) {
        disk.InjectPersistentFault(layout.nta_base + pid,
                                   sim::FaultMode::kDead);
      }
    }
    for (int i = 0; i < 300; ++i) {
      CEDAR_CHECK_OK(
          fsd.CreateFile("big/f" + std::to_string(i), Bytes(600, 7))
              .status());
    }
    CEDAR_CHECK_OK(fsd.Force());
    CEDAR_CHECK_OK(fsd.Checkpoint());
    *free_live = fsd.FreeSectors();
    remaps_before_crash = fsd.Health().remaps;
    disk.CrashNow();
  }
  disk.Reopen();
  for (std::uint32_t pid = 0; pid < kFaultPages; ++pid) {
    if (fault == PreloadFault::kReplicaCorrupt) {
      disk.CorruptSector(layout.ntb_base + pid, 3000 + pid);
    } else if (fault == PreloadFault::kPrimaryUnreadable) {
      disk.InjectPersistentFault(layout.nta_base + pid,
                                 sim::FaultMode::kReadFail);
    }
  }
  config.cache_frames = cache_frames;
  core::Fsd fsd(&disk, config);
  CEDAR_CHECK_OK(fsd.Mount());
  auto report = fsd.Fsck();
  CEDAR_CHECK_OK(report.status());
  EXPECT_EQ(report->violations(), 0u);
  const fs::HealthStats health = fsd.Health();
  return RebuildOutcome{.nt_pages = report->nt_pages_checked,
                        .free_sectors = fsd.FreeSectors(),
                        .nt_repairs = fsd.SnapshotMetrics().CounterValue(
                            "fsd.nt_repairs"),
                        .repairs = health.repairs,
                        .corruption_detected = health.corruption_detected,
                        .remaps = health.remaps,
                        .remaps_before_crash = remaps_before_crash};
}

constexpr const char* kFaultNames[] = {"None", "ReplicaCorrupt",
                                        "PrimaryUnreadable", "RemappedHome"};

class SmallCacheRebuildTest : public ::testing::TestWithParam<PreloadFault> {};

TEST_P(SmallCacheRebuildTest, FaultsCountOnceAndVamMatches) {
  std::uint32_t free_clean = 0;
  MountAfterFault(PreloadFault::kNone, 1024, &free_clean);
  std::uint32_t free_big = 0;
  std::uint32_t free_small = 0;
  const RebuildOutcome big = MountAfterFault(GetParam(), 1024, &free_big);
  const RebuildOutcome small = MountAfterFault(GetParam(), 16, &free_small);
  EXPECT_GT(small.nt_pages, 2u * 16) << "the name table must dwarf the cache";
  // The rebuilt VAM equals the live one and the fault-free one.
  EXPECT_EQ(big.free_sectors, free_big);
  EXPECT_EQ(small.free_sectors, free_small);
  EXPECT_EQ(small.free_sectors, free_clean);
  EXPECT_EQ(small.nt_repairs, big.nt_repairs);
  EXPECT_EQ(small.repairs, big.repairs);
  EXPECT_EQ(small.corruption_detected, big.corruption_detected);
  EXPECT_EQ(small.remaps, big.remaps);
  switch (GetParam()) {
    case PreloadFault::kReplicaCorrupt:
      EXPECT_EQ(small.corruption_detected, kFaultPages);
      EXPECT_GE(small.nt_repairs, kFaultPages);
      break;
    case PreloadFault::kPrimaryUnreadable:
      EXPECT_EQ(small.corruption_detected, 0u);
      EXPECT_GE(small.nt_repairs, kFaultPages);
      break;
    case PreloadFault::kRemappedHome:
      // The sweep reads the remapped pages from their spares: nothing to
      // detect, repair or remap again.
      EXPECT_GE(small.remaps_before_crash, kFaultPages);
      EXPECT_EQ(small.remaps, 0u);
      EXPECT_EQ(small.nt_repairs, 0u);
      EXPECT_EQ(small.corruption_detected, 0u);
      break;
    case PreloadFault::kNone:
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PreloadFaults, SmallCacheRebuildTest,
    ::testing::Values(PreloadFault::kReplicaCorrupt,
                      PreloadFault::kPrimaryUnreadable,
                      PreloadFault::kRemappedHome),
    [](const ::testing::TestParamInfo<PreloadFault>& p) {
      return std::string(kFaultNames[static_cast<int>(p.param)]);
    });

}  // namespace
}  // namespace cedar
