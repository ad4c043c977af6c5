// The media-fault model (DESIGN.md section 4h): persistent grown defects,
// lying (dropped/torn) writes, silent bit rot, the seeded background fault
// schedule, and the persistence of all of it across DiskSnapshot and the
// CEDIMG03 image format (older formats are rejected).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/sim/geometry.h"
#include "src/util/file.h"

namespace cedar::sim {
namespace {

std::vector<std::uint8_t> Pattern(std::size_t sectors, std::uint8_t seed) {
  std::vector<std::uint8_t> buf(sectors * kSectorSize);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(seed + i);
  }
  return buf;
}

class SimFaultTest : public ::testing::Test {
 protected:
  SimFaultTest() : disk_(TestGeometry(), DiskTimingParams{}, &clock_) {}

  VirtualClock clock_;
  SimDisk disk_;
};

TEST_F(SimFaultTest, ReadFailDefectFailsReadsAndHealsOnRewrite) {
  ASSERT_TRUE(disk_.Write(50, Pattern(1, 1)).ok());
  disk_.InjectPersistentFault(50, FaultMode::kReadFail);
  std::vector<std::uint8_t> out(kSectorSize);
  EXPECT_EQ(disk_.Read(50, out).code(), ErrorCode::kSectorDamaged);
  // With a bad list the request succeeds, zero-fills, and reports the slot.
  std::vector<std::uint32_t> bad;
  ASSERT_TRUE(disk_.Read(50, out, &bad).ok());
  EXPECT_EQ(bad, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(out[0], 0);
  // The drive reallocates the sector on the next successful write.
  ASSERT_TRUE(disk_.Write(50, Pattern(1, 9)).ok());
  EXPECT_FALSE(disk_.PersistentFault(50).has_value());
  ASSERT_TRUE(disk_.Read(50, out).ok());
  EXPECT_EQ(out[0], 9);
}

TEST_F(SimFaultTest, WriteFailDefectFailsWritesButServesOldData) {
  ASSERT_TRUE(disk_.Write(60, Pattern(1, 2)).ok());
  disk_.InjectPersistentFault(60, FaultMode::kWriteFail);
  EXPECT_EQ(disk_.Write(60, Pattern(1, 3)).code(),
            ErrorCode::kSectorDamaged);
  std::vector<std::uint8_t> out(kSectorSize);
  ASSERT_TRUE(disk_.Read(60, out).ok());
  EXPECT_EQ(out[0], 2);  // the old data survives, readable
}

TEST_F(SimFaultTest, DeadSectorFailsEverythingUntilCleared) {
  ASSERT_TRUE(disk_.Write(70, Pattern(1, 4)).ok());
  disk_.InjectPersistentFault(70, FaultMode::kDead);
  std::vector<std::uint8_t> out(kSectorSize);
  EXPECT_EQ(disk_.Read(70, out).code(), ErrorCode::kSectorDamaged);
  EXPECT_EQ(disk_.Write(70, Pattern(1, 5)).code(),
            ErrorCode::kSectorDamaged);
  EXPECT_EQ(disk_.PersistentFault(70), FaultMode::kDead);
  disk_.ClearPersistentFault(70);
  ASSERT_TRUE(disk_.Read(70, out).ok());
  EXPECT_EQ(out[0], 4);
}

TEST_F(SimFaultTest, FaultInMultiSectorRangeFailsTheRequest) {
  ASSERT_TRUE(disk_.Write(100, Pattern(4, 6)).ok());
  disk_.InjectPersistentFault(102, FaultMode::kDead);
  std::vector<std::uint8_t> out(4 * kSectorSize);
  EXPECT_EQ(disk_.Read(100, out).code(), ErrorCode::kSectorDamaged);
  std::vector<std::uint32_t> bad;
  ASSERT_TRUE(disk_.Read(100, out, &bad).ok());
  EXPECT_EQ(bad, (std::vector<std::uint32_t>{2}));
  // The healthy sectors still transferred.
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + kSectorSize,
                         Pattern(4, 6).begin()));
}

TEST_F(SimFaultTest, DroppedWriteAcksButKeepsOldData) {
  ASSERT_TRUE(disk_.Write(80, Pattern(2, 7)).ok());
  disk_.InjectWriteFault(80, WriteFaultKind::kDropped);
  ASSERT_TRUE(disk_.Write(80, Pattern(2, 8)).ok());  // the lie: acked OK
  std::vector<std::uint8_t> out(2 * kSectorSize);
  ASSERT_TRUE(disk_.Read(80, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), Pattern(2, 7).begin()));
  // One-shot: the next write lands.
  ASSERT_TRUE(disk_.Write(80, Pattern(2, 8)).ok());
  ASSERT_TRUE(disk_.Read(80, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), Pattern(2, 8).begin()));
}

TEST_F(SimFaultTest, TornWriteAcksWithGarbledCutAndNoError) {
  ASSERT_TRUE(disk_.Write(90, Pattern(4, 10)).ok());
  disk_.InjectWriteFault(91, WriteFaultKind::kTorn);
  ASSERT_TRUE(disk_.Write(90, Pattern(4, 20)).ok());  // acked OK
  std::vector<std::uint8_t> out(4 * kSectorSize);
  std::vector<std::uint32_t> bad;
  ASSERT_TRUE(disk_.Read(90, out, &bad).ok());
  EXPECT_TRUE(bad.empty());  // the damage is silent — no read error
  // The content is neither fully old nor fully new.
  EXPECT_FALSE(std::equal(out.begin(), out.end(), Pattern(4, 10).begin()));
  EXPECT_FALSE(std::equal(out.begin(), out.end(), Pattern(4, 20).begin()));
}

TEST_F(SimFaultTest, CorruptSectorFlipsBitsSilently) {
  ASSERT_TRUE(disk_.Write(110, Pattern(1, 30)).ok());
  disk_.CorruptSector(110, 0xB17F11ull);
  std::vector<std::uint8_t> out(kSectorSize);
  std::vector<std::uint32_t> bad;
  ASSERT_TRUE(disk_.Read(110, out, &bad).ok());
  EXPECT_TRUE(bad.empty());
  EXPECT_FALSE(std::equal(out.begin(), out.end(), Pattern(1, 30).begin()));
}

TEST_F(SimFaultTest, ScheduleIsDeterministicForAFixedSeed) {
  VirtualClock clock2;
  SimDisk other(TestGeometry(), DiskTimingParams{}, &clock2);
  FaultSchedule schedule;
  schedule.seed = 42;
  schedule.persistent_ppm = 300000;  // high rates so a short run fires
  schedule.write_fault_ppm = 300000;
  schedule.corrupt_ppm = 300000;
  disk_.SetFaultSchedule(schedule);
  other.SetFaultSchedule(schedule);
  for (int i = 0; i < 40; ++i) {
    const Lba lba = 200 + static_cast<Lba>(i) * 3;
    (void)disk_.Write(lba, Pattern(2, static_cast<std::uint8_t>(i)));
    (void)other.Write(lba, Pattern(2, static_cast<std::uint8_t>(i)));
  }
  EXPECT_GT(disk_.fault_events(), 0u);
  EXPECT_EQ(disk_.fault_events(), other.fault_events());
  // Identical event draws -> identical device state, faults included.
  EXPECT_TRUE(other.StateEquals(disk_.Snapshot()));
}

TEST_F(SimFaultTest, ScheduleMaxEventsCapsTheDamage) {
  FaultSchedule schedule;
  schedule.seed = 7;
  schedule.persistent_ppm = 1000000;  // every write would fire...
  schedule.max_events = 3;            // ...but the cap stops it
  disk_.SetFaultSchedule(schedule);
  for (int i = 0; i < 20; ++i) {
    (void)disk_.Write(300 + static_cast<Lba>(i), Pattern(1, 1));
  }
  EXPECT_EQ(disk_.fault_events(), 3u);
}

TEST_F(SimFaultTest, SnapshotRoundTripsFaultState) {
  disk_.InjectPersistentFault(55, FaultMode::kDead);
  disk_.InjectWriteFault(56, WriteFaultKind::kTorn);
  FaultSchedule schedule;
  schedule.seed = 9;
  schedule.corrupt_ppm = 100;
  disk_.SetFaultSchedule(schedule);
  const DiskSnapshot snap = disk_.Snapshot();
  EXPECT_TRUE(disk_.StateEquals(snap));

  VirtualClock clock2;
  SimDisk clone(TestGeometry(), DiskTimingParams{}, &clock2);
  clone.Restore(snap);
  EXPECT_TRUE(clone.StateEquals(snap));
  EXPECT_EQ(clone.PersistentFault(55), FaultMode::kDead);
  EXPECT_EQ(clone.fault_schedule(), schedule);
  // The restored armed write fault still fires (and is one-shot).
  ASSERT_TRUE(clone.Write(56, Pattern(1, 3)).ok());
  std::vector<std::uint8_t> out(kSectorSize);
  ASSERT_TRUE(clone.Read(56, out).ok());
  EXPECT_FALSE(std::equal(out.begin(), out.end(), Pattern(1, 3).begin()));
}

TEST_F(SimFaultTest, ImageV3RoundTripsFaultState) {
  ASSERT_TRUE(disk_.Write(40, Pattern(2, 11)).ok());
  disk_.InjectPersistentFault(41, FaultMode::kWriteFail);
  disk_.InjectWriteFault(42, WriteFaultKind::kDropped);
  FaultSchedule schedule;
  schedule.seed = 77;
  schedule.persistent_ppm = 5;
  schedule.max_events = 9;
  disk_.SetFaultSchedule(schedule);
  const std::string path = ::testing::TempDir() + "/fault_v3.img";
  ASSERT_TRUE(disk_.SaveImage(path).ok());
  // SaveImage streams the sector data from the disk, but the file is
  // exactly what the in-memory codec writes.
  auto saved = ReadFileBytes(path, "disk image");
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(*saved, SimDisk::EncodeImage(TestGeometry(), disk_.Snapshot()));

  VirtualClock clock2;
  SimDisk loaded(TestGeometry(), DiskTimingParams{}, &clock2);
  ASSERT_TRUE(loaded.LoadImage(path).ok());
  EXPECT_TRUE(loaded.StateEquals(disk_.Snapshot()));
  EXPECT_EQ(loaded.PersistentFault(41), FaultMode::kWriteFail);
  EXPECT_EQ(loaded.fault_schedule(), schedule);
  std::remove(path.c_str());
}

TEST_F(SimFaultTest, ImageWithOldOrUnknownMagicIsRejected) {
  // Only CEDIMG03 loads: an image from an older format (CEDIMG01/02) or
  // with a garbage magic fails cleanly, even when the bytes that follow
  // are a well-formed current image.
  ASSERT_TRUE(disk_.Write(10, Pattern(1, 77)).ok());
  const std::string path = ::testing::TempDir() + "/fault_magic.img";
  for (const char* magic : {"CEDIMG01", "CEDIMG02", "NOTANIMG"}) {
    SCOPED_TRACE(magic);
    ASSERT_TRUE(disk_.SaveImage(path).ok());
    {
      std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
      io.write(magic, 8);
    }
    VirtualClock clock2;
    SimDisk loaded(TestGeometry(), DiskTimingParams{}, &clock2);
    EXPECT_EQ(loaded.LoadImage(path).code(), ErrorCode::kCorruptMetadata);
  }
  std::remove(path.c_str());
}

// An image cut anywhere in its tail (after the sector data) fails to load
// and leaves the target disk exactly as it was: the file is decoded in
// full before anything is restored.
TEST_F(SimFaultTest, TruncatedImageLeavesTheDiskUnchanged) {
  ASSERT_TRUE(disk_.Write(40, Pattern(2, 11)).ok());
  disk_.InjectPersistentFault(41, FaultMode::kWriteFail);
  const std::string path = ::testing::TempDir() + "/fault_truncated.img";
  ASSERT_TRUE(disk_.SaveImage(path).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 1);

  VirtualClock clock2;
  SimDisk target(TestGeometry(), DiskTimingParams{}, &clock2);
  ASSERT_TRUE(target.Write(40, Pattern(1, 99)).ok());
  const DiskSnapshot before = target.Snapshot();
  EXPECT_EQ(target.LoadImage(path).code(), ErrorCode::kCorruptMetadata);
  EXPECT_TRUE(target.StateEquals(before));
  std::remove(path.c_str());
}

// The image decoder accepts only what EncodeImage writes for a valid disk.
TEST(DiskImageCodecTest, RejectsWhatNoWriterProduces) {
  const DiskGeometry geometry{.cylinders = 2, .heads = 1,
                              .sectors_per_track = 4};  // 8 sectors
  VirtualClock clock;
  SimDisk disk(geometry, DiskTimingParams{}, &clock);
  disk.InjectTransientReadError(3, 2);
  disk.InjectTransientReadError(6, 1);
  disk.InjectPersistentFault(4, FaultMode::kReadFail);
  disk.ArmCrash(CrashPlan{.at_write_index = 5,
                          .sectors_completed = 1,
                          .sectors_damaged = 1,
                          .drop_writes = {1, 3}});
  const std::vector<std::uint8_t> valid =
      SimDisk::EncodeImage(geometry, disk.Snapshot());
  auto decoded = SimDisk::DecodeImage(valid, geometry);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_TRUE(disk.StateEquals(*decoded));

  const std::size_t labels = 20 + 8 * kSectorSize;  // magic, geometry, data
  const std::size_t damaged = labels + 8 * 13;
  const std::size_t crashed = damaged + 8;
  const std::size_t plan = crashed + 2;
  const std::size_t transient = plan + 20 + 2 * 8 + 8;  // its count
  const std::size_t persistent = transient + 4 + 2 * 8;
  // The bytes overwritten below hold the fields their comments name.
  ASSERT_EQ(valid[plan + 12], 1);        // sectors damaged at the cut
  ASSERT_EQ(valid[plan + 28], 3);        // the second dropped write
  ASSERT_EQ(valid[transient], 2);        // two transient faults ...
  ASSERT_EQ(valid[transient + 12], 6);   // ... the second on LBA 6
  ASSERT_EQ(valid[persistent + 8], 1);   // kReadFail
  const std::vector<std::pair<std::size_t, std::uint8_t>> bad_bytes = {
      {labels + 12, 5},            // a label type past kLeader
      {damaged, 2},                // a damage flag other than 0 or 1
      {crashed, 2},                // so for crashed
      {crashed + 1, 2},            // and for has-plan
      {plan + 12, 3},              // three damaged sectors at the cut
      {plan + 28, 5},              // a dropped write at the crash index
      {transient + 12, 3},         // a second fault on LBA 3
      {transient + 12, 8},         // a fault past the disk
      {persistent + 8, 0},         // no such FaultMode
  };
  for (const auto& [at, value] : bad_bytes) {
    SCOPED_TRACE(at);
    std::vector<std::uint8_t> bytes = valid;
    bytes[at] = value;
    EXPECT_EQ(SimDisk::DecodeImage(bytes, geometry).status().code(),
              ErrorCode::kCorruptMetadata);
  }
  std::vector<std::uint8_t> longer = valid;
  longer.push_back(0);
  EXPECT_EQ(SimDisk::DecodeImage(longer, geometry).status().code(),
            ErrorCode::kCorruptMetadata);
}

}  // namespace
}  // namespace cedar::sim
