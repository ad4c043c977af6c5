// The media-fault model (DESIGN.md section 4h): persistent grown defects,
// lying (dropped/torn) writes, silent bit rot, the seeded background fault
// schedule, and the persistence of all of it across DiskSnapshot and the
// CEDIMG03 image format (older formats are rejected).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/sim/geometry.h"

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

}  // namespace
}  // namespace cedar::sim
