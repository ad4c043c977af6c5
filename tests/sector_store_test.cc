// The copy-on-write sector store behind SimDisk (src/sim/sector_store.h):
// a fresh disk holds no chunk, snapshots and restores share chunks and stay
// isolated both ways however the medium is changed (writes, labels, wild
// writes, bit rot, torn writes), images load into null chunks, and arrays
// clone through their members.

#include "src/sim/sector_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/sim/array.h"
#include "src/sim/clock.h"
#include "src/sim/device.h"
#include "src/sim/disk.h"
#include "src/sim/geometry.h"
#include "src/sim/label.h"
#include "src/sim/timing.h"

namespace cedar::sim {
namespace {

constexpr Lba kChunk = SectorStore::kChunkSectors;

std::vector<std::uint8_t> Pattern(std::size_t sectors, std::uint8_t seed) {
  std::vector<std::uint8_t> buf(sectors * kSectorSize);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return buf;
}

std::vector<std::uint8_t> ReadBack(BlockDevice& device, Lba lba,
                                   std::size_t sectors = 1) {
  std::vector<std::uint8_t> out(sectors * kSectorSize);
  EXPECT_TRUE(device.Read(lba, out).ok());
  return out;
}

// A disk of the test geometry on its own clock.
struct TestDisk {
  VirtualClock clock;
  SimDisk disk{TestGeometry(), DiskTimingParams{}, &clock};
};

TEST(SectorStoreTest, NullAndMaterializedZeroChunksCompareEqual) {
  SectorStore a(3 * kChunk);
  SectorStore b(3 * kChunk);
  EXPECT_EQ(a.ResidentBytes(), 0u);
  // Zeros into a null chunk leave it null.
  b.Write(kChunk, std::vector<std::uint8_t>(2 * kSectorSize, 0),
          std::vector<Label>(2));
  b.SetDamaged(kChunk, 2, false);
  EXPECT_EQ(b.ResidentBytes(), 0u);
  // A chunk written and written back to zeros stays materialized yet
  // compares equal to the null one.
  b.Write(kChunk, Pattern(1, 3));
  b.Write(kChunk, std::vector<std::uint8_t>(kSectorSize, 0));
  EXPECT_EQ(b.ResidentBytes(), sizeof(SectorStore::Chunk));
  EXPECT_TRUE(a == b);
  b.SetDamaged(kChunk + 1, 1, true);
  EXPECT_FALSE(a == b);
  // A write across a chunk boundary lands in both chunks.
  a.Write(kChunk - 1, Pattern(2, 5));
  EXPECT_EQ(a.ResidentBytes(), 2 * sizeof(SectorStore::Chunk));
  EXPECT_EQ(a.Data(kChunk)[0], Pattern(2, 5)[kSectorSize]);
  EXPECT_FALSE(a == SectorStore(2 * kChunk));
}

TEST(SectorStoreTest, FreshDefaultGeometryDiskMaterializesNoChunk) {
  VirtualClock clock;
  SimDisk disk(DiskGeometry{}, DiskTimingParams{}, &clock);  // 300 MB
  EXPECT_EQ(disk.ResidentBytesForTest(), 0u);
  // Reads, zero writes and default labels materialize nothing either.
  EXPECT_EQ(ReadBack(disk, 1000, 4), std::vector<std::uint8_t>(4 * 512, 0));
  ASSERT_TRUE(disk.Write(5000, std::vector<std::uint8_t>(512, 0)).ok());
  const Label free_label;
  ASSERT_TRUE(disk.WriteLabels(6000, {&free_label, 1}).ok());
  EXPECT_EQ(disk.ResidentBytesForTest(), 0u);
  // One sector written materializes exactly its chunk.
  ASSERT_TRUE(disk.Write(5000, Pattern(1, 9)).ok());
  EXPECT_EQ(disk.ResidentBytesForTest(), sizeof(SectorStore::Chunk));
  // A snapshot and a restore share it rather than copy it.
  const DiskSnapshot snapshot = disk.Snapshot();
  EXPECT_EQ(snapshot.medium.ResidentBytes(), sizeof(SectorStore::Chunk));
  VirtualClock clone_clock;
  SimDisk clone(DiskGeometry{}, DiskTimingParams{}, &clone_clock);
  clone.Restore(snapshot);
  EXPECT_TRUE(clone.StateEquals(snapshot));
  EXPECT_EQ(ReadBack(clone, 5000), Pattern(1, 9));
}

TEST(SectorStoreTest, WriteAfterSnapshotLeavesTheSnapshotUnchanged) {
  TestDisk original;
  ASSERT_TRUE(original.disk.Write(10, Pattern(3, 1)).ok());
  const DiskSnapshot snapshot = original.disk.Snapshot();
  ASSERT_TRUE(original.disk.Write(11, Pattern(1, 2)).ok());
  EXPECT_FALSE(original.disk.StateEquals(snapshot));

  TestDisk clone;
  clone.disk.Restore(snapshot);
  EXPECT_TRUE(clone.disk.StateEquals(snapshot));
  EXPECT_EQ(ReadBack(clone.disk, 10, 3), Pattern(3, 1));
  EXPECT_EQ(ReadBack(original.disk, 11), Pattern(1, 2));
}

TEST(SectorStoreTest, WriteToARestoredDiskLeavesTheOriginalUnchanged) {
  TestDisk original;
  ASSERT_TRUE(original.disk.Write(kChunk - 1, Pattern(2, 4)).ok());
  const DiskSnapshot snapshot = original.disk.Snapshot();
  TestDisk clone;
  clone.disk.Restore(snapshot);
  ASSERT_TRUE(clone.disk.Write(kChunk - 1, Pattern(2, 5)).ok());
  clone.disk.DamageSectors(kChunk + 1, 1);

  EXPECT_TRUE(original.disk.StateEquals(snapshot));
  EXPECT_EQ(ReadBack(original.disk, kChunk - 1, 2), Pattern(2, 4));
  EXPECT_FALSE(original.disk.IsDamaged(kChunk + 1));
  EXPECT_FALSE(clone.disk.StateEquals(snapshot));
  // Restoring again undoes every change since.
  clone.disk.Restore(snapshot);
  EXPECT_TRUE(clone.disk.StateEquals(snapshot));
  EXPECT_EQ(ReadBack(clone.disk, kChunk - 1, 2), Pattern(2, 4));
}

// Wild writes and bit rot change a sector's bytes in place, past the
// request path; in a shared chunk they must clone it first.
TEST(SectorStoreTest, InPlaceFaultsIntoASharedChunkCloneIt) {
  TestDisk original;
  ASSERT_TRUE(original.disk.Write(100, Pattern(2, 6)).ok());
  const DiskSnapshot snapshot = original.disk.Snapshot();
  TestDisk clone;
  clone.disk.Restore(snapshot);

  original.disk.WildWrite(100, 42);
  EXPECT_FALSE(original.disk.StateEquals(snapshot));
  EXPECT_TRUE(clone.disk.StateEquals(snapshot));
  EXPECT_EQ(ReadBack(clone.disk, 100), Pattern(1, 6));

  clone.disk.CorruptSector(101, 7);
  EXPECT_FALSE(clone.disk.StateEquals(snapshot));
  EXPECT_NE(ReadBack(clone.disk, 101), ReadBack(original.disk, 101));
  TestDisk fresh;
  fresh.disk.Restore(snapshot);
  EXPECT_EQ(ReadBack(fresh.disk, 100, 2), Pattern(2, 6));
}

TEST(SectorStoreTest, TornWriteIntoASharedChunkLeavesTheSnapshotIntact) {
  TestDisk original;
  ASSERT_TRUE(original.disk.Write(200, Pattern(4, 8)).ok());
  const DiskSnapshot snapshot = original.disk.Snapshot();
  original.disk.ArmCrash(CrashPlan{.at_write_index = 0,
                                   .sectors_completed = 1,
                                   .sectors_damaged = 2,
                                   .drop_writes = {}});
  EXPECT_EQ(original.disk.Write(200, Pattern(4, 9)).code(),
            ErrorCode::kDeviceCrashed);
  original.disk.Reopen();
  EXPECT_TRUE(original.disk.IsDamaged(201));

  TestDisk clone;
  clone.disk.Restore(snapshot);
  EXPECT_FALSE(clone.disk.IsDamaged(201));
  EXPECT_EQ(ReadBack(clone.disk, 200, 4), Pattern(4, 8));
}

TEST(SectorStoreTest, LabelsAreCopyOnWrite) {
  TestDisk original;
  const Label first{.file_uid = 3, .page_number = 1,
                    .type = PageType::kData};
  const Label second{.file_uid = 4, .page_number = 2,
                     .type = PageType::kHeader};
  ASSERT_TRUE(
      original.disk.WriteLabeled(300, Pattern(1, 1), {}, {&first, 1}).ok());
  const DiskSnapshot snapshot = original.disk.Snapshot();
  TestDisk clone;
  clone.disk.Restore(snapshot);
  ASSERT_TRUE(clone.disk
                  .WriteLabeled(300, Pattern(1, 2), {&first, 1},
                                {&second, 1})
                  .ok());
  EXPECT_EQ(original.disk.PeekLabel(300), first);
  EXPECT_EQ(clone.disk.PeekLabel(300), second);
  ASSERT_TRUE(original.disk.WriteLabels(301, {&second, 1}).ok());
  EXPECT_EQ(clone.disk.PeekLabel(301), Label{});
  EXPECT_FALSE(original.disk.StateEquals(snapshot));
}

// The codec streams the store: a decoded or loaded image materializes
// only the chunks that hold something, and an image that does not decode
// leaves the target disk as it was.
TEST(SectorStoreTest, ImagesLoadIntoNullChunksOrNotAtAll) {
  TestDisk original;
  ASSERT_TRUE(original.disk.Write(5, Pattern(1, 1)).ok());
  const Label owned{.file_uid = 8, .page_number = 0,
                    .type = PageType::kData};
  ASSERT_TRUE(original.disk.WriteLabels(3 * kChunk, {&owned, 1}).ok());
  original.disk.DamageSectors(7 * kChunk, 1);
  const DiskSnapshot snapshot = original.disk.Snapshot();
  auto decoded = SimDisk::DecodeImage(
      SimDisk::EncodeImage(TestGeometry(), snapshot), TestGeometry());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->medium.ResidentBytes(), 3 * sizeof(SectorStore::Chunk));
  EXPECT_TRUE(original.disk.StateEquals(*decoded));

  const std::string path = ::testing::TempDir() + "/sector_store.img";
  ASSERT_TRUE(original.disk.SaveImage(path).ok());
  TestDisk loaded;
  ASSERT_TRUE(loaded.disk.LoadImage(path).ok());
  EXPECT_EQ(loaded.disk.ResidentBytesForTest(),
            3 * sizeof(SectorStore::Chunk));
  EXPECT_TRUE(loaded.disk.StateEquals(snapshot));

  // Cut inside the sector data, or saved from another geometry: refused,
  // and the target keeps what it held.
  TestDisk target;
  ASSERT_TRUE(target.disk.Write(9, Pattern(1, 2)).ok());
  const DiskSnapshot before = target.disk.Snapshot();
  std::filesystem::resize_file(path, 20 + 100 * kSectorSize);
  EXPECT_EQ(target.disk.LoadImage(path).code(), ErrorCode::kCorruptMetadata);
  EXPECT_TRUE(target.disk.StateEquals(before));
  VirtualClock other_clock;
  SimDisk other(DiskGeometry{.cylinders = 2, .heads = 1,
                             .sectors_per_track = 4},
                DiskTimingParams{}, &other_clock);
  ASSERT_TRUE(other.SaveImage(path).ok());
  EXPECT_EQ(target.disk.LoadImage(path).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(target.disk.StateEquals(before));
  std::remove(path.c_str());
}

ArrayConfig SmallArray(ArrayMode mode) {
  ArrayConfig config;
  config.mode = mode;
  config.spindles = 2;
  config.chunk_sectors = 4;
  config.member_geometry = TestGeometry();
  return config;
}

// Arrays clone through their members' snapshots: a round trip restores
// every member, and the clone stays isolated from the original.
TEST(SectorStoreTest, ArraySnapshotsRoundTripThroughTheirMembers) {
  for (const ArrayMode mode : {ArrayMode::kStriped, ArrayMode::kMirrored}) {
    SCOPED_TRACE(mode == ArrayMode::kStriped ? "striped" : "mirrored");
    VirtualClock clock;
    DiskArray array(SmallArray(mode), &clock);
    ASSERT_TRUE(array.Write(kChunk - 2, Pattern(8, 11)).ok());
    const DeviceSnapshot snapshot = array.SnapshotDevice();
    EXPECT_TRUE(array.DeviceStateEquals(snapshot));

    VirtualClock clone_clock;
    DiskArray clone(SmallArray(mode), &clone_clock);
    clone.RestoreDevice(snapshot);
    EXPECT_TRUE(clone.DeviceStateEquals(snapshot));
    ASSERT_TRUE(clone.Write(kChunk, Pattern(2, 12)).ok());
    EXPECT_FALSE(clone.DeviceStateEquals(snapshot));
    EXPECT_TRUE(array.DeviceStateEquals(snapshot));
    EXPECT_EQ(ReadBack(array, kChunk - 2, 8), Pattern(8, 11));

    ASSERT_TRUE(array.Write(kChunk - 2, Pattern(8, 13)).ok());
    EXPECT_FALSE(array.DeviceStateEquals(snapshot));
    array.RestoreDevice(snapshot);
    EXPECT_TRUE(array.DeviceStateEquals(snapshot));
    EXPECT_EQ(ReadBack(array, kChunk - 2, 8), Pattern(8, 11));
  }
}

}  // namespace
}  // namespace cedar::sim
