// DiskArray: striping/mirroring data placement, parallel time accounting,
// replica fallback, crash cuts at member-write granularity, and the
// beyond-2^32 stripe arithmetic.

#include "src/sim/array.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/sim/geometry.h"
#include "src/sim/timing.h"

namespace cedar::sim {
namespace {

ArrayConfig SmallArray(ArrayMode mode, std::uint32_t spindles,
                       std::uint32_t chunk = 4) {
  ArrayConfig config;
  config.mode = mode;
  config.spindles = spindles;
  config.chunk_sectors = chunk;
  config.member_geometry = TestGeometry();
  return config;
}

std::vector<std::uint8_t> Pattern(std::uint32_t sectors, std::uint8_t seed) {
  std::vector<std::uint8_t> data(sectors * kSectorSize);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return data;
}

TEST(StripeMapTest, ChunkedRoundRobin) {
  const ArrayConfig config = SmallArray(ArrayMode::kStriped, 4, 8);
  // Chunk c of the logical space lands on spindle c % 4, at member chunk
  // c / 4.
  EXPECT_EQ(StripeMap(config, 0).spindle, 0u);
  EXPECT_EQ(StripeMap(config, 0).member_lba, 0u);
  EXPECT_EQ(StripeMap(config, 7).spindle, 0u);
  EXPECT_EQ(StripeMap(config, 7).member_lba, 7u);
  EXPECT_EQ(StripeMap(config, 8).spindle, 1u);
  EXPECT_EQ(StripeMap(config, 8).member_lba, 0u);
  EXPECT_EQ(StripeMap(config, 31).spindle, 3u);
  EXPECT_EQ(StripeMap(config, 31).member_lba, 7u);
  EXPECT_EQ(StripeMap(config, 32).spindle, 0u);
  EXPECT_EQ(StripeMap(config, 32).member_lba, 8u);
}

TEST(StripeMapTest, SurvivesBeyondFourGigaSectors) {
  // Pure arithmetic probe: logical addresses past 2^32 must not wrap when
  // split into (spindle, member lba). Before the 64-bit Lba promotion the
  // chunk index computation truncated.
  const ArrayConfig config = SmallArray(ArrayMode::kStriped, 4, 8);
  const Lba logical = (Lba{1} << 33) + 13;  // chunk (2^33+13)/8 = 2^30+1
  const StripeTarget t = StripeMap(config, logical);
  const Lba chunk_index = logical / 8;
  EXPECT_EQ(t.spindle, chunk_index % 4);
  EXPECT_EQ(t.member_lba, (chunk_index / 4) * 8 + logical % 8);
  EXPECT_GT(t.member_lba, Lba{1} << 30);  // did not truncate to 32 bits
  // The very first sector past the 4 G boundary.
  const StripeTarget b = StripeMap(config, Lba{1} << 32);
  EXPECT_EQ(b.member_lba, (Lba{1} << 30) + 0);
  EXPECT_EQ(b.spindle, ((Lba{1} << 32) / 8) % 4);
}

TEST(DiskArrayTest, StripedGeometryAggregatesCapacity) {
  VirtualClock clock;
  DiskArray striped(SmallArray(ArrayMode::kStriped, 4), &clock);
  EXPECT_EQ(striped.geometry().TotalSectors(),
            TestGeometry().TotalSectors() * 4);
  EXPECT_EQ(striped.spindle_count(), 4u);

  DiskArray mirrored(SmallArray(ArrayMode::kMirrored, 2), &clock);
  EXPECT_EQ(mirrored.geometry().TotalSectors(),
            TestGeometry().TotalSectors());
}

TEST(DiskArrayTest, StripedRoundTripAcrossChunkBoundaries) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kStriped, 2), &clock);
  // 11 sectors starting mid-chunk: spans both members several times.
  const std::vector<std::uint8_t> data = Pattern(11, 7);
  ASSERT_TRUE(array.Write(2, data).ok());
  std::vector<std::uint8_t> back(data.size());
  ASSERT_TRUE(array.Read(2, back).ok());
  EXPECT_EQ(back, data);
  // Both spindles serviced member requests.
  EXPECT_GT(array.SpindleStats(0).writes, 0u);
  EXPECT_GT(array.SpindleStats(1).writes, 0u);
  EXPECT_EQ(array.stats().writes,
            array.SpindleStats(0).writes + array.SpindleStats(1).writes);
}

TEST(DiskArrayTest, StripedParallelismBeatsSerialService) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kStriped, 4), &clock);
  const std::vector<std::uint8_t> data = Pattern(64, 3);
  const Micros before = clock.now();
  ASSERT_TRUE(array.Write(0, data).ok());
  const Micros elapsed = clock.now() - before;
  // The spindles worked concurrently: summed busy time exceeds the elapsed
  // logical time (this is the whole point of the array).
  EXPECT_GT(array.stats().busy_us, elapsed);
}

TEST(DiskArrayTest, MirroredWritesAllReplicasReadsRoundRobin) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kMirrored, 2), &clock);
  const std::vector<std::uint8_t> data = Pattern(4, 9);
  ASSERT_TRUE(array.Write(10, data).ok());
  EXPECT_EQ(array.SpindleStats(0).writes, 1u);
  EXPECT_EQ(array.SpindleStats(1).writes, 1u);

  std::vector<std::uint8_t> back(data.size());
  ASSERT_TRUE(array.Read(10, back).ok());
  ASSERT_TRUE(array.Read(10, back).ok());
  EXPECT_EQ(back, data);
  // Round-robin load balancing: two reads, one per replica.
  EXPECT_EQ(array.SpindleStats(0).reads, 1u);
  EXPECT_EQ(array.SpindleStats(1).reads, 1u);
}

TEST(DiskArrayTest, MirroredReadFallsBackWhenOneReplicaDead) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kMirrored, 2), &clock);
  const std::vector<std::uint8_t> data = Pattern(4, 5);
  ASSERT_TRUE(array.Write(20, data).ok());
  // Kill replica 0 for this range; strict reads must still succeed via
  // replica 1, every time, regardless of the round-robin cursor.
  for (Lba lba = 20; lba < 24; ++lba) {
    array.member(0).InjectPersistentFault(lba, FaultMode::kDead);
  }
  for (int i = 0; i < 4; ++i) {
    std::vector<std::uint8_t> back(data.size());
    ASSERT_TRUE(array.Read(20, back).ok()) << "read " << i;
    EXPECT_EQ(back, data);
  }
}

TEST(DiskArrayTest, MirroredHarvestMergesAcrossReplicas) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kMirrored, 2), &clock);
  const std::vector<std::uint8_t> data = Pattern(4, 11);
  ASSERT_TRUE(array.Write(30, data).ok());
  // Damage different sectors on each replica: no single replica can serve
  // the whole request, but between them every sector has a healthy copy.
  array.member(0).DamageSectors(31, 1);
  array.member(1).DamageSectors(33, 1);
  for (int i = 0; i < 2; ++i) {  // both round-robin phases
    std::vector<std::uint8_t> back(data.size());
    std::vector<std::uint32_t> bad;
    ASSERT_TRUE(array.Read(30, back, &bad).ok());
    EXPECT_TRUE(bad.empty()) << "sector with a healthy copy reported bad";
    EXPECT_EQ(back, data);
  }
  // Only when EVERY replica of a sector is gone is it reported bad.
  array.member(1).DamageSectors(31, 1);
  std::vector<std::uint8_t> back(data.size());
  std::vector<std::uint32_t> bad;
  ASSERT_TRUE(array.Read(30, back, &bad).ok());
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 1u);  // request-relative index of lba 31
}

TEST(DiskArrayTest, TracerAttributesSpindles) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kStriped, 2), &clock);
  obs::DiskTracer tracer;
  array.set_tracer(&tracer);
  ASSERT_TRUE(array.Write(0, Pattern(8, 1)).ok());
  // The 8-sector write spans both 4-sector chunks: each spindle services
  // one member request, and the spindle column names it.
  std::uint64_t write_events = 0;
  std::vector<std::uint64_t> per_spindle(2, 0);
  for (const obs::TraceEvent& ev : tracer.Events()) {
    ASSERT_LT(ev.spindle, 2u);
    ++per_spindle[ev.spindle];
    if (ev.kind == obs::DiskOpKind::kWrite) {
      ++write_events;
    }
  }
  EXPECT_GT(per_spindle[0], 0u);
  EXPECT_GT(per_spindle[1], 0u);
  // Member-level write events match member-level stats — the unit contract
  // the crash harness depends on.
  EXPECT_EQ(write_events, array.stats().writes);
}

TEST(DiskArrayTest, CrashCutTearsOneStripeChunk) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kStriped, 2), &clock);
  const std::vector<std::uint8_t> data = Pattern(8, 21);
  // Member writes for an 8-sector write at lba 0 with chunk 4: index 0 =
  // spindle 0 sectors 0-3, index 1 = spindle 1 sectors 4-7. Crash at index
  // 1 with 2 sectors completed: the first chunk persists whole, the second
  // tears — a torn stripe.
  CrashPlan plan;
  plan.at_write_index = 1;
  plan.sectors_completed = 2;
  array.ArmCrash(plan);
  const Status status = array.Write(0, data);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kDeviceCrashed);
  EXPECT_TRUE(array.crashed());

  array.Reopen();
  std::vector<std::uint8_t> back(data.size());
  ASSERT_TRUE(array.Read(0, back).ok());
  // Chunk 0 (logical sectors 0-3) persisted fully.
  EXPECT_TRUE(std::equal(back.begin(), back.begin() + 4 * kSectorSize,
                         data.begin()));
  // The torn chunk's prefix (logical sectors 4-5) persisted; its tail did
  // not (reads back as the old medium contents — zeros on a fresh array).
  EXPECT_TRUE(std::equal(back.begin() + 4 * kSectorSize,
                         back.begin() + 6 * kSectorSize,
                         data.begin() + 4 * kSectorSize));
  const std::vector<std::uint8_t> zeros(2 * kSectorSize, 0);
  EXPECT_TRUE(std::equal(back.begin() + 6 * kSectorSize, back.end(),
                         zeros.begin()));
}

TEST(DiskArrayTest, CrashCutBetweenMirrorReplicasDiverges) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kMirrored, 2), &clock);
  // Crash on the second replica write (index 1), nothing transferred:
  // replica 0 has the new data, replica 1 does not.
  CrashPlan plan;
  plan.at_write_index = 1;
  array.ArmCrash(plan);
  const std::vector<std::uint8_t> data = Pattern(2, 33);
  ASSERT_EQ(array.Write(40, data).code(), ErrorCode::kDeviceCrashed);
  array.Reopen();

  std::vector<std::uint8_t> replica0(data.size());
  std::vector<std::uint8_t> replica1(data.size());
  ASSERT_TRUE(array.member(0).Read(40, replica0).ok());
  ASSERT_TRUE(array.member(1).Read(40, replica1).ok());
  EXPECT_EQ(replica0, data);
  EXPECT_EQ(replica1, std::vector<std::uint8_t>(data.size(), 0));
}

TEST(DiskArrayTest, SnapshotRestoreRoundTrips) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kStriped, 2), &clock);
  ASSERT_TRUE(array.Write(0, Pattern(8, 17)).ok());
  const DeviceSnapshot snapshot = array.SnapshotDevice();
  EXPECT_TRUE(array.DeviceStateEquals(snapshot));

  ASSERT_TRUE(array.Write(8, Pattern(4, 18)).ok());
  array.member(0).DamageSectors(1, 1);
  EXPECT_FALSE(array.DeviceStateEquals(snapshot));

  array.RestoreDevice(snapshot);
  EXPECT_TRUE(array.DeviceStateEquals(snapshot));
  std::vector<std::uint8_t> back(8 * kSectorSize);
  ASSERT_TRUE(array.Read(0, back).ok());
  EXPECT_EQ(back, Pattern(8, 17));
}

TEST(DiskArrayTest, SingleSpindleStripedMatchesPlainDisk) {
  // Degenerate 1-member striped array: identical request stream (the chunk
  // runs coalesce back into whole requests), so identical timing to a bare
  // SimDisk over the same schedule.
  VirtualClock array_clock;
  DiskArray array(SmallArray(ArrayMode::kStriped, 1), &array_clock);
  VirtualClock disk_clock;
  SimDisk disk(TestGeometry(), DiskTimingParams{}, &disk_clock);

  const std::vector<std::uint8_t> data = Pattern(24, 29);
  ASSERT_TRUE(array.Write(5, data).ok());
  ASSERT_TRUE(disk.Write(5, data).ok());
  EXPECT_EQ(array.stats().writes, disk.stats().writes);
  EXPECT_EQ(array_clock.now(), disk_clock.now());
}

// Logical damage on a striped array lands on the one member that backs
// each sector (a two-sector run may straddle a chunk boundary), and a
// rewrite of the logical range heals it.
TEST(DiskArrayTest, StripedDamageHitsTheBackingMemberAndHealsOnRewrite) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kStriped, 2), &clock);
  ASSERT_TRUE(array.Write(0, Pattern(8, 41)).ok());
  array.DamageSectors(3, 2);  // logical 3 on spindle 0, logical 4 on 1
  EXPECT_TRUE(array.IsDamaged(3));
  EXPECT_TRUE(array.IsDamaged(4));
  EXPECT_FALSE(array.IsDamaged(2));
  EXPECT_FALSE(array.IsDamaged(5));
  EXPECT_TRUE(array.member(0).IsDamaged(3));
  EXPECT_TRUE(array.member(1).IsDamaged(0));
  EXPECT_FALSE(array.member(1).IsDamaged(3));
  std::vector<std::uint8_t> back(8 * kSectorSize);
  EXPECT_EQ(array.Read(0, back).code(), ErrorCode::kSectorDamaged);

  ASSERT_TRUE(array.Write(0, Pattern(8, 42)).ok());
  EXPECT_FALSE(array.IsDamaged(3));
  EXPECT_FALSE(array.IsDamaged(4));
  ASSERT_TRUE(array.Read(0, back).ok());
  EXPECT_EQ(back, Pattern(8, 42));
}

// On a mirrored array logical damage hits every replica, and a sector
// counts as damaged only while no replica holds a healthy copy.
TEST(DiskArrayTest, MirroredSectorIsDamagedOnlyWhenEveryReplicaIs) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kMirrored, 2), &clock);
  ASSERT_TRUE(array.Write(10, Pattern(4, 43)).ok());
  array.DamageSectors(10, 2);
  EXPECT_TRUE(array.IsDamaged(10));
  EXPECT_TRUE(array.IsDamaged(11));
  EXPECT_TRUE(array.member(0).IsDamaged(11));
  EXPECT_TRUE(array.member(1).IsDamaged(11));
  EXPECT_FALSE(array.IsDamaged(12));

  array.member(0).DamageSectors(12, 1);
  EXPECT_FALSE(array.IsDamaged(12));
  array.member(1).DamageSectors(12, 1);
  EXPECT_TRUE(array.IsDamaged(12));

  ASSERT_TRUE(array.Write(10, Pattern(2, 44)).ok());
  EXPECT_FALSE(array.IsDamaged(10));
  EXPECT_FALSE(array.IsDamaged(11));
  EXPECT_TRUE(array.IsDamaged(12));
}

// CrashNow takes the array and every member down between requests: each
// request fails with kDeviceCrashed until Reopen, and the medium survives.
TEST(DiskArrayTest, CrashNowFailsRequestsUntilReopen) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kStriped, 2), &clock);
  ASSERT_TRUE(array.Write(0, Pattern(8, 45)).ok());
  array.CrashNow();
  EXPECT_TRUE(array.crashed());
  EXPECT_TRUE(array.member(0).crashed());
  EXPECT_TRUE(array.member(1).crashed());
  std::vector<std::uint8_t> back(8 * kSectorSize);
  EXPECT_EQ(array.Read(0, back).code(), ErrorCode::kDeviceCrashed);
  EXPECT_EQ(array.Write(0, Pattern(8, 46)).code(),
            ErrorCode::kDeviceCrashed);

  array.Reopen();
  EXPECT_FALSE(array.crashed());
  EXPECT_FALSE(array.member(1).crashed());
  ASSERT_TRUE(array.Read(0, back).ok());
  EXPECT_EQ(back, Pattern(8, 45));
}

// SaveImage writes one image per member: member 0 at the path, member i
// from 1 on at path.s<i>. Each loads back into a SimDisk of the member
// geometry that equals that member, damage map included.
TEST(DiskArrayTest, SaveImageWritesOneLoadableImagePerMember) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kStriped, 3), &clock);
  ASSERT_TRUE(array.Write(0, Pattern(24, 47)).ok());
  array.member(2).DamageSectors(1, 1);
  const std::string path = ::testing::TempDir() + "/array_test.img";
  ASSERT_TRUE(array.SaveImage(path).ok());
  for (std::uint32_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("member " + std::to_string(i));
    const std::string member_path =
        i == 0 ? path : path + ".s" + std::to_string(i);
    VirtualClock member_clock;
    SimDisk loaded(TestGeometry(), DiskTimingParams{}, &member_clock);
    ASSERT_TRUE(loaded.LoadImage(member_path).ok());
    EXPECT_TRUE(loaded.StateEquals(array.member(i).Snapshot()));
    std::filesystem::remove(member_path);
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".s0"));
  EXPECT_FALSE(std::filesystem::exists(path + ".s3"));
}

TEST(DiskArrayTest, ResetStatsZeroesEveryMember) {
  VirtualClock clock;
  DiskArray array(SmallArray(ArrayMode::kStriped, 2), &clock);
  ASSERT_TRUE(array.Write(0, Pattern(8, 48)).ok());
  std::vector<std::uint8_t> back(8 * kSectorSize);
  ASSERT_TRUE(array.Read(0, back).ok());
  ASSERT_GT(array.stats().busy_us, 0u);
  array.ResetStats();
  EXPECT_EQ(array.stats().reads, 0u);
  EXPECT_EQ(array.stats().writes, 0u);
  EXPECT_EQ(array.stats().busy_us, 0u);
  EXPECT_EQ(array.SpindleStats(0).writes, 0u);
  EXPECT_EQ(array.SpindleStats(1).reads, 0u);
}

}  // namespace
}  // namespace cedar::sim
