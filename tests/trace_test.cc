#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/bsd/ffs.h"
#include "src/cfs/cfs.h"
#include "src/core/fsd.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/workload/recorder.h"
#include "src/workload/replay.h"
#include "src/workload/trace.h"
#include "src/workload/workload.h"

namespace cedar::workload {
namespace {

TEST(TraceFormatTest, RoundTrip) {
  std::vector<TraceEntry> entries = {
      {TraceOp::kCreate, "a/b.mesa", 1234, 77, 0},
      {TraceOp::kOpen, "a/b.mesa", 0, 0, 0},
      {TraceOp::kClose, "a/b.mesa", 0, 0, 0},
      {TraceOp::kRead, "a/b.mesa", 100, 200, 0},
      {TraceOp::kWrite, "a/b.mesa", 50, 60, 9},
      {TraceOp::kExtend, "a/b.mesa", 4096, 0, 0},
      {TraceOp::kSetKeep, "a/b.mesa", 2, 0, 0},
      {TraceOp::kList, "a/", 0, 0, 0},
      {TraceOp::kTouch, "a/b.mesa", 0, 0, 0},
      {TraceOp::kForce, "", 0, 0, 0},
      {TraceOp::kAdvance, "", 500, 0, 0, 3, 1u << 20},
      {TraceOp::kCheckpoint, "", 0, 0, 0},
      {TraceOp::kShutdown, "", 0, 0, 0},
      {TraceOp::kDelete, "a/b.mesa", ~0ull, ~0ull, ~0ull, 0xFFFF, ~0ull},
  };
  const std::vector<std::uint8_t> bytes = SerializeTraceBinary(entries);
  // Magic, count, then per entry 37 bytes plus the name.
  std::size_t names = 0;
  for (const TraceEntry& entry : entries) {
    names += entry.name.size();
  }
  EXPECT_EQ(bytes.size(), 12 + 37 * entries.size() + names);
  auto parsed = ParseTraceBinary(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(*parsed, entries);
}

// One entry, then every way a CEDWRK02 file can be wrong.
TEST(TraceFormatTest, RejectsWhatNoWriterProduces) {
  const TraceEntry entry{TraceOp::kTouch, "x", 1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> valid = SerializeTraceBinary({&entry, 1});
  ASSERT_TRUE(ParseTraceBinary(valid).ok());
  auto expect_corrupt = [](std::vector<std::uint8_t> bytes) {
    auto parsed = ParseTraceBinary(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), ErrorCode::kCorruptMetadata);
  };
  std::vector<std::uint8_t> bytes = valid;
  bytes[7] = '1';  // CEDWRK01 is not read
  expect_corrupt(bytes);
  bytes = valid;
  bytes[12] = static_cast<std::uint8_t>(TraceOp::kShutdown) + 1;
  expect_corrupt(bytes);
  bytes = valid;
  bytes.push_back(0);
  expect_corrupt(bytes);
  bytes = valid;
  bytes.pop_back();
  expect_corrupt(bytes);
  bytes = valid;
  bytes[8] = 2;  // a second entry the bytes do not hold
  expect_corrupt(bytes);
}

// A count no file of that size can hold is refused before anything is
// sized from it (it once asked for 4G entries and threw std::bad_alloc).
TEST(TraceFormatTest, CountBeyondTheBytesIsCorrupt) {
  const std::vector<std::uint8_t> bytes = {'C', 'E', 'D', 'W', 'R', 'K',
                                           '0', '2', 0xFF, 0xFF, 0xFF, 0xFF};
  auto parsed = ParseTraceBinary(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kCorruptMetadata);
}

core::FsdConfig SmallFsd() {
  core::FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  return config;
}

// The tenant mix with `ops` ops from `seed`, recorded on a fresh FSD.
std::vector<TraceEntry> RecordMix(std::uint32_t ops, std::uint64_t seed) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, SmallFsd());
  CEDAR_CHECK_OK(fsd.Format());
  RecordingFs rec(&fsd, &clock);
  const TenantMix mix{.ops = ops, .files_per_tenant = 20, .seed = seed};
  CEDAR_CHECK_OK(RunTenantMix(&rec, mix,
                              [&](const std::string&, sim::Micros think) {
                                clock.Advance(think);
                                return fsd.Tick();
                              })
                     .status());
  return rec.Trace();
}

TEST(TraceReplayTest, ReplayAgainstFsd) {
  const std::vector<TraceEntry> entries = RecordMix(300, 2024);
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, SmallFsd());
  ASSERT_TRUE(fsd.Format().ok());
  auto stats = ReplayTrace(&fsd, entries, [&](sim::Micros think) {
    clock.Advance(think);
    return fsd.Tick();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->ops, entries.size());
  ASSERT_TRUE(fsd.CheckNameTableInvariants().ok());
}

// The determinism property that makes traces useful for cross-system
// comparison: the same trace leaves identical contents on CFS and FSD.
TEST(TraceReplayTest, SameTraceSameContentsAcrossSystems) {
  const std::vector<TraceEntry> entries = RecordMix(250, 31337);
  // Serialize + reparse to also exercise the trace format end to end.
  auto parsed = ParseTraceBinary(SerializeTraceBinary(entries));
  ASSERT_TRUE(parsed.ok());

  auto run = [&](fs::FileSystem& file_system, sim::VirtualClock& clock,
                 const std::function<Status()>& tick) {
    auto stats = ReplayTrace(&file_system, *parsed, [&](sim::Micros think) {
      clock.Advance(think);
      return tick();
    });
    CEDAR_CHECK_OK(stats.status());
    std::map<std::string, std::vector<std::uint8_t>> state;
    auto list = file_system.List("t");
    CEDAR_CHECK_OK(list.status());
    for (const auto& info : *list) {
      auto handle = file_system.Open(info.name);
      if (!handle.ok()) {
        continue;
      }
      std::vector<std::uint8_t> contents(handle->byte_size);
      CEDAR_CHECK_OK(file_system.Read(*handle, 0, contents));
      state[info.name + "!" + std::to_string(info.version)] = contents;
    }
    return state;
  };

  sim::VirtualClock clock_a;
  sim::SimDisk disk_a(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_a);
  core::Fsd fsd(&disk_a, SmallFsd());
  ASSERT_TRUE(fsd.Format().ok());
  auto fsd_state = run(fsd, clock_a, [&] { return fsd.Tick(); });

  sim::VirtualClock clock_b;
  sim::SimDisk disk_b(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_b);
  cfs::CfsConfig cfs_config;
  cfs_config.nt_page_count = 64;
  cfs::Cfs cfs(&disk_b, cfs_config);
  ASSERT_TRUE(cfs.Format().ok());
  auto cfs_state = run(cfs, clock_b, [] { return OkStatus(); });

  EXPECT_FALSE(fsd_state.empty());
  EXPECT_EQ(fsd_state, cfs_state);
}

TEST(TraceReplayTest, NotFoundToleratedAndCounted) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, SmallFsd());
  ASSERT_TRUE(fsd.Format().ok());
  const std::vector<TraceEntry> ghosts = {{TraceOp::kOpen, "ghost"},
                                          {TraceOp::kDelete, "ghost"},
                                          {TraceOp::kTouch, "ghost"}};
  auto stats =
      ReplayTrace(&fsd, ghosts, [](sim::Micros) { return OkStatus(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->not_found, 3u);
}

}  // namespace
}  // namespace cedar::workload
