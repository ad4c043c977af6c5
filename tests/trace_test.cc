#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/bsd/ffs.h"
#include "src/cfs/cfs.h"
#include "src/core/fsd.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/crc32.h"
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

// What a volume holds under `prefix`: each file's (name, version, bytes).
using Listing = std::set<std::tuple<std::string, std::uint32_t, std::uint64_t>>;

Listing ListUnder(fs::FileSystem& file_system, std::string_view prefix) {
  auto infos = file_system.List(prefix);
  CEDAR_CHECK_OK(infos.status());
  Listing listing;
  for (const fs::FileInfo& info : *infos) {
    listing.emplace(info.name, info.version, info.byte_size);
  }
  return listing;
}

// The tenant mix with `ops` ops from `seed`, recorded on a fresh FSD;
// `listing`, if set, receives what the recorded run left under "t".
std::vector<TraceEntry> RecordMix(std::uint32_t ops, std::uint64_t seed,
                                  Listing* listing = nullptr) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, SmallFsd());
  CEDAR_CHECK_OK(fsd.Format());
  const TenantMix mix{.ops = ops, .files_per_tenant = 20, .seed = seed};
  std::vector<TraceEntry> trace;
  CEDAR_CHECK_OK(RunTenantMix(
                     &fsd, mix,
                     [&](const std::string&, sim::Micros think) {
                       clock.Advance(think);
                       return fsd.Tick();
                     },
                     &trace, &clock)
                     .status());
  if (listing != nullptr) {
    *listing = ListUnder(fsd, "t");
  }
  return trace;
}

// The recording is pinned bit for bit: the CRC32 below is what the mix's
// trace serialized to when a file-system decorator recorded it, and any
// change to what the mix records, or when, moves it. Replayed on a fresh
// FSD, the trace leaves exactly the files the recorded run left.
TEST(TraceReplayTest, ReplayAgainstFsd) {
  Listing recorded;
  const std::vector<TraceEntry> entries = RecordMix(300, 2024, &recorded);
  EXPECT_EQ(Crc32(SerializeTraceBinary(entries)), 0x143f49bdu);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i].vtime_us, entries[i - 1].vtime_us) << i;
  }
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
  EXPECT_FALSE(recorded.empty());
  EXPECT_EQ(ListUnder(fsd, "t"), recorded);
}

// Every op a trace speaks, each at least once, replays on a fresh volume:
// advance thinks, and shutdown leaves a volume that mounts clean.
TEST(TraceReplayTest, ReplaySpeaksTheWholeVocabulary) {
  const std::vector<TraceEntry> trace = {
      {TraceOp::kCreate, "v/a", 1000, 7},
      {TraceOp::kOpen, "v/a"},
      {TraceOp::kRead, "v/a", 0, 100},
      {TraceOp::kWrite, "v/a", 200, 50, 8},
      {TraceOp::kExtend, "v/a", 500},
      {TraceOp::kClose, "v/a"},
      {TraceOp::kList, "v/"},
      {TraceOp::kAdvance, "", 25},
      {TraceOp::kTouch, "v/a"},
      {TraceOp::kSetKeep, "v/a", 2},
      {TraceOp::kCreate, "v/b", 50, 8},
      {TraceOp::kDelete, "v/b"},
      {TraceOp::kForce, ""},
      {TraceOp::kCheckpoint, ""},
      {TraceOp::kShutdown, ""},
  };
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, SmallFsd());
  ASSERT_TRUE(fsd.Format().ok());
  sim::Micros thought = 0;
  auto stats = ReplayTrace(&fsd, trace, [&](sim::Micros think) {
    thought += think;
    return OkStatus();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->ops, trace.size());
  EXPECT_EQ(stats->not_found, 0u);
  EXPECT_EQ(thought, 25 * sim::kMillisecond);
  ASSERT_TRUE(fsd.Mount().ok());  // the trace shut the volume down
  auto a = fsd.Open("v/a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->byte_size, 1500u);
  auto listed = fsd.List("v/");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ(listed->front().keep, 2u);
  EXPECT_EQ(fsd.Open("v/b").status().code(), ErrorCode::kNotFound);
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
