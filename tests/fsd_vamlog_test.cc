// Tests for the VAM-logging extension (paper section 5.3: "YAM logging
// would greatly decrease worst case crash recovery time from about twenty
// five seconds to about two seconds").
//
// Contract: with vam_logging on, crash recovery takes the fast path (base
// snapshot + logged deltas) and produces EXACTLY the same allocation state
// as the slow name-table scan would; a torn force may leak sectors but can
// never double-allocate.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/core/vam.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/random.h"

namespace cedar::core {
namespace {

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t seed) {
  return std::vector<std::uint8_t>(n, seed);
}

FsdConfig Config(bool vam_logging) {
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  config.durability.vam_logging = vam_logging;
  return config;
}

TEST(VamDeltaTest, SerializeParseRoundTrip) {
  std::vector<VamDelta> deltas;
  for (std::uint32_t i = 0; i < 130; ++i) {  // spans 3 pages
    deltas.push_back(VamDelta{
        .op = static_cast<VamDelta::Op>(i % 4), .start = i * 7, .count = i});
  }
  auto pages = SerializeDeltas(deltas);
  EXPECT_EQ(pages.size(), 3u);
  std::vector<VamDelta> parsed;
  for (const auto& page : pages) {
    ASSERT_EQ(page.size(), 512u);
    ASSERT_TRUE(ParseDeltas(page, /*total_sectors=*/4096, /*nt_pages=*/4096,
                            &parsed)
                    .ok());
  }
  ASSERT_EQ(parsed.size(), deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_EQ(parsed[i].op, deltas[i].op);
    EXPECT_EQ(parsed[i].start, deltas[i].start);
    EXPECT_EQ(parsed[i].count, deltas[i].count);
  }
}

TEST(VamDeltaTest, CorruptPageRejected) {
  auto pages = SerializeDeltas({{VamDelta{}}});
  pages[0][3] ^= 0x10;
  std::vector<VamDelta> parsed;
  EXPECT_FALSE(ParseDeltas(pages[0], 4096, 4096, &parsed).ok());
}

class VamLoggingTest : public ::testing::Test {
 protected:
  VamLoggingTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        fsd_(std::make_unique<Fsd>(&disk_, Config(true))) {
    CEDAR_CHECK_OK(fsd_->Format());
  }

  Fsd& CrashAndRemount(bool vam_logging = true) {
    disk_.CrashNow();
    disk_.Reopen();
    fsd_ = std::make_unique<Fsd>(&disk_, Config(vam_logging));
    CEDAR_CHECK_OK(fsd_->Mount());
    return *fsd_;
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  std::unique_ptr<Fsd> fsd_;
};

TEST_F(VamLoggingTest, FastPathTakenAndStateMatchesRebuild) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fsd_->CreateFile("f/" + std::to_string(i),
                                 Bytes(rng.Between(1, 4000),
                                       static_cast<std::uint8_t>(i)))
                    .ok());
  }
  for (int i = 0; i < 50; i += 4) {
    ASSERT_TRUE(fsd_->DeleteFile("f/" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(fsd_->Force().ok());
  const std::uint32_t live_free = fsd_->FreeSectors();

  // Fast path.
  Fsd& fast = CrashAndRemount(/*vam_logging=*/true);
  EXPECT_EQ(fast.SnapshotMetrics().CounterValue("fsd.fast_recoveries"), 1u);
  EXPECT_EQ(fast.FreeSectors(), live_free);

  // The slow path over the same image agrees exactly.
  disk_.CrashNow();
  disk_.Reopen();
  Fsd slow(&disk_, Config(false));
  ASSERT_TRUE(slow.Mount().ok());
  EXPECT_EQ(slow.SnapshotMetrics().CounterValue("fsd.fast_recoveries"), 0u);
  EXPECT_EQ(slow.FreeSectors(), live_free);
}

TEST_F(VamLoggingTest, FastRecoveryDoesNotScanNameTable) {
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(fsd_->CreateFile("g/" + std::to_string(i), Bytes(800, 1)).ok());
  }
  ASSERT_TRUE(fsd_->Force().ok());

  disk_.CrashNow();
  disk_.Reopen();
  sim::Micros t0 = clock_.now();
  Fsd fast(&disk_, Config(true));
  ASSERT_TRUE(fast.Mount().ok());
  const sim::Micros fast_time = clock_.now() - t0;
  EXPECT_EQ(fast.SnapshotMetrics().CounterValue("fsd.fast_recoveries"), 1u);

  disk_.CrashNow();
  disk_.Reopen();
  t0 = clock_.now();
  Fsd slow(&disk_, Config(false));
  ASSERT_TRUE(slow.Mount().ok());
  const sim::Micros slow_time = clock_.now() - t0;

  // The fast path skips the name-table preload and the per-entry rebuild
  // CPU (60 entries x 1.8 ms here; ~20 s at the paper's scale).
  EXPECT_LT(fast_time, slow_time);
}

TEST_F(VamLoggingTest, SurvivesLogWrapWithBaseResnapshots) {
  // Enough churn to wrap the tiny log several times; every third entry
  // refreshes the base snapshot.
  Rng rng(12);
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(fsd_->CreateFile("w/" + std::to_string(rng.Below(40)),
                                   Bytes(300, static_cast<std::uint8_t>(i)))
                      .ok());
    }
    clock_.Advance(600 * sim::kMillisecond);
    ASSERT_TRUE(fsd_->Tick().ok());
  }
  ASSERT_TRUE(fsd_->Force().ok());
  ASSERT_GE(fsd_->SnapshotMetrics().CounterValue("log.third_entries"), 1u);
  const std::uint32_t live_free = fsd_->FreeSectors();

  Fsd& after = CrashAndRemount();
  EXPECT_EQ(after.SnapshotMetrics().CounterValue("fsd.fast_recoveries"), 1u);
  EXPECT_EQ(after.FreeSectors(), live_free);
  EXPECT_TRUE(after.CheckNameTableInvariants().ok());
}

TEST_F(VamLoggingTest, UncommittedWorkLeaksAtMostNeverDoubleAllocates) {
  ASSERT_TRUE(fsd_->CreateFile("base", Bytes(2000, 1)).ok());
  ASSERT_TRUE(fsd_->Force().ok());
  // Uncommitted create + delete churn, then crash mid-everything.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fsd_->CreateFile("u/" + std::to_string(i), Bytes(900, 2)).ok());
  }
  Fsd& after = CrashAndRemount();
  // Everything surviving must be fully readable (no cross-allocation).
  auto list = after.List("");
  ASSERT_TRUE(list.ok());
  for (const auto& info : *list) {
    auto handle = after.Open(info.name);
    ASSERT_TRUE(handle.ok()) << info.name;
    std::vector<std::uint8_t> out(handle->byte_size);
    EXPECT_TRUE(after.Read(*handle, 0, out).ok()) << info.name;
  }
  // New files land on sectors that never collide with survivors.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        after.CreateFile("post/" + std::to_string(i), Bytes(1500, 3)).ok());
  }
  ASSERT_TRUE(after.Force().ok());
  auto base_handle = after.Open("base");
  ASSERT_TRUE(base_handle.ok());
  std::vector<std::uint8_t> out(2000);
  ASSERT_TRUE(after.Read(*base_handle, 0, out).ok());
  EXPECT_EQ(out, Bytes(2000, 1));
}

TEST_F(VamLoggingTest, CleanShutdownAndRemountStillWork) {
  // Mid-session base snapshots share the save region with the shutdown
  // save; the clean-mount path must still load correctly.
  Rng rng(33);
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(fsd_->CreateFile("c/" + std::to_string(round),
                                 Bytes(rng.Between(1, 3000), 1))
                    .ok());
    clock_.Advance(600 * sim::kMillisecond);
    ASSERT_TRUE(fsd_->Tick().ok());
  }
  const std::uint32_t live_free = fsd_->FreeSectors();
  ASSERT_TRUE(fsd_->Shutdown().ok());
  Fsd again(&disk_, Config(true));
  ASSERT_TRUE(again.Mount().ok());
  EXPECT_EQ(again.FreeSectors(), live_free);
  // Clean path, no recovery.
  EXPECT_EQ(again.SnapshotMetrics().CounterValue("fsd.fast_recoveries"), 0u);
  auto handle = again.Open("c/7");
  ASSERT_TRUE(handle.ok());
}

TEST_F(VamLoggingTest, DamagedBaseFallsBackToRebuild) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(fsd_->CreateFile("d/" + std::to_string(i), Bytes(500, 1)).ok());
  }
  ASSERT_TRUE(fsd_->Force().ok());
  const std::uint32_t live_free = fsd_->FreeSectors();
  disk_.CrashNow();
  disk_.Reopen();
  // Corrupt the VAM base header sector: fast path must refuse, slow path
  // must still produce the right answer.
  disk_.DamageSectors(fsd_->layout().vam_base, 1);
  Fsd after(&disk_, Config(true));
  ASSERT_TRUE(after.Mount().ok());
  EXPECT_EQ(after.SnapshotMetrics().CounterValue("fsd.fast_recoveries"), 0u);
  EXPECT_EQ(after.FreeSectors(), live_free);
}

// Crash matrix with VAM logging on: the same contract as the base matrix.
class VamLogCrashMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(VamLogCrashMatrixTest, ConsistentAfterCrashAtAnyWrite) {
  const int crash_write = GetParam();
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  auto fsd = std::make_unique<Fsd>(&disk, Config(true));
  ASSERT_TRUE(fsd->Format().ok());

  std::map<std::string, std::vector<std::uint8_t>> durable;
  for (int i = 0; i < 8; ++i) {
    const std::string name = "base/f" + std::to_string(i);
    auto contents = Bytes(150 + i * 31, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(fsd->CreateFile(name, contents).ok());
    durable[name] = contents;
  }
  ASSERT_TRUE(fsd->Force().ok());

  disk.ArmCrash(sim::CrashPlan{
      .at_write_index = static_cast<std::uint64_t>(crash_write),
      .sectors_completed = 1,
      .sectors_damaged = 1,
      .drop_writes = {}});

  Rng rng(static_cast<std::uint64_t>(crash_write) * 13 + 5);
  Status status = OkStatus();
  for (int step = 0; step < 500 && status.ok(); ++step) {
    const std::string name = "churn/f" + std::to_string(rng.Below(15));
    switch (rng.Below(4)) {
      case 0:
      case 1:
        status = fsd->CreateFile(name, Bytes(rng.Between(1, 1200),
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
  ASSERT_EQ(status.code(), ErrorCode::kDeviceCrashed);

  disk.Reopen();
  auto after = std::make_unique<Fsd>(&disk, Config(true));
  ASSERT_TRUE(after->Mount().ok());
  ASSERT_TRUE(after->CheckNameTableInvariants().ok());
  for (const auto& [name, contents] : durable) {
    auto handle = after->Open(name);
    ASSERT_TRUE(handle.ok()) << name;
    std::vector<std::uint8_t> out(handle->byte_size);
    ASSERT_TRUE(after->Read(*handle, 0, out).ok()) << name;
    EXPECT_EQ(out, contents) << name;
  }
  auto survivors = after->List("churn/");
  ASSERT_TRUE(survivors.ok());
  for (const auto& info : *survivors) {
    auto handle = after->Open(info.name);
    ASSERT_TRUE(handle.ok()) << info.name;
    std::vector<std::uint8_t> out(handle->byte_size);
    EXPECT_TRUE(after->Read(*handle, 0, out).ok()) << info.name;
  }
  ASSERT_TRUE(after->CreateFile("post/alive", Bytes(100, 0)).ok());
  ASSERT_TRUE(after->Force().ok());
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, VamLogCrashMatrixTest,
                         ::testing::Range(0, 48, 3));

}  // namespace
}  // namespace cedar::core
