// The continuous checkpoint round and the maintenance/config API around it.
//
// Contracts pinned here:
//   - FsdConfig::Validate() rejects inconsistent combinations (unsatisfiable
//     recovery windows, degenerate sizes), and Format/Mount fail fast on
//     them instead of misbehaving later. The checkpoint round without the
//     commit daemon is valid: both rounds then step on the calling thread.
//   - With both daemons on, 8 mutator threads cannot grow the crash-replay
//     exposure without bound: the daemon advances the durable checkpoint
//     pointer, and once the mutators stop the live log settles under the
//     configured window.
//   - Stepped (inline commit), the round runs before Force() returns, so
//     the window holds after every Force() and the schedule is
//     deterministic.
//   - The daemon stops and restarts across Shutdown/Mount cycles.
//   - ScopedQuiesce is re-entrant on one thread (RunQuiesced can nest, and
//     quiesced entry points like Scrub/Fsck work inside it), and the gate
//     reopens exactly once.
//   - The maintenance surface is driven through fs::FileSystem, not a
//     downcast, and reports kFailedPrecondition when unmounted.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/core/fsd.h"
#include "src/fsapi/file_system.h"
#include "src/obs/metrics.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"

namespace cedar::core {
namespace {

constexpr int kThreads = 8;
constexpr std::uint32_t kWindowSectors = 140;

std::vector<std::uint8_t> Bytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 13);
  }
  return out;
}

FsdConfig CkptConfig() {
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  config.commit.daemon = true;
  config.checkpoint.daemon = true;
  config.checkpoint.window_sectors = kWindowSectors;
  config.checkpoint.batch_pages = 8;
  return config;
}

// ---------------------------------------------------------------------------
// Config validation: inconsistent combinations fail fast at Format/Mount.

TEST(CkptConfigTest, ValidateAcceptsTheDefaultsAndTheCkptConfig) {
  EXPECT_TRUE(FsdConfig{}.Validate().ok());
  EXPECT_TRUE(CkptConfig().Validate().ok());
}

TEST(CkptConfigTest, ValidateAcceptsCheckpointDaemonWithoutCommitDaemon) {
  // Inline commit steps the checkpoint round on the forcing thread.
  FsdConfig config = CkptConfig();
  config.commit.daemon = false;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(CkptConfigTest, ValidateRejectsUnsatisfiableWindows) {
  // Below one clamped commit group: the live log can never drain that far.
  FsdConfig config = CkptConfig();
  config.checkpoint.window_sectors = 16;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalidArgument);
  // Beyond the record area: the window could never trigger.
  config.checkpoint.window_sectors = config.log_sectors;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalidArgument);
}

TEST(CkptConfigTest, ValidateRejectsDegenerateSizes) {
  FsdConfig config;
  config.checkpoint.batch_pages = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalidArgument);

  config = FsdConfig{};
  config.commit.group_records = 0;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalidArgument);

  config = FsdConfig{};
  config.log_sectors = 100;  // below the one-maximal-record-per-third floor
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalidArgument);

  config = FsdConfig{};
  config.cache_frames = 4;
  EXPECT_EQ(config.Validate().code(), ErrorCode::kInvalidArgument);
}

TEST(CkptConfigTest, FormatAndMountFailFastOnInvalidConfig) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  FsdConfig config = CkptConfig();
  config.checkpoint.batch_pages = 0;  // a round could never write a page
  Fsd fsd(&disk, config);
  EXPECT_EQ(fsd.Format().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(fsd.Mount().code(), ErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// The daemon under concurrent mutators.

class CkptTest : public ::testing::Test {
 protected:
  CkptTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        fsd_(&disk_, CkptConfig()) {
    CEDAR_CHECK_OK(fsd_.Format());
  }

  // Waits for the background round triggered by the last force to settle
  // the live log under the window. Returns the final window in bytes.
  std::uint64_t AwaitBoundedWindow() {
    const std::uint64_t bound = std::uint64_t{kWindowSectors} * 512;
    for (int spin = 0; spin < 2000; ++spin) {
      auto window = fsd_.RecoveryWindow();
      CEDAR_CHECK_OK(window.status());
      if (*window <= bound) {
        return *window;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    auto window = fsd_.RecoveryWindow();
    CEDAR_CHECK_OK(window.status());
    return *window;
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  Fsd fsd_;
};

TEST_F(CkptTest, DaemonBoundsRecoveryWindowUnderMutators) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const std::string name = std::string("w").append(std::to_string(t)) +
                                 "/f" + std::to_string(i % 5);
        if (!fsd_.CreateFile(name, Bytes(600, static_cast<std::uint8_t>(i)))
                 .ok()) {
          failures.fetch_add(1);
        }
        if (i % 4 == 3 && !fsd_.Force().ok()) {
          failures.fetch_add(1);
        }
        if (i % 5 == 4 && !fsd_.DeleteFile(name).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(fsd_.Force().ok());

  // The workload wrote far more log than the 400-sector volume holds, so
  // the daemon must have durably advanced the pointer at least once.
  const obs::MetricsSnapshot m = fsd_.SnapshotMetrics();
  EXPECT_GT(m.CounterValue("fsd.ckpt_advances"), 0u)
      << "daemon never advanced the pointer";
  EXPECT_GT(m.CounterValue("fsd.ckpt_batches"), 0u);

  // Once the mutators stop, the last notified round settles the live log
  // under the configured window — a crash now replays a bounded region.
  const std::uint64_t window = AwaitBoundedWindow();
  EXPECT_LE(window, std::uint64_t{kWindowSectors} * 512)
      << "recovery window never settled under the configured bound";

  auto report = fsd_.Fsck();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->violations(), 0u) << report->Summary();
}

TEST_F(CkptTest, DaemonStopsAndRestartsAcrossShutdownMount) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    // A clean Mount reformats the log, so each cycle must prove the daemon
    // restarted by itself: churn until the advance counter moves again.
    auto advances = [&] {
      return fsd_.SnapshotMetrics().CounterValue("fsd.ckpt_advances");
    };
    const std::uint64_t advances_before = advances();
    for (int i = 0; i < 500 && advances() == advances_before; ++i) {
      const std::string name = std::string("c").append(std::to_string(cycle)) +
                               "/f" + std::to_string(i % 9);
      ASSERT_TRUE(
          fsd_.CreateFile(name, Bytes(500, static_cast<std::uint8_t>(i))).ok());
      ASSERT_TRUE(fsd_.Force().ok());
    }
    EXPECT_GT(advances(), advances_before)
        << "daemon did not advance after mount cycle " << cycle;
    ASSERT_TRUE(fsd_.Shutdown().ok());
    // Unmounted: the maintenance surface reports the precondition failure
    // instead of touching stopped machinery.
    EXPECT_EQ(fsd_.RecoveryWindow().status().code(),
              ErrorCode::kFailedPrecondition);
    EXPECT_EQ(fsd_.Checkpoint().code(), ErrorCode::kFailedPrecondition);
    ASSERT_TRUE(fsd_.Mount().ok());
  }
  auto report = fsd_.Fsck();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->violations(), 0u) << report->Summary();
}

TEST_F(CkptTest, ScopedQuiesceIsReentrantOnOneThread) {
  ASSERT_TRUE(fsd_.CreateFile("q/file", Bytes(800, 5)).ok());
  // RunQuiesced nests: the inner scope must not re-close the gate or
  // re-lock force_mu_, and quiesced entry points (Scrub, Fsck take their
  // own ScopedQuiesce) must work inside an outer quiesced scope.
  Status nested = fsd_.RunQuiesced([&] {
    return fsd_.RunQuiesced([&] { return fsd_.Scrub().status(); });
  });
  EXPECT_TRUE(nested.ok()) << nested;
  // The gate reopened exactly once: ordinary mutators proceed.
  EXPECT_TRUE(fsd_.CreateFile("q/after", Bytes(300, 7)).ok());
  EXPECT_TRUE(fsd_.Force().ok());
  auto report = fsd_.Fsck();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->violations(), 0u) << report->Summary();
}

// ---------------------------------------------------------------------------
// The maintenance surface through the portable interface.

TEST_F(CkptTest, MaintenanceSurfaceWorksThroughTheInterface) {
  fs::FileSystem* fs = &fsd_;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(
        fs->CreateFile("m/f" + std::to_string(i),
                       Bytes(700, static_cast<std::uint8_t>(i)))
            .ok());
    if (i % 3 == 2) {
      ASSERT_TRUE(fs->Force().ok());
    }
  }
  ASSERT_TRUE(fs->Force().ok());

  auto before = fs->RecoveryWindow();
  ASSERT_TRUE(before.ok());
  EXPECT_GT(*before, 0u) << "forced updates should leave live log";

  // A synchronous interface checkpoint drains everything but the newest
  // record: the exposure shrinks and the counters move.
  ASSERT_TRUE(fs->Checkpoint().ok());
  auto after = fs->RecoveryWindow();
  ASSERT_TRUE(after.ok());
  EXPECT_LT(*after, *before);

  const fs::MaintenanceStats m = fs->Maintenance();
  EXPECT_EQ(m.log_live_bytes, *after);
  EXPECT_GT(m.log_capacity_bytes, 0u);
  EXPECT_EQ(m.recovery_window_bytes, std::uint64_t{kWindowSectors} * 512);
  EXPECT_GT(m.checkpoint_batches, 0u);
  EXPECT_GT(m.checkpoint_advances, 0u);
}

// ---------------------------------------------------------------------------
// The stepped checkpoint round: inline commit with checkpoint.daemon on. A
// force that pushes the live log past the window requests a round, and
// Force() steps it before returning, so the window holds after EVERY
// Force() and the whole schedule is a function of the operation order.

struct SteppedCkptRun {
  std::uint64_t ckpt_batches = 0;
  std::uint64_t ckpt_pages = 0;
  std::uint64_t disk_writes = 0;
};

SteppedCkptRun RunSteppedCkpt() {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  FsdConfig config = CkptConfig();
  config.commit.daemon = false;
  Fsd fsd(&disk, config);
  CEDAR_CHECK_OK(fsd.Format());
  const std::uint64_t bound = std::uint64_t{kWindowSectors} * 512;
  for (int i = 0; i < 120; ++i) {
    EXPECT_TRUE(fsd.CreateFile("s/f" + std::to_string(i % 9),
                               Bytes(500, static_cast<std::uint8_t>(i)))
                    .ok());
    EXPECT_TRUE(fsd.Force().ok());
    auto window = fsd.RecoveryWindow();
    CEDAR_CHECK_OK(window.status());
    EXPECT_LE(*window, bound) << "after force " << i;
  }
  auto report = fsd.Fsck();
  CEDAR_CHECK_OK(report.status());
  EXPECT_EQ(report->violations(), 0u) << report->Summary();
  const obs::MetricsSnapshot metrics = fsd.SnapshotMetrics();
  SteppedCkptRun run;
  run.ckpt_batches = metrics.CounterValue("fsd.ckpt_batches");
  run.ckpt_pages = metrics.CounterValue("fsd.ckpt_pages");
  run.disk_writes = disk.stats().writes;
  return run;
}

TEST(CkptSteppedTest, WindowHoldsAfterEveryForceAndRunsRepeat) {
  const SteppedCkptRun first = RunSteppedCkpt();
  EXPECT_GT(first.ckpt_batches, 0u) << "no checkpoint round ran";
  EXPECT_GT(first.ckpt_pages, 0u);
  const SteppedCkptRun second = RunSteppedCkpt();
  EXPECT_EQ(second.ckpt_batches, first.ckpt_batches);
  EXPECT_EQ(second.ckpt_pages, first.ckpt_pages);
  EXPECT_EQ(second.disk_writes, first.disk_writes);
}

TEST(CkptFallbackTest, ThirdFlushFallbackCountsWithoutTheDaemon) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  Fsd fsd(&disk, config);
  ASSERT_TRUE(fsd.Format().ok());
  // Cold pages first: leaves in name regions the churn below never touches
  // keep their one logged image until the log wraps back over it. Four
  // names in each of five regions, so the cold names fill leaves of their
  // own rather than sharing one with the churned names.
  for (int i = 0; i < 20; ++i) {
    const std::string name = std::string(1, static_cast<char>('a' + i % 5)) +
                             "a/cold" + std::to_string(i / 5);
    ASSERT_TRUE(
        fsd.CreateFile(name, Bytes(450, static_cast<std::uint8_t>(i))).ok());
  }
  ASSERT_TRUE(fsd.Force().ok());
  // Enough forced metadata churn to wrap the 396-sector record area: with
  // no checkpoint daemon, re-entering the third that still holds the cold
  // pages' images writes them home in the synchronous third-entry
  // checkpoint, and the fallback counter says so.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(fsd.CreateFile("t/f" + std::to_string(i % 7),
                               Bytes(400, static_cast<std::uint8_t>(i)))
                    .ok());
    ASSERT_TRUE(fsd.Force().ok());
  }
  const obs::MetricsSnapshot m = fsd.SnapshotMetrics();
  EXPECT_GT(m.CounterValue("fsd.third_flush_fallbacks"), 0u);
  EXPECT_GT(m.CounterValue("fsd.ckpt_pages"), 0u);
  EXPECT_EQ(m.CounterValue("fsd.ckpt_batches"), 0u);
  EXPECT_EQ(m.CounterValue("fsd.ckpt_advances"), 0u);
  ASSERT_TRUE(fsd.Shutdown().ok());
}


// ---------------------------------------------------------------------------
// Checkpoint victim selection is exact: a frame is tagged with the LSN of
// the commit group holding its logged image. When a force's group follows
// a skip marker, next_lsn() read before the append is the marker's LSN, one
// below the group's — a tag that would send the group's pages home one
// checkpoint (or one lap) early.

TEST(CkptTagTest, GroupAfterSkipMarkerIsTaggedWithItsOwnLsn) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  Fsd fsd(&disk, config);
  ASSERT_TRUE(fsd.Format().ok());
  ASSERT_TRUE(fsd.CreateFile("a", Bytes(300, 1)).ok());
  ASSERT_TRUE(fsd.Force().ok());
  ASSERT_TRUE(fsd.Touch("a").ok());
  ASSERT_TRUE(fsd.Force().ok());
  // Only the newest record's pages stay logged-but-not-home from here on:
  // every force below logs the same pages (the ones Touch("a") dirties).
  ASSERT_TRUE(fsd.Checkpoint().ok());
  bool marker = false;
  for (int i = 0; i < 100 && !marker; ++i) {
    const std::uint64_t markers =
        fsd.SnapshotMetrics().CounterValue("log.markers");
    ASSERT_TRUE(fsd.Touch("a").ok());
    ASSERT_TRUE(fsd.Force().ok());
    marker = fsd.SnapshotMetrics().CounterValue("log.markers") > markers;
  }
  ASSERT_TRUE(marker) << "no force ever needed a skip marker";
  // The maximal checkpoint's target is the newest group — the one right
  // after the marker — so none of its pages may go home.
  const std::uint64_t before =
      fsd.SnapshotMetrics().CounterValue("fsd.ckpt_pages");
  ASSERT_TRUE(fsd.Checkpoint().ok());
  EXPECT_EQ(fsd.SnapshotMetrics().CounterValue("fsd.ckpt_pages"), before);
  ASSERT_TRUE(fsd.Shutdown().ok());
}

// ---------------------------------------------------------------------------
// A name-table page the B-tree frees keeps its logged image until that image
// is home: the parent's logged image, written home by the checkpoint below,
// still points at the page, and the crash loses the uncommitted deletes.

TEST(CkptFreePageTest, FreedLeafReachesHomeBeforeCheckpointDropsIt) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 64;
  config.cache_frames = 512;
  constexpr int kNames = 16;  // enough to fill whole leaves
  {
    Fsd fsd(&disk, config);
    ASSERT_TRUE(fsd.Format().ok());
    ASSERT_TRUE(fsd.CreateFile("zz", Bytes(100, 9)).ok());
    for (int i = 0; i < kNames; ++i) {
      ASSERT_TRUE(fsd.CreateFile("fp/" + std::to_string(10 + i),
                                 Bytes(200, static_cast<std::uint8_t>(i)))
                      .ok());
    }
    ASSERT_TRUE(fsd.Force().ok());
    // A newer record, so the checkpoint drops the one holding the leaves.
    ASSERT_TRUE(fsd.Touch("zz").ok());
    ASSERT_TRUE(fsd.Force().ok());
    for (int i = 0; i < kNames; ++i) {
      ASSERT_TRUE(fsd.DeleteFile("fp/" + std::to_string(10 + i)).ok());
    }
    ASSERT_TRUE(fsd.Checkpoint().ok());
    disk.CrashNow();
  }
  disk.Reopen();
  Fsd recovered(&disk, config);
  ASSERT_TRUE(recovered.Mount().ok());
  auto fsck = recovered.Fsck();
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->Clean()) << fsck->Summary();
  // The deletes were never forced: every name is back.
  auto names = recovered.List("fp/");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), static_cast<std::size_t>(kNames));
}

}  // namespace
}  // namespace cedar::core
