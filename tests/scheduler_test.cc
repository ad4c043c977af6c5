// IoScheduler: C-SCAN ordering, adjacent-LBA coalescing, batch stats, and
// the crash-safety argument for coalesced home writes (a torn multi-sector
// flush write must still recover via the log).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/sim/scheduler.h"

namespace cedar {
namespace {

std::vector<std::uint8_t> Sector(std::uint8_t fill) {
  return std::vector<std::uint8_t>(sim::kSectorSize, fill);
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_) {}

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
};

TEST_F(SchedulerTest, PlanSortsIntoOneAscendingSweep) {
  sim::IoScheduler sched(&disk_);
  std::vector<std::vector<std::uint8_t>> data;
  for (int i = 0; i < 4; ++i) {
    data.push_back(Sector(static_cast<std::uint8_t>(i)));
  }
  // Head starts at cylinder 0, so the sweep is simply ascending.
  sched.QueueWrite(900, data[0]);
  sched.QueueWrite(100, data[1]);
  sched.QueueWrite(500, data[2]);
  sched.QueueWrite(300, data[3]);
  const auto plan = sched.PlanSegments();
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].first, 100u);
  EXPECT_EQ(plan[1].first, 300u);
  EXPECT_EQ(plan[2].first, 500u);
  EXPECT_EQ(plan[3].first, 900u);
}

TEST_F(SchedulerTest, CscanStartsAtHeadAndWrapsOnce) {
  // Park the head mid-disk, then queue requests on both sides: the sweep
  // must service the ones ahead of the head first, then wrap to the low end.
  const sim::Lba mid = disk_.geometry().CylinderStart(25);
  std::vector<std::uint8_t> parked = Sector(0);
  CEDAR_CHECK_OK(disk_.Write(mid, parked));

  sim::IoScheduler sched(&disk_);
  std::vector<std::vector<std::uint8_t>> data;
  for (int i = 0; i < 4; ++i) {
    data.push_back(Sector(static_cast<std::uint8_t>(i)));
  }
  sched.QueueWrite(10, data[0]);
  sched.QueueWrite(mid + 50, data[1]);
  sched.QueueWrite(mid + 500, data[2]);
  sched.QueueWrite(40, data[3]);
  const auto plan = sched.PlanSegments();
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].first, mid + 50);
  EXPECT_EQ(plan[1].first, mid + 500);
  EXPECT_EQ(plan[2].first, 10u);
  EXPECT_EQ(plan[3].first, 40u);
}

TEST_F(SchedulerTest, CoalescesAdjacentLbasIntoOneTransfer) {
  sim::IoScheduler sched(&disk_);
  std::vector<std::vector<std::uint8_t>> data;
  for (int i = 0; i < 6; ++i) {
    data.push_back(Sector(static_cast<std::uint8_t>(0x10 + i)));
  }
  // 103,100,101 form one run (queued out of order); 200,201 a second; 400
  // stands alone.
  sched.QueueWrite(103, data[0]);
  sched.QueueWrite(100, data[1]);
  sched.QueueWrite(400, data[2]);
  sched.QueueWrite(101, data[3]);
  sched.QueueWrite(201, data[4]);
  sched.QueueWrite(200, data[5]);
  // 102 is missing, so 100-101 and 103 stay separate transfers.
  const auto plan = sched.PlanSegments();
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0], (std::pair<sim::Lba, std::uint32_t>{100, 2}));
  EXPECT_EQ(plan[1], (std::pair<sim::Lba, std::uint32_t>{103, 1}));
  EXPECT_EQ(plan[2], (std::pair<sim::Lba, std::uint32_t>{200, 2}));
  EXPECT_EQ(plan[3], (std::pair<sim::Lba, std::uint32_t>{400, 1}));

  sim::BatchStats stats;
  ASSERT_TRUE(sched.Flush(&stats).ok());
  EXPECT_EQ(stats.requests_queued, 6u);
  EXPECT_EQ(stats.device_requests, 4u);
  EXPECT_EQ(stats.requests_merged, 2u);
  EXPECT_EQ(stats.sectors_moved, 6u);
  EXPECT_GT(stats.busy_us, 0u);
  EXPECT_EQ(sched.pending(), 0u);

  // Each sector carries its own payload after the merged transfers.
  std::vector<std::uint8_t> out(sim::kSectorSize);
  CEDAR_CHECK_OK(disk_.Read(100, out));
  EXPECT_EQ(out, data[1]);
  CEDAR_CHECK_OK(disk_.Read(101, out));
  EXPECT_EQ(out, data[3]);
  CEDAR_CHECK_OK(disk_.Read(103, out));
  EXPECT_EQ(out, data[0]);
  CEDAR_CHECK_OK(disk_.Read(201, out));
  EXPECT_EQ(out, data[4]);
}

TEST_F(SchedulerTest, CoalescingRespectsMaxTransfer) {
  sim::IoScheduler sched(&disk_, /*reorder=*/true, /*max_transfer_sectors=*/2);
  std::vector<std::vector<std::uint8_t>> data;
  for (int i = 0; i < 5; ++i) {
    data.push_back(Sector(static_cast<std::uint8_t>(i)));
    sched.QueueWrite(100 + static_cast<sim::Lba>(i), data.back());
  }
  const auto plan = sched.PlanSegments();
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], (std::pair<sim::Lba, std::uint32_t>{100, 2}));
  EXPECT_EQ(plan[1], (std::pair<sim::Lba, std::uint32_t>{102, 2}));
  EXPECT_EQ(plan[2], (std::pair<sim::Lba, std::uint32_t>{104, 1}));
}

TEST_F(SchedulerTest, UnorderedModePreservesSubmissionOrder) {
  sim::IoScheduler sched(&disk_, /*reorder=*/false);
  std::vector<std::vector<std::uint8_t>> data;
  data.push_back(Sector(1));
  data.push_back(Sector(2));
  data.push_back(Sector(3));
  sched.QueueWrite(500, data[0]);
  sched.QueueWrite(100, data[1]);
  sched.QueueWrite(101, data[2]);
  const auto plan = sched.PlanSegments();
  ASSERT_EQ(plan.size(), 3u);  // no sorting, no coalescing
  EXPECT_EQ(plan[0].first, 500u);
  EXPECT_EQ(plan[1].first, 100u);
  EXPECT_EQ(plan[2].first, 101u);
  sim::BatchStats stats;
  ASSERT_TRUE(sched.Flush(&stats).ok());
  EXPECT_EQ(stats.device_requests, 3u);
  EXPECT_EQ(stats.requests_merged, 0u);
}

TEST_F(SchedulerTest, ElevatorBeatsScatteredSubmissionOnTime) {
  // The same scattered batch, issued both ways on twin disks: the elevator
  // must spend strictly less seek + rotation time.
  sim::VirtualClock clock_b;
  sim::SimDisk disk_b(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_b);
  std::vector<std::vector<std::uint8_t>> data;
  std::vector<sim::Lba> lbas;
  // A pseudo-random scatter across the volume.
  for (std::uint32_t i = 0; i < 40; ++i) {
    lbas.push_back((i * 2654435761u) % (disk_.geometry().TotalSectors() - 1));
    data.push_back(Sector(static_cast<std::uint8_t>(i)));
  }
  sim::IoScheduler elevator(&disk_, /*reorder=*/true);
  sim::IoScheduler scattered(&disk_b, /*reorder=*/false);
  for (std::size_t i = 0; i < lbas.size(); ++i) {
    elevator.QueueWrite(lbas[i], data[i]);
    scattered.QueueWrite(lbas[i], data[i]);
  }
  sim::BatchStats fast;
  sim::BatchStats slow;
  ASSERT_TRUE(elevator.Flush(&fast).ok());
  ASSERT_TRUE(scattered.Flush(&slow).ok());
  EXPECT_LT(fast.seek_us + fast.rotational_us,
            slow.seek_us + slow.rotational_us);
}

TEST_F(SchedulerTest, CoalescedReadScattersDataAndRemapsBadSectors) {
  std::vector<std::vector<std::uint8_t>> data;
  for (int i = 0; i < 4; ++i) {
    data.push_back(Sector(static_cast<std::uint8_t>(0x40 + i)));
    CEDAR_CHECK_OK(
        disk_.Write(300 + static_cast<sim::Lba>(i), data.back()));
  }
  disk_.DamageSectors(301, 1);
  disk_.DamageSectors(303, 1);

  sim::IoScheduler sched(&disk_);
  std::vector<std::uint8_t> out_a(2 * sim::kSectorSize);
  std::vector<std::uint8_t> out_b(2 * sim::kSectorSize);
  std::vector<std::uint32_t> bad_a;
  std::vector<std::uint32_t> bad_b;
  sched.QueueRead(302, out_b, &bad_b);
  sched.QueueRead(300, out_a, &bad_a);
  sim::BatchStats stats;
  ASSERT_TRUE(sched.Flush(&stats).ok());
  EXPECT_EQ(stats.device_requests, 1u);  // one 4-sector transfer
  EXPECT_EQ(stats.requests_merged, 1u);

  // Data scattered back to the right buffers, bad indices in each request's
  // own frame of reference.
  EXPECT_TRUE(std::equal(out_a.begin(), out_a.begin() + 512, data[0].begin()));
  EXPECT_TRUE(std::equal(out_b.begin(), out_b.begin() + 512, data[2].begin()));
  ASSERT_EQ(bad_a, (std::vector<std::uint32_t>{1}));
  ASSERT_EQ(bad_b, (std::vector<std::uint32_t>{1}));
}

TEST_F(SchedulerTest, ReadWithoutBadListFailsOnDamage) {
  std::vector<std::uint8_t> sector = Sector(1);
  CEDAR_CHECK_OK(disk_.Write(700, sector));
  CEDAR_CHECK_OK(disk_.Write(701, sector));
  disk_.DamageSectors(701, 1);
  sim::IoScheduler sched(&disk_);
  std::vector<std::uint8_t> out_a(sim::kSectorSize);
  std::vector<std::uint8_t> out_b(sim::kSectorSize);
  sched.QueueRead(700, out_a);
  sched.QueueRead(701, out_b);
  EXPECT_FALSE(sched.Flush().ok());
}

// ---- FSD-level: the batched writeback actually batches, and a crash that
// tears a coalesced multi-sector home write still recovers via the log.

core::FsdConfig SmallCfg() {
  core::FsdConfig config;
  config.log_sectors = 400;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  return config;
}

TEST(FsdWritebackTest, ThirdFlushCoalescesHomeWrites) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  core::Fsd fsd(&disk, SmallCfg());
  CEDAR_CHECK_OK(fsd.Format());
  // Dirty a pile of name-table pages and churn the small log until it
  // cycles thirds, forcing home flushes.
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 80; ++i) {
      CEDAR_CHECK_OK(fsd.CreateFile("dir/f" + std::to_string(i),
                                    std::vector<std::uint8_t>(600, 7))
                         .status());
    }
    CEDAR_CHECK_OK(fsd.Force());
  }
  // No Checkpoint() ran, so every home page came from third entry.
  const obs::MetricsSnapshot m = fsd.SnapshotMetrics();
  EXPECT_GT(m.CounterValue("log.third_entries"), 0u);
  EXPECT_EQ(m.CounterValue("fsd.ckpt_batches"), 0u);
  EXPECT_GT(m.CounterValue("fsd.third_flush_fallbacks"), 0u);
  EXPECT_GT(m.CounterValue("fsd.ckpt_pages"), 0u);
  EXPECT_GT(m.CounterValue("fsd.home_write_batches"), 0u);
  EXPECT_GT(m.CounterValue("fsd.home_writes_coalesced"), 0u);
  EXPECT_LT(m.CounterValue("fsd.home_write_requests") -
                m.CounterValue("fsd.home_writes_coalesced"),
            m.CounterValue("fsd.home_write_requests"));
}

TEST(FsdWritebackTest, BatchingReducesThirdFlushDiskTime) {
  auto run = [](bool batched) {
    sim::VirtualClock clock;
    sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
    obs::DiskTracer tracer;
    disk.set_tracer(&tracer);
    core::FsdConfig config = SmallCfg();
    config.durability.batched_writeback = batched;
    core::Fsd fsd(&disk, config);
    CEDAR_CHECK_OK(fsd.Format());
    for (int round = 0; round < 12; ++round) {
      for (int i = 0; i < 80; ++i) {
        CEDAR_CHECK_OK(fsd.CreateFile("dir/f" + std::to_string(i),
                                      std::vector<std::uint8_t>(600, 7))
                           .status());
      }
      CEDAR_CHECK_OK(fsd.Force());
    }
    const obs::MetricsSnapshot m = fsd.SnapshotMetrics();
    CEDAR_CHECK(m.CounterValue("fsd.ckpt_batches") == 0 &&
                m.CounterValue("fsd.ckpt_pages") > 0);
    const obs::OpClassAggregate third = tracer.AggregateFor("fsd.flush_third");
    return third.seek_us + third.rotational_us;
  };
  const std::uint64_t batched = run(true);
  const std::uint64_t unbatched = run(false);
  // The acceptance bar: at least a 30% cut in seek + rotation time.
  EXPECT_LT(batched, unbatched * 7 / 10)
      << "batched=" << batched << "us unbatched=" << unbatched << "us";
}

TEST(FsdWritebackTest, CrashTearingCoalescedHomeWriteRecovers) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  auto fsd = std::make_unique<core::Fsd>(&disk, SmallCfg());
  CEDAR_CHECK_OK(fsd->Format());
  for (int i = 0; i < 50; ++i) {
    CEDAR_CHECK_OK(fsd->CreateFile("crash/f" + std::to_string(i),
                                   std::vector<std::uint8_t>(700, 9))
                       .status());
  }
  // Capture everything dirty into the log; after this the cache holds no
  // uncaptured updates, so Shutdown's first disk writes are the coalesced
  // home-flush batches.
  CEDAR_CHECK_OK(fsd->Force());

  // Tear the very first home write: 2 sectors land, the next 2 are damaged
  // (the paper's worst-case event), the rest of the transfer never happens.
  disk.ArmCrash(sim::CrashPlan{.at_write_index = 0,
                               .sectors_completed = 2,
                               .sectors_damaged = 2,
                               .drop_writes = {}});
  EXPECT_FALSE(fsd->Shutdown().ok());
  EXPECT_TRUE(disk.crashed());

  // Reboot: log replay rewrites every page image (both copies), damaged
  // sectors included, and the volume comes back consistent.
  disk.Reopen();
  fsd = std::make_unique<core::Fsd>(&disk, SmallCfg());
  CEDAR_CHECK_OK(fsd->Mount());
  EXPECT_GT(fsd->SnapshotMetrics().CounterValue("fsd.recovery_pages_replayed"),
            0u);
  CEDAR_CHECK_OK(fsd->CheckNameTableInvariants());
  for (int i = 0; i < 50; ++i) {
    const std::string name = "crash/f" + std::to_string(i);
    auto handle = fsd->Open(name);
    CEDAR_CHECK_OK(handle.status());
    std::vector<std::uint8_t> out(700);
    CEDAR_CHECK_OK(fsd->Read(*handle, 0, out));
    EXPECT_EQ(out, std::vector<std::uint8_t>(700, 9)) << name;
  }
  auto report = fsd->Scrub();
  CEDAR_CHECK_OK(report.status());
  EXPECT_EQ(report->leaders_repaired, 0u);
}

}  // namespace
}  // namespace cedar
