#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/core/log.h"
#include "src/obs/metrics.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/random.h"

namespace cedar::core {
namespace {

constexpr sim::Lba kLogBase = 100;
constexpr std::uint32_t kLogSize = 400;  // 4 + 396 => thirds of 132

PageImage Image(sim::Lba primary, sim::Lba secondary, std::uint8_t fill) {
  PageImage page;
  page.primary = primary;
  page.secondary = secondary;
  page.data.assign(512, fill);
  return page;
}

class FsdLogTest : public ::testing::Test {
 protected:
  FsdLogTest()
      : disk_(sim::TestGeometry(), sim::DiskTimingParams{}, &clock_),
        log_(&disk_, kLogBase, kLogSize, &metrics_) {
    CEDAR_CHECK_OK(log_.Format(1));
  }

  // Appends and requires success; returns the record's LSN.
  std::uint64_t Append(std::vector<PageImage> pages) {
    auto lsn = log_.AppendGroup(pages, [&](std::uint64_t target) {
      entry_targets_.push_back(target);
      return OkStatus();
    });
    CEDAR_CHECK_OK(lsn.status());
    return *lsn;
  }

  std::vector<std::vector<PageImage>> Recover(std::uint32_t boot) {
    std::vector<std::vector<PageImage>> records;
    CEDAR_CHECK_OK(log_.Recover(
        [&](std::uint64_t, const std::vector<PageImage>& pages) {
          records.push_back(pages);
          return OkStatus();
        },
        boot));
    return records;
  }

  // The log's record histogram: count, sum and max of record sizes.
  const obs::Histogram& RecordSectors() const {
    return *metrics_.FindHistogram("log.record_sectors");
  }

  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  obs::MetricsRegistry metrics_;
  FsdLog log_;
  // Checkpoint target passed to each third-entry callback.
  std::vector<std::uint64_t> entry_targets_;
};

TEST_F(FsdLogTest, RecordSectorArithmetic) {
  EXPECT_EQ(FsdLog::RecordSectors(1), 7u);   // the paper's 7-sector record
  EXPECT_EQ(FsdLog::RecordSectors(14), 33u); // the paper's typical record
  EXPECT_EQ(FsdLog::RecordSectors(39), 83u); // the paper's longest observed
}

TEST_F(FsdLogTest, EmptyLogRecoversNothing) {
  EXPECT_TRUE(Recover(2).empty());
}

TEST_F(FsdLogTest, SingleRecordRoundTrip) {
  Append({Image(5000, 6000, 0xAA), Image(5001, kNoLba, 0xBB)});
  auto records = Recover(2);
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].size(), 2u);
  EXPECT_EQ(records[0][0].primary, 5000u);
  EXPECT_EQ(records[0][0].secondary, 6000u);
  EXPECT_EQ(records[0][0].data, std::vector<std::uint8_t>(512, 0xAA));
  EXPECT_EQ(records[0][1].secondary, kNoLba);
}

TEST_F(FsdLogTest, ManyRecordsInOrder) {
  for (std::uint8_t i = 0; i < 10; ++i) {
    Append({Image(5000 + i, kNoLba, i)});
  }
  auto records = Recover(2);
  ASSERT_EQ(records.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) {
    EXPECT_EQ(records[i][0].primary, 5000u + i);
    EXPECT_EQ(records[i][0].data[0], i);
  }
}

TEST_F(FsdLogTest, OnePageRecordWritesSevenSectorsInOneIo) {
  disk_.ResetStats();
  Append({Image(5000, kNoLba, 1)});
  EXPECT_EQ(disk_.stats().writes, 1u);
  EXPECT_EQ(disk_.stats().sectors_written, 7u);
}

TEST_F(FsdLogTest, ThirdEntryFlushesAndAdvancesPointer) {
  // Third size is 132 sectors; a 10-page record is 25 sectors, so the 6th
  // record crosses into the second third.
  std::vector<PageImage> pages;
  for (int i = 0; i < 10; ++i) {
    pages.push_back(Image(5000 + i, kNoLba, 1));
  }
  for (int rec = 0; rec < 6; ++rec) {
    Append(pages);
  }
  // Third 1 holds no records yet: the oldest record outside it (LSN 1)
  // is the target, so nothing needs to go home.
  EXPECT_EQ(entry_targets_, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(log_.current_third(), 1);
  // All six records still replay (the pointer kept the oldest third).
  EXPECT_EQ(Recover(2).size(), 6u);
}

TEST_F(FsdLogTest, WrapAroundDiscardsOldestThird) {
  // Fill all three thirds and wrap back into the first.
  std::vector<PageImage> pages;
  for (int i = 0; i < 10; ++i) {
    pages.push_back(Image(5000 + i, kNoLba, 2));
  }
  // 25 sectors/record, 5 records/third; 17 records wraps into third 0.
  for (int rec = 0; rec < 17; ++rec) {
    Append(pages);
  }
  // Thirds entered: 1, 2, then 0 again. Re-entering third 0 drops records
  // 1-5 (LSN 6 is the skip marker ending it), so the target is record 7,
  // the first in third 1.
  EXPECT_EQ(entry_targets_, (std::vector<std::uint64_t>{1, 1, 7}));
  auto records = Recover(2);
  // Third 0's old records were discarded; thirds 1 and 2 plus the two new
  // records in third 0 remain: 5 + 5 + 2 = 12.
  EXPECT_EQ(records.size(), 12u);
}

TEST_F(FsdLogTest, TornRecordIsDroppedAtRecovery) {
  Append({Image(5000, kNoLba, 1)});
  // Tear the next record: crash after 3 of its 7 sectors.
  disk_.ArmCrash(sim::CrashPlan{.at_write_index = 0,
                                .sectors_completed = 3,
                                .sectors_damaged = 1,
                                .drop_writes = {}});
  std::vector<PageImage> two = {Image(5001, kNoLba, 2)};
  EXPECT_EQ(log_.AppendGroup(two, [](std::uint64_t) { return OkStatus(); }).status().code(),
            ErrorCode::kDeviceCrashed);
  disk_.Reopen();
  auto records = Recover(2);
  ASSERT_EQ(records.size(), 1u);  // only the complete record survives
  EXPECT_EQ(records[0][0].primary, 5000u);
}

TEST_F(FsdLogTest, DamagedHeaderRepairedFromCopy) {
  Append({Image(5000, kNoLba, 7)});
  Append({Image(5001, kNoLba, 8)});
  // Damage the first record's header sector; its copy 2 sectors later must
  // take over.
  disk_.DamageSectors(kLogBase + 4, 1);
  auto records = Recover(2);
  ASSERT_EQ(records.size(), 2u);
}

TEST_F(FsdLogTest, DamagedDataPageRepairedFromCopy) {
  Append({Image(5000, kNoLba, 7), Image(5001, kNoLba, 9)});
  // Record layout: H B H' D1 D2 E D1' D2' E'. Damage D2 (offset 4).
  disk_.DamageSectors(kLogBase + 4 + 4, 1);
  auto records = Recover(2);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0][1].data, std::vector<std::uint8_t>(512, 9));
}

TEST_F(FsdLogTest, TwoAdjacentDamagedSectorsNeverLoseARecord) {
  Append({Image(5000, kNoLba, 7), Image(5001, kNoLba, 9)});
  // The failure model damages 1-2 consecutive sectors. Slide a 2-sector
  // damage window across the whole 9-sector record; every position must
  // still recover (copies are never adjacent to their originals).
  for (std::uint32_t off = 0; off + 1 < 9; ++off) {
    SCOPED_TRACE(off);
    sim::VirtualClock clock;
    sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
    obs::MetricsRegistry metrics;
    FsdLog log(&disk, kLogBase, kLogSize, &metrics);
    ASSERT_TRUE(log.Format(1).ok());
    std::vector<PageImage> pages = {Image(5000, kNoLba, 7),
                                    Image(5001, kNoLba, 9)};
    ASSERT_TRUE(log.AppendGroup(pages, [](std::uint64_t) { return OkStatus(); }).ok());
    disk.DamageSectors(kLogBase + 4 + off, 2);
    std::vector<std::vector<PageImage>> records;
    ASSERT_TRUE(log.Recover(
                       [&](std::uint64_t, const std::vector<PageImage>& r) {
                         records.push_back(r);
                         return OkStatus();
                       },
                       2)
                    .ok());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0][0].data[0], 7);
    EXPECT_EQ(records[0][1].data[0], 9);
  }
}

TEST_F(FsdLogTest, PointerSurvivesDamageToPrimary) {
  Append({Image(5000, kNoLba, 1)});
  disk_.DamageSectors(kLogBase, 1);  // primary pointer
  EXPECT_EQ(Recover(2).size(), 1u);
}

TEST_F(FsdLogTest, PointerSurvivesDamageToCopy) {
  Append({Image(5000, kNoLba, 1)});
  disk_.DamageSectors(kLogBase + 2, 1);  // pointer copy
  EXPECT_EQ(Recover(2).size(), 1u);
}

TEST_F(FsdLogTest, AppendsContinueAfterRecovery) {
  Append({Image(5000, kNoLba, 1)});
  Recover(2);
  // New appends must extend the same sequence and replay together.
  Append({Image(5001, kNoLba, 2)});
  auto records = Recover(3);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1][0].primary, 5001u);
}

TEST_F(FsdLogTest, TombstoneFlagRoundTrips) {
  PageImage tomb;
  tomb.primary = 7777;
  tomb.secondary = kNoLba;
  tomb.kind = PageKind::kTombstone;
  tomb.data.assign(512, 0);
  Append({Image(7777, kNoLba, 5)});
  Append({tomb});
  auto records = Recover(2);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0][0].kind, PageKind::kPage);
  EXPECT_EQ(records[1][0].kind, PageKind::kTombstone);
}

TEST_F(FsdLogTest, MaxSizeRecord) {
  std::vector<PageImage> pages;
  for (std::uint32_t i = 0; i < FsdLog::kMaxPagesPerRecord; ++i) {
    pages.push_back(Image(5000 + i, 6000 + i, static_cast<std::uint8_t>(i)));
  }
  Append(pages);
  auto records = Recover(2);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].size(), FsdLog::kMaxPagesPerRecord);
  EXPECT_EQ(RecordSectors().max(),
            FsdLog::RecordSectors(FsdLog::kMaxPagesPerRecord));
}

TEST_F(FsdLogTest, StatsTrackRecordsAndSectors) {
  Append({Image(5000, kNoLba, 1)});
  Append({Image(5001, kNoLba, 2), Image(5002, kNoLba, 3)});
  EXPECT_EQ(RecordSectors().count(), 2u);
  EXPECT_EQ(RecordSectors().sum(), 7u + 9u);
  EXPECT_EQ(RecordSectors().max(), 9u);
  EXPECT_EQ(metrics_.FindCounter("log.pages_logged")->value(), 3u);
  // Format wrote the pointer pair (3 sectors) and a blank header sector.
  EXPECT_EQ(metrics_.FindCounter("log.sectors_written")->value(),
            3u + 1u + 7u + 9u);
  EXPECT_EQ(metrics_.FindCounter("log.markers")->value(), 0u);
  EXPECT_EQ(metrics_.FindCounter("log.third_entries")->value(), 0u);
}

// The log's counters live in its owner's registry, which FSD resets at
// Format only: a clean Shutdown + Mount re-formats the log but keeps
// counting, and Format zeroes every log.* value.
TEST(FsdLogCountersTest, SurviveCleanRemountAndResetAtFormat) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  FsdConfig config;
  config.log_sectors = kLogSize;
  config.nt_pages = 256;
  config.cache_frames = 1024;
  Fsd fsd(&disk, config);
  ASSERT_TRUE(fsd.Format().ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fsd.CreateFile("c/f" + std::to_string(i % 5),
                               std::vector<std::uint8_t>(300, 1))
                    .ok());
    ASSERT_TRUE(fsd.Force().ok());
  }
  const obs::MetricsSnapshot before = fsd.SnapshotMetrics();
  const std::uint64_t records =
      before.FindHistogram("log.record_sectors")->count;
  ASSERT_EQ(records, 40u);
  ASSERT_GT(before.CounterValue("log.third_entries"), 0u);
  ASSERT_GT(before.CounterValue("log.markers"), 0u);

  ASSERT_TRUE(fsd.Shutdown().ok());
  ASSERT_TRUE(fsd.Mount().ok());
  const obs::MetricsSnapshot remounted = fsd.SnapshotMetrics();
  for (const char* name : {"log.pages_logged", "log.sectors_written",
                           "log.markers", "log.third_entries"}) {
    EXPECT_GE(remounted.CounterValue(name), before.CounterValue(name)) << name;
  }
  EXPECT_GT(remounted.CounterValue("log.sectors_written"),
            before.CounterValue("log.sectors_written"))
      << "the remount's log format counts on top";
  EXPECT_EQ(remounted.FindHistogram("log.record_sectors")->count, records);

  ASSERT_TRUE(fsd.Format().ok());
  const obs::MetricsSnapshot formatted = fsd.SnapshotMetrics();
  // Since the reset the log was only formatted, once, by Format's clean
  // mount: the pointer pair and a blank first header, 4 sectors.
  EXPECT_EQ(formatted.CounterValue("log.sectors_written"), 3u + 1u);
  EXPECT_EQ(formatted.CounterValue("log.pages_logged"), 0u);
  EXPECT_EQ(formatted.CounterValue("log.markers"), 0u);
  EXPECT_EQ(formatted.CounterValue("log.third_entries"), 0u);
  EXPECT_EQ(formatted.FindHistogram("log.record_sectors")->count, 0u);
  EXPECT_EQ(formatted.FindHistogram("log.record_sectors")->max, 0u);
}

// Damage fuzz: append records, then injure 1-2 consecutive sectors at a
// random position in the log region. Recovery must always succeed, and
// every record it returns must be byte-perfect (the copies guarantee no
// silent corruption ever leaks through).
class FsdLogDamageFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FsdLogDamageFuzzTest, DamageNeverYieldsCorruptRecords) {
  Rng rng(GetParam());
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  obs::MetricsRegistry metrics;
  FsdLog log(&disk, kLogBase, kLogSize, &metrics);
  ASSERT_TRUE(log.Format(1).ok());

  // Each record's pages carry a fill derived from the record number, which
  // is also encoded in the pages' home LBA so replay can re-derive it.
  for (int rec = 0; rec < 30; ++rec) {
    const auto fill = static_cast<std::uint8_t>(rec);
    std::vector<PageImage> pages;
    const std::size_t n = rng.Between(1, 8);
    for (std::size_t i = 0; i < n; ++i) {
      pages.push_back(
          Image(static_cast<sim::Lba>(100000 + rec), kNoLba, fill));
    }
    ASSERT_TRUE(log.AppendGroup(pages, [](std::uint64_t) { return OkStatus(); }).ok());
  }
  for (int hit = 0; hit < 8; ++hit) {
    disk.DamageSectors(
        kLogBase + static_cast<sim::Lba>(rng.Below(kLogSize - 2)),
        static_cast<std::uint32_t>(rng.Between(1, 2)));
  }

  std::size_t replayed = 0;
  ASSERT_TRUE(
      log.Recover(
             [&](std::uint64_t, const std::vector<PageImage>& pages) {
               const auto fill =
                   static_cast<std::uint8_t>(pages[0].primary - 100000);
               for (const PageImage& page : pages) {
                 CEDAR_CHECK(page.primary == pages[0].primary);
                 for (std::uint8_t byte : page.data) {
                   CEDAR_CHECK(byte == fill);
                 }
               }
               ++replayed;
               return OkStatus();
             },
             2)
          .ok());
  EXPECT_LE(replayed, 30u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsdLogDamageFuzzTest,
                         ::testing::Range(std::uint64_t{100}, std::uint64_t{120}));

// Property sweep: random record sizes, wrap the log several times, then
// recover and check that everything since the last pointer advance replays
// in order with intact payloads.
class FsdLogChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsdLogChurnTest, ChurnAndRecover) {
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::TestGeometry(), sim::DiskTimingParams{}, &clock);
  obs::MetricsRegistry metrics;
  FsdLog log(&disk, kLogBase, kLogSize, &metrics);
  ASSERT_TRUE(log.Format(1).ok());

  Rng rng(GetParam());
  std::vector<std::pair<std::uint64_t, std::size_t>> appended;  // lsn, n
  for (int rec = 0; rec < 120; ++rec) {
    const std::size_t n = rng.Between(1, 20);
    std::vector<PageImage> pages;
    for (std::size_t i = 0; i < n; ++i) {
      pages.push_back(Image(static_cast<sim::Lba>(5000 + rng.Below(100)),
                            kNoLba, static_cast<std::uint8_t>(rec)));
    }
    const std::uint64_t lsn = log.next_lsn();
    ASSERT_TRUE(log.AppendGroup(pages, [](std::uint64_t) { return OkStatus(); }).ok());
    appended.emplace_back(lsn, n);
  }

  std::vector<std::size_t> replayed_sizes;
  ASSERT_TRUE(log.Recover(
                     [&](std::uint64_t, const std::vector<PageImage>& pages) {
                       replayed_sizes.push_back(pages.size());
                       return OkStatus();
                     },
                     2)
                  .ok());
  // The replayed records must be a suffix of what we appended.
  ASSERT_LE(replayed_sizes.size(), appended.size());
  const std::size_t offset = appended.size() - replayed_sizes.size();
  for (std::size_t i = 0; i < replayed_sizes.size(); ++i) {
    EXPECT_EQ(replayed_sizes[i], appended[offset + i].second) << i;
  }
  // At least the records still covered by the two retained thirds must have
  // survived (average record here is ~26 sectors, thirds are 132).
  EXPECT_GE(replayed_sizes.size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsdLogChurnTest,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull));

}  // namespace
}  // namespace cedar::core
