// Design-choice ablations for FSD beyond the paper's tables:
//
//   - name-table miss clustering (nt_read_ahead_pages): why cold scans cost
//     a handful of requests instead of one per 512-byte tree page;
//   - the section 5.1 double-read check (read both copies, cross-check):
//     its I/O price on cold reads;
//   - commit-group atomicity (log_group_records): log overhead of splitting
//     forces into tagged groups.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/fsd.h"
#include "src/obs/metrics.h"

namespace cedar::bench {
namespace {

struct ColdScanCost {
  std::uint64_t list_ios = 0;
  double list_ms = 0;
  std::uint64_t open100_ios = 0;
};

ColdScanCost MeasureColdScan(std::uint32_t read_ahead, bool double_read) {
  Rig rig;
  cedar::core::FsdConfig config;
  config.durability.nt_read_ahead_pages = read_ahead;
  config.durability.double_read_check = double_read;
  cedar::core::Fsd fsd(&rig.disk, config);
  CEDAR_CHECK_OK(fsd.Format());
  for (int i = 0; i < 100; ++i) {
    CEDAR_CHECK_OK(
        fsd.CreateFile("dir/s" + std::to_string(i),
                       std::vector<std::uint8_t>(1000, 1))
            .status());
  }
  CEDAR_CHECK_OK(fsd.Shutdown());
  CEDAR_CHECK_OK(fsd.Mount());  // cold cache

  ColdScanCost cost;
  const std::uint64_t before = rig.disk.stats().TotalIos();
  cost.list_ms = TimedMs(rig.clock, [&] {
    auto list = fsd.List("dir/");
    CEDAR_CHECK_OK(list.status());
    CEDAR_CHECK(list->size() == 100);
  });
  cost.list_ios = rig.disk.stats().TotalIos() - before;

  CEDAR_CHECK_OK(fsd.Shutdown());
  CEDAR_CHECK_OK(fsd.Mount());
  cost.open100_ios = CountedIos(rig.disk, [&] {
    for (int i = 0; i < 100; ++i) {
      CEDAR_CHECK_OK(fsd.Open("dir/s" + std::to_string(i)).status());
    }
  });
  return cost;
}

}  // namespace
}  // namespace cedar::bench

int main(int argc, char** argv) {
  using namespace cedar::bench;
  CheckFlags(argc, argv, {{"--smoke"}});
  const bool smoke = SmokeMode(argc, argv);
  const std::vector<std::uint32_t> read_aheads =
      smoke ? std::vector<std::uint32_t>{1u, 8u}
            : std::vector<std::uint32_t>{1u, 4u, 8u, 16u};
  const int burst = smoke ? 120 : 500;
  std::printf("FSD design-choice ablations\n\n");

  std::printf("Cold name-table scans (100 files, 512-byte tree pages):\n");
  std::printf("%12s %12s %10s %10s %12s\n", "read-ahead", "double-read",
              "list I/Os", "list ms", "100-open I/Os");
  for (std::uint32_t read_ahead : read_aheads) {
    for (bool double_read : {true, false}) {
      ColdScanCost cost = MeasureColdScan(read_ahead, double_read);
      std::printf("%12u %12s %10llu %10.1f %12llu\n", read_ahead,
                  double_read ? "on" : "off",
                  (unsigned long long)cost.list_ios, cost.list_ms,
                  (unsigned long long)cost.open100_ios);
    }
  }
  std::printf(
      "\n(The paper's Table 3 FSD numbers correspond to read-ahead 8 with\n"
      "the double-read check on; read-ahead 1 shows the one-sector-page\n"
      "penalty the clustering hides.)\n\n");

  std::printf("Commit-group overhead (same %d-create burst):\n", burst);
  std::printf("%14s %12s %12s\n", "group records", "log sectors",
              "log records");
  for (std::uint32_t group : {1u, 2u, 4u}) {
    Rig rig;
    cedar::core::FsdConfig config;
    config.commit.group_records = group;
    config.commit.interval = 3600 * cedar::sim::kSecond;
    cedar::core::Fsd fsd(&rig.disk, config);
    CEDAR_CHECK_OK(fsd.Format());
    // Count from a clean mount: its fresh log (4 sectors) plus the burst.
    CEDAR_CHECK_OK(fsd.Shutdown());
    const cedar::obs::MetricsSnapshot before = fsd.SnapshotMetrics();
    CEDAR_CHECK_OK(fsd.Mount());
    for (int i = 0; i < burst; ++i) {
      CEDAR_CHECK_OK(
          fsd.CreateFile("g/s" + std::to_string(i),
                         std::vector<std::uint8_t>(500, 1))
              .status());
    }
    CEDAR_CHECK_OK(fsd.Force());
    const cedar::obs::MetricsSnapshot after = fsd.SnapshotMetrics();
    const std::uint64_t sectors = after.CounterValue("log.sectors_written") -
                                  before.CounterValue("log.sectors_written");
    const std::uint64_t records =
        after.FindHistogram("log.record_sectors")->count -
        before.FindHistogram("log.record_sectors")->count;
    std::printf("%14u %12llu %12llu\n", group, (unsigned long long)sectors,
                (unsigned long long)records);
  }
  std::printf("(Group tagging is free in sectors; atomicity costs nothing "
              "beyond the flag byte.)\n");
  return 0;
}
