// Quickstart: create an FSD volume on a simulated 300 MB disk, do some file
// work, force the log, and show what the device actually saw.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/obs/metrics.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"

int main() {
  using namespace cedar;

  // A virtual clock + simulated Trident-class drive. All timing below is
  // virtual: deterministic and independent of the host machine.
  sim::VirtualClock clock;
  sim::SimDisk disk(sim::DiskGeometry{}, sim::DiskTimingParams{}, &clock);

  core::Fsd fsd(&disk, core::FsdConfig{});
  CEDAR_CHECK_OK(fsd.Format());
  std::printf("formatted %0.f MB volume; %u sectors free\n",
              disk.geometry().TotalBytes() / 1e6, fsd.FreeSectors());

  // Create a few files. Note the I/O counter: each create is ONE disk
  // write (leader + data combined); the name-table updates are buffered.
  CEDAR_CHECK_OK(fsd.CreateFile("demo/warmup", {}).status());  // warm the tree
  disk.ResetStats();
  for (int i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> contents(2000, static_cast<std::uint8_t>(i));
    CEDAR_CHECK_OK(
        fsd.CreateFile("demo/report" + std::to_string(i) + ".tioga", contents)
            .status());
  }
  std::printf("5 creates -> %llu disk I/Os (1 write each)\n",
              (unsigned long long)disk.stats().TotalIos());

  // List with properties: no I/O — everything lives in the name table.
  disk.ResetStats();
  auto list = fsd.List("demo/report");
  CEDAR_CHECK_OK(list.status());
  std::printf("list of %zu files -> %llu disk I/Os:\n", list->size(),
              (unsigned long long)disk.stats().TotalIos());
  for (const auto& info : *list) {
    std::printf("  %-22s v%u  %6llu bytes\n", info.name.c_str(), info.version,
                (unsigned long long)info.byte_size);
  }

  // Read a file back; the first access piggybacks the leader-page check.
  auto handle = fsd.Open("demo/report2.tioga");
  CEDAR_CHECK_OK(handle.status());
  std::vector<std::uint8_t> out(handle->byte_size);
  CEDAR_CHECK_OK(fsd.Read(*handle, 0, out));
  std::printf("read back %llu bytes, first byte %u\n",
              (unsigned long long)out.size(), out[0]);

  // Updates become durable at the next group commit (every half virtual
  // second) or on an explicit force.
  std::printf("pending updates before force: %s\n",
              fsd.HasPendingUpdates() ? "yes" : "no");
  CEDAR_CHECK_OK(fsd.Force());
  std::printf("pending updates after force:  %s\n",
              fsd.HasPendingUpdates() ? "yes" : "no");
  const obs::MetricsSnapshot metrics = fsd.SnapshotMetrics();
  std::printf("log so far: %llu records, %llu pages captured\n",
              (unsigned long long)metrics.FindHistogram("log.record_sectors")
                  ->count,
              (unsigned long long)metrics.CounterValue("log.pages_logged"));

  CEDAR_CHECK_OK(fsd.Shutdown());
  std::printf("clean shutdown: VAM saved, volume marked clean.\n");
  std::printf("total virtual time elapsed: %.1f ms\n",
              static_cast<double>(clock.now()) / 1000.0);
  return 0;
}
