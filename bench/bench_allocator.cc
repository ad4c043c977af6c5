// Section 5.6: the big/small allocation split and fragmentation.
//
// "FSD partitions the disk into big and small file areas to curtail
//  fragmentation. ... A large fraction of files are small. A measurement of
//  one system shows 50% of files are less than 4,000 bytes but use only 8%
//  of the sectors."
//
// Ablation: the same create/delete churn with the split enabled (small
// files next to the central name table, big files at the volume's edges)
// and disabled (every file placed as a small file). Metrics: the largest contiguous free run left in the data area
// (can a big file still be allocated contiguously?) and the average number
// of extents per big file. A second section measures files grown by
// appends.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/fsd.h"
#include "src/util/random.h"
#include "src/workload/workload.h"

namespace cedar::bench {
namespace {

// Churn scale; main() shrinks these together under --smoke so the volume
// still reaches the same relative fullness.
int g_steps = 40000;
std::size_t g_target_files = 9300;

struct FragResult {
  std::uint32_t largest_free_run = 0;
  double avg_big_file_extents = 0;
  std::uint32_t failed_allocations = 0;
  double small_bytes_fraction = 0;
};

FragResult RunChurn(bool split_enabled) {
  Rig rig;
  cedar::core::FsdConfig config;
  config.nt_pages = 8192;  // room for ~10k files at high utilization
  config.cache_frames = 16384;
  if (!split_enabled) {
    // Disable the split: every file allocates like a small file.
    config.big_file_threshold_sectors = 0xFFFFFFFF;
  }
  cedar::core::Fsd fsd(&rig.disk, config);
  CEDAR_CHECK_OK(fsd.Format());

  cedar::Rng rng(31);
  cedar::workload::SizeDistribution sizes(48000.0);
  std::uint64_t small_bytes = 0;
  std::uint64_t total_bytes = 0;
  std::vector<std::string> live;
  std::vector<std::pair<std::string, std::uint64_t>> recent_big;
  FragResult result;

  // Churn: create and delete with the paper's size distribution, holding
  // the volume close to full so free space must be reused.
  const int kSteps = g_steps;
  for (int step = 0; step < kSteps; ++step) {
    if (live.size() < g_target_files ||
        (live.size() < g_target_files + 200 && rng.Chance(0.5))) {
      const std::uint64_t size = sizes.Sample(rng);
      const std::string name = "churn/f" + std::to_string(step);
      auto created =
          fsd.CreateFile(name, std::vector<std::uint8_t>(size, 0x42));
      if (!created.ok()) {
        ++result.failed_allocations;
        continue;
      }
      live.push_back(name);
      total_bytes += size;
      if (size < 4000) {
        small_bytes += size;
      } else if (size >= 64 * 512 && step >= 3 * kSteps / 4) {
        recent_big.emplace_back(name, size);
      }
    } else {
      const std::size_t victim = rng.Below(live.size());
      CEDAR_CHECK_OK(fsd.DeleteFile(live[victim]));
      live.erase(live.begin() + victim);
    }
    rig.clock.Advance(30 * cedar::sim::kMillisecond);
    CEDAR_CHECK_OK(fsd.Tick());
  }
  CEDAR_CHECK_OK(fsd.Force());

  // Metrics.
  result.small_bytes_fraction =
      total_bytes == 0
          ? 0
          : static_cast<double>(small_bytes) / static_cast<double>(total_bytes);
  // Extents per big file created in the last quarter of the churn (when the
  // free space is at its most carved-up), measured via read request counts.
  std::uint64_t big_files = 0;
  std::uint64_t big_extents = 0;
  for (const auto& [name, size] : recent_big) {
    auto handle = fsd.Open(name);
    if (!handle.ok()) {
      continue;  // deleted again by the churn
    }
    ++big_files;
    const std::uint64_t ios = CountedIos(rig.disk, [&] {
      std::vector<std::uint8_t> out(size);
      CEDAR_CHECK_OK(fsd.Read(*handle, 0, out));
    });
    big_extents += ios;
  }
  result.avg_big_file_extents =
      big_files == 0 ? 0
                     : static_cast<double>(big_extents) /
                           static_cast<double>(big_files);

  // Largest contiguous free run: binary-search the biggest file that can
  // still be allocated in one extent (probed through the public surface).
  const auto& layout = fsd.layout();
  std::uint32_t lo = 1;
  std::uint32_t hi = layout.data_high - layout.data_low;
  while (lo < hi) {
    const std::uint32_t mid = (lo + hi + 1) / 2;
    auto attempt = fsd.CreateFile(
        "probe", std::vector<std::uint8_t>(
                     static_cast<std::size_t>(mid) * 512 - 512, 1));
    bool contiguous = false;
    if (attempt.ok()) {
      auto handle = fsd.Open("probe");
      CEDAR_CHECK_OK(handle.status());
      const std::uint64_t ios = CountedIos(rig.disk, [&] {
        std::vector<std::uint8_t> out(512);
        CEDAR_CHECK_OK(
            fsd.Read(*handle, (mid - 2) * 512, out));  // last page
      });
      // A contiguous file reads its last page in one request.
      contiguous = ios <= 1;
      CEDAR_CHECK_OK(fsd.DeleteFile("probe"));
      CEDAR_CHECK_OK(fsd.Force());
    }
    if (attempt.ok() && contiguous) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  result.largest_free_run = lo;
  return result;
}

// Appends. Every Extend goes through the allocator too, so a file that
// grows a page at a time is placed by the same policy. 20 files, one after
// another, each get 10 one-page appends (Extend, then Write of the new
// page); after each append the workload creates a small file and reads a
// page of an older one, so the head and the small-file area move between
// appends. Then every appended file is read back whole.
struct AppendResult {
  double ms_per_append = 0;      // virtual ms for Extend + Write
  double requests_per_read = 0;  // per whole-file read of an appended file
  std::uint32_t failed_appends = 0;
};

AppendResult RunAppends() {
  constexpr int kOlder = 200;
  constexpr int kFiles = 20;
  constexpr int kAppends = 10;
  Rig rig;
  cedar::core::Fsd fsd(&rig.disk);
  CEDAR_CHECK_OK(fsd.Format());
  cedar::Rng rng(17);
  auto small_file = [&] {
    return std::vector<std::uint8_t>(rng.Between(100, 3000), 0x33);
  };
  for (int i = 0; i < kOlder; ++i) {
    CEDAR_CHECK_OK(
        fsd.CreateFile("old/f" + std::to_string(i), small_file()).status());
  }
  AppendResult result;
  double append_ms = 0;
  int appends = 0;
  int created = 0;
  std::vector<std::uint8_t> page(512, 0x55);
  for (int f = 0; f < kFiles; ++f) {
    const std::string name = "app/f" + std::to_string(f);
    CEDAR_CHECK_OK(fsd.CreateFile(name, page).status());
    auto handle = fsd.Open(name);
    CEDAR_CHECK_OK(handle.status());
    std::uint64_t size = page.size();
    for (int a = 0; a < kAppends; ++a) {
      bool ok = false;
      append_ms += TimedMs(rig.clock, [&] {
        ok = fsd.Extend(*handle, page.size()).ok() &&
             fsd.Write(*handle, size, page).ok();
      });
      if (ok) {
        size += page.size();
        ++appends;
      } else {
        ++result.failed_appends;
      }
      CEDAR_CHECK_OK(
          fsd.CreateFile("new/f" + std::to_string(created++), small_file())
              .status());
      auto older = fsd.Open("old/f" + std::to_string(rng.Below(kOlder)));
      CEDAR_CHECK_OK(older.status());
      std::vector<std::uint8_t> out(100);
      CEDAR_CHECK_OK(fsd.Read(*older, 0, out));
      rig.clock.Advance(30 * cedar::sim::kMillisecond);
      CEDAR_CHECK_OK(fsd.Tick());
    }
  }
  CEDAR_CHECK_OK(fsd.Force());
  std::uint64_t requests = 0;
  for (int f = 0; f < kFiles; ++f) {
    auto handle = fsd.Open("app/f" + std::to_string(f));
    CEDAR_CHECK_OK(handle.status());
    requests += CountedIos(rig.disk, [&] {
      std::vector<std::uint8_t> out(handle->byte_size);
      CEDAR_CHECK_OK(fsd.Read(*handle, 0, out));
    });
  }
  result.ms_per_append = appends == 0 ? 0 : append_ms / appends;
  result.requests_per_read = static_cast<double>(requests) / kFiles;
  return result;
}

}  // namespace
}  // namespace cedar::bench

int main(int argc, char** argv) {
  using namespace cedar::bench;
  CheckFlags(argc, argv, {{"--smoke"}});
  if (SmokeMode(argc, argv)) {
    g_steps = 5000;
    g_target_files = 2000;
  }
  std::printf("Section 5.6: allocator fragmentation ablation\n\n");

  FragResult with_split = RunChurn(/*split_enabled=*/true);
  FragResult without = RunChurn(/*split_enabled=*/false);

  std::printf("size distribution check: %.0f%% of bytes in files < 4000 B "
              "(paper: ~8%%)\n\n",
              with_split.small_bytes_fraction * 100);
  std::printf("%-32s %14s %14s\n", "", "big/small split", "no split");
  std::printf("%-32s %14u %14u\n", "largest contiguous free (sectors)",
              with_split.largest_free_run, without.largest_free_run);
  std::printf("%-32s %14.2f %14.2f\n", "avg requests per big-file read",
              with_split.avg_big_file_extents, without.avg_big_file_extents);
  std::printf("%-32s %14u %14u\n", "failed allocations",
              with_split.failed_allocations, without.failed_allocations);

  const AppendResult appends = RunAppends();
  std::printf("\nappends: 20 files x 10 one-page appends, interleaved with "
              "creates and reads\n");
  std::printf("%-40s %8.2f\n", "virtual ms per append (Extend + Write)",
              appends.ms_per_append);
  std::printf("%-40s %8.2f\n", "requests per whole-file read",
              appends.requests_per_read);
  std::printf("%-40s %8u\n", "failed appends", appends.failed_appends);
  return 0;
}
