// Writeback scheduler benchmark: third-flush and shutdown home-write cost
// with elevator batching on vs. off.
//
// The paper's disk model (section 4) attributes nearly all metadata I/O
// cost to seeks and lost revolutions. FSD's remaining long synchronous
// burst is the third-entry home flush: every page whose logged image is
// about to be overwritten must go to its primary AND replica home sectors.
// Unbatched (the historical behavior) that is one write per page copy, in
// hash-map order — alternating across the log region between the two
// name-table regions, a worst-case seek pattern. The IoScheduler turns it
// into two elevator sweeps with adjacent pages coalesced.
//
// Emits a machine-readable summary line prefixed BENCH_flush.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/fsd.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/random.h"

namespace cedar::bench {
namespace {

struct FlushResult {
  std::uint64_t third_entries = 0;
  std::uint64_t third_entry_pages = 0;
  std::uint64_t third_seek_us = 0;
  std::uint64_t third_rot_us = 0;
  std::uint64_t third_busy_us = 0;
  std::uint64_t home_batches = 0;
  std::uint64_t home_requests = 0;
  std::uint64_t home_coalesced = 0;
  std::uint64_t shutdown_seek_us = 0;
  std::uint64_t shutdown_rot_us = 0;
  std::uint64_t shutdown_busy_us = 0;
  std::uint64_t shutdown_writes = 0;
};

// Churn scale; main() shrinks these under --smoke.
int g_files = 1200;
int g_rounds = 30;
int g_touches = 400;
int g_recreates = 60;

// A dirty-page-heavy churn: a working set of files spread over many
// name-table pages, re-touched and re-created every round so each group
// commit captures a wide set of pages and the log cycles thirds steadily.
FlushResult Run(bool batched) {
  Rig rig;
  // Third-flush disk time comes from the tracer's "fsd.flush_third"
  // aggregate — the scheduler no longer keeps its own micros accounting.
  cedar::obs::DiskTracer tracer;
  rig.disk.set_tracer(&tracer);
  cedar::core::FsdConfig config;
  config.durability.batched_writeback = batched;
  cedar::core::Fsd fsd(&rig.disk, config);
  CEDAR_CHECK_OK(fsd.Format());

  const int kFiles = g_files;
  constexpr int kDirs = 40;
  auto name = [](int i) {
    return std::string("d").append(std::to_string(i % kDirs)) + "/f" +
           std::to_string(i);
  };
  for (int i = 0; i < kFiles; ++i) {
    CEDAR_CHECK_OK(
        fsd.CreateFile(name(i), std::vector<std::uint8_t>(900, 3)).status());
  }
  CEDAR_CHECK_OK(fsd.Force());

  Rng rng(17);
  for (int round = 0; round < g_rounds; ++round) {
    for (int i = 0; i < g_touches; ++i) {
      CEDAR_CHECK_OK(fsd.Touch(name(static_cast<int>(rng.Next() % kFiles))));
    }
    for (int i = 0; i < g_recreates; ++i) {
      const int victim = static_cast<int>(rng.Next() % kFiles);
      CEDAR_CHECK_OK(
          fsd.CreateFile(name(victim), std::vector<std::uint8_t>(900, 4))
              .status());
    }
    CEDAR_CHECK_OK(fsd.Force());
  }

  FlushResult result;
  const cedar::obs::MetricsSnapshot m = fsd.SnapshotMetrics();
  result.third_entries = m.CounterValue("log.third_entries");
  // No Checkpoint() and no daemon here: every checkpointed page was written
  // home at third entry.
  result.third_entry_pages = m.CounterValue("fsd.ckpt_pages");
  const cedar::obs::OpClassAggregate third =
      tracer.AggregateFor("fsd.flush_third");
  result.third_seek_us = third.seek_us;
  result.third_rot_us = third.rotational_us;
  result.third_busy_us = third.TotalUs();
  result.home_batches = m.CounterValue("fsd.home_write_batches");
  result.home_requests = m.CounterValue("fsd.home_write_requests");
  result.home_coalesced = m.CounterValue("fsd.home_writes_coalesced");

  const cedar::sim::DiskStats before = rig.disk.stats();
  CEDAR_CHECK_OK(fsd.Shutdown());
  const cedar::sim::DiskStats& after = rig.disk.stats();
  result.shutdown_seek_us = after.seek_us - before.seek_us;
  result.shutdown_rot_us = after.rotational_us - before.rotational_us;
  result.shutdown_busy_us = after.busy_us - before.busy_us;
  result.shutdown_writes = after.writes - before.writes;
  return result;
}

void PrintMode(const char* label, const FlushResult& r) {
  std::printf("%-12s %8llu %8llu %10.1f %10.1f %10.1f | %10.1f %8llu\n",
              label, (unsigned long long)r.third_entries,
              (unsigned long long)r.third_entry_pages,
              r.third_seek_us / 1000.0, r.third_rot_us / 1000.0,
              r.third_busy_us / 1000.0, r.shutdown_busy_us / 1000.0,
              (unsigned long long)r.shutdown_writes);
}

}  // namespace
}  // namespace cedar::bench

int main(int argc, char** argv) {
  using namespace cedar::bench;
  CheckFlags(argc, argv, {{"--smoke"}});
  if (SmokeMode(argc, argv)) {
    g_files = 300;
    g_rounds = 8;
    g_touches = 120;
    g_recreates = 20;
  }
  std::printf(
      "Writeback scheduler: third-flush + shutdown cost, batched vs "
      "unbatched\n\n");
  std::printf("%-12s %8s %8s %10s %10s %10s | %10s %8s\n", "", "thirds",
              "pages", "seek ms", "rot ms", "busy ms", "shut ms", "writes");

  FlushResult batched = Run(true);
  FlushResult unbatched = Run(false);
  PrintMode("batched", batched);
  PrintMode("unbatched", unbatched);

  const double seekrot_batched =
      static_cast<double>(batched.third_seek_us + batched.third_rot_us);
  const double seekrot_unbatched =
      static_cast<double>(unbatched.third_seek_us + unbatched.third_rot_us);
  const double reduction =
      seekrot_unbatched > 0 ? 1.0 - seekrot_batched / seekrot_unbatched : 0;
  const double busy_reduction =
      unbatched.third_busy_us > 0
          ? 1.0 - static_cast<double>(batched.third_busy_us) /
                      static_cast<double>(unbatched.third_busy_us)
          : 0;

  std::printf(
      "\nthird-flush seek+rot reduction: %.1f%%   busy reduction: %.1f%%\n",
      100.0 * reduction, 100.0 * busy_reduction);
  std::printf("coalesced %llu of %llu home writes in %llu batches\n",
              (unsigned long long)batched.home_coalesced,
              (unsigned long long)batched.home_requests,
              (unsigned long long)batched.home_batches);

  std::printf(
      "BENCH_flush.json {\"bench\":\"flush\","
      "\"third_entries\":%llu,\"third_entry_pages\":%llu,"
      "\"batched\":{\"seek_us\":%llu,\"rotational_us\":%llu,\"busy_us\":%llu,"
      "\"shutdown_busy_us\":%llu,\"shutdown_writes\":%llu},"
      "\"unbatched\":{\"seek_us\":%llu,\"rotational_us\":%llu,"
      "\"busy_us\":%llu,\"shutdown_busy_us\":%llu,\"shutdown_writes\":%llu},"
      "\"home_write_batches\":%llu,\"home_write_requests\":%llu,"
      "\"home_writes_coalesced\":%llu,"
      "\"seek_rot_reduction\":%.3f,\"busy_reduction\":%.3f}\n",
      (unsigned long long)batched.third_entries,
      (unsigned long long)batched.third_entry_pages,
      (unsigned long long)batched.third_seek_us,
      (unsigned long long)batched.third_rot_us,
      (unsigned long long)batched.third_busy_us,
      (unsigned long long)batched.shutdown_busy_us,
      (unsigned long long)batched.shutdown_writes,
      (unsigned long long)unbatched.third_seek_us,
      (unsigned long long)unbatched.third_rot_us,
      (unsigned long long)unbatched.third_busy_us,
      (unsigned long long)unbatched.shutdown_busy_us,
      (unsigned long long)unbatched.shutdown_writes,
      (unsigned long long)batched.home_batches,
      (unsigned long long)batched.home_requests,
      (unsigned long long)batched.home_coalesced, reduction, busy_reduction);
  return 0;
}
