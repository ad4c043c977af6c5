// Section 5.4: group commit.
//
// The paper's measurements this harness regenerates:
//   - "logging and group commit ... reducing the number of I/Os for
//     metadata by a factor of 2.98 during these bulk operations; the total
//     reduction was a factor of 2.34 for all I/Os."
//   - "a one data page record ... is logged in seven 512 byte sectors"
//   - "The longest log record observed is 83 sectors long. Under high load,
//     a typical log record has 14 pages logged, for a log record size of 33
//     sectors."
//   - "These factors may be improved somewhat by using a bigger log and
//     lengthening the time between commits." -> the interval ablation.
//
// Baseline for the reduction factors: the same FSD code with a zero commit
// interval, i.e. logging without group commit (every operation forces its
// own record) — the comparison that isolates the batching effect.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/core/fsd.h"
#include "src/obs/metrics.h"
#include "src/util/random.h"
#include "src/workload/workload.h"

namespace cedar::bench {
namespace {

struct BulkResult {
  std::uint64_t metadata_ios = 0;  // log + name-table home writes
  std::uint64_t total_ios = 0;
  std::uint64_t log_records = 0;
  std::uint64_t pages_logged = 0;
  std::uint32_t max_record_sectors = 0;
  double avg_record_sectors = 0;
};

BulkResult RunBulk(cedar::sim::Micros interval) {
  Rig rig;
  cedar::core::FsdConfig config;
  config.commit.interval = interval;
  cedar::core::Fsd fsd(&rig.disk, config);
  CEDAR_CHECK_OK(fsd.Format());

  // Bulk updates localized to one subdirectory — the Schmidt-style "bulk
  // updates are often done to the file name table" pattern.
  Rng rng(21);
  cedar::workload::BulkUpdateConfig bulk;
  const std::uint64_t data_ios_before = rig.disk.stats().TotalIos();
  (void)data_ios_before;
  rig.disk.ResetStats();
  auto record_sectors = [&] {
    return *fsd.SnapshotMetrics().FindHistogram("log.record_sectors");
  };
  const std::uint64_t t0_records = record_sectors().count;
  CEDAR_CHECK_OK(cedar::workload::BulkUpdate(
      &fsd, "wd/", bulk, rng, [&](cedar::sim::Micros think) {
        rig.clock.Advance(think);
        return fsd.Tick();
      }));
  CEDAR_CHECK_OK(fsd.Force());

  BulkResult result;
  result.total_ios = rig.disk.stats().TotalIos();
  // Metadata I/O = everything except the file data writes (one combined
  // leader+data write per create/rewrite).
  const std::uint64_t creates = bulk.files + bulk.rounds * bulk.rewrites_per_round;
  result.metadata_ios = result.total_ios - creates;
  const cedar::obs::MetricsSnapshot::HistogramData records = record_sectors();
  result.log_records = records.count - t0_records;
  result.pages_logged = fsd.SnapshotMetrics().CounterValue("log.pages_logged");
  result.max_record_sectors = static_cast<std::uint32_t>(records.max);
  result.avg_record_sectors =
      result.log_records == 0 ? 0
                              : static_cast<double>(records.sum) /
                                    static_cast<double>(records.count);
  return result;
}

// ---- Concurrent clients: the amortization curve. ----
//
// The paper's argument for group commit is that one log write commits the
// work of *many* clients: "the log force that commits one client's update
// commits everyone's". With the commit daemon enabled, N client threads
// that each update a file and then demand durability should rendezvous on
// a shared force, so forces-per-metadata-update falls like 1/N as N grows.

class RoundBarrier {
 public:
  explicit RoundBarrier(int parties) : parties_(parties) {}

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t round = round_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++round_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return round_ != round; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const int parties_;
  int arrived_ = 0;
  std::uint64_t round_ = 0;
};

struct CurvePoint {
  int threads = 0;
  std::uint64_t updates = 0;
  std::uint64_t forces = 0;          // log-writing group commits
  std::uint64_t force_requests = 0;  // waits that had to flag new work
  std::uint64_t piggybacked = 0;     // waits satisfied by a shared force
  double forces_per_update = 0;
};

// Each of `threads` clients runs `rounds` iterations of: update my file,
// wait for everyone, Force(). The barrier models the bursty multi-client
// pattern (a build system's parallel compile steps finishing together);
// without it the threads drift apart and the rendezvous is less sharp.
CurvePoint RunConcurrent(int threads, int rounds) {
  Rig rig;
  cedar::core::FsdConfig config;
  config.commit.daemon = true;
  cedar::core::Fsd fsd(&rig.disk, config);
  CEDAR_CHECK_OK(fsd.Format());
  for (int t = 0; t < threads; ++t) {
    CEDAR_CHECK_OK(fsd.CreateFile("amo.t" + std::to_string(t),
                                  std::vector<std::uint8_t>(600, 0x5A))
                       .status());
  }
  CEDAR_CHECK_OK(fsd.Force());
  const cedar::obs::MetricsSnapshot before = fsd.SnapshotMetrics();

  RoundBarrier barrier(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::string name = "amo.t" + std::to_string(t);
      for (int r = 0; r < rounds; ++r) {
        CEDAR_CHECK_OK(fsd.Touch(name));
        barrier.Wait();  // every client has an update outstanding
        CEDAR_CHECK_OK(fsd.Force());
        barrier.Wait();  // round boundary
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }

  const cedar::obs::MetricsSnapshot after = fsd.SnapshotMetrics();
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  CurvePoint point;
  point.threads = threads;
  point.updates = static_cast<std::uint64_t>(threads) * rounds;
  point.forces = delta("fsd.forces");
  point.force_requests = delta("commit.force_requests");
  point.piggybacked = delta("commit.piggybacked");
  point.forces_per_update =
      static_cast<double>(point.forces) / static_cast<double>(point.updates);
  CEDAR_CHECK_OK(fsd.Shutdown());
  return point;
}

// ---- Disjoint-name saturation: the multi-client throughput curve. ----
//
// N clients on shard-disjoint names, each round: update my file, rendezvous,
// demand durability. Every round costs one group commit (the rendezvous
// guarantees all N updates are outstanding before any client forces), so
// aggregate throughput — updates per second of virtual time, the paper's
// updates/sec at the server — rises with N while the per-round force cost
// stays flat. Wall-clock throughput is reported alongside: on a multi-core
// host it tracks how far the op path actually parallelizes.

struct SatPoint {
  int threads = 0;
  std::uint64_t updates = 0;
  std::uint64_t forces = 0;
  double forces_per_update = 0;
  std::uint64_t virtual_us = 0;   // virtual time the workload consumed
  std::uint64_t disk_us = 0;      // virtual_us minus charged CPU time
  double virtual_updates_per_sec = 0;
  double wall_updates_per_sec = 0;
};

// One name per client, each hashing to its own shard (probe the suffix
// until Fsd::ShardOf lands on the target shard; threads <= shard count).
std::string ShardDistinctName(int target_shard) {
  for (int k = 0;; ++k) {
    std::string name =
        "sat.t" + std::to_string(target_shard) + "." + std::to_string(k);
    if (cedar::core::Fsd::ShardOf(name) ==
        static_cast<std::size_t>(target_shard)) {
      return name;
    }
  }
}

SatPoint RunSaturation(int threads, int rounds) {
  Rig rig;
  cedar::core::FsdConfig config;
  config.commit.daemon = true;
  cedar::core::Fsd fsd(&rig.disk, config);
  CEDAR_CHECK_OK(fsd.Format());
  std::vector<std::string> names;
  names.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    names.push_back(ShardDistinctName(t));
    CEDAR_CHECK_OK(
        fsd.CreateFile(names.back(), std::vector<std::uint8_t>(600, 0x5A))
            .status());
  }
  CEDAR_CHECK_OK(fsd.Force());

  const std::uint64_t forces0 =
      fsd.SnapshotMetrics().CounterValue("fsd.forces");
  const cedar::sim::Micros virt0 = rig.clock.now();
  const cedar::sim::Micros cpu0 = rig.clock.cpu_time();
  const auto wall0 = std::chrono::steady_clock::now();

  RoundBarrier barrier(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < rounds; ++r) {
        CEDAR_CHECK_OK(fsd.Touch(names[t]));
        barrier.Wait();  // every client has an update outstanding
        CEDAR_CHECK_OK(fsd.Force());
        barrier.Wait();  // round boundary
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }

  const auto wall1 = std::chrono::steady_clock::now();
  SatPoint point;
  point.threads = threads;
  point.updates = static_cast<std::uint64_t>(threads) * rounds;
  point.forces = fsd.SnapshotMetrics().CounterValue("fsd.forces") - forces0;
  point.forces_per_update =
      static_cast<double>(point.forces) / static_cast<double>(point.updates);
  point.virtual_us = rig.clock.now() - virt0;
  const cedar::sim::Micros cpu_us = rig.clock.cpu_time() - cpu0;
  point.disk_us = point.virtual_us > cpu_us ? point.virtual_us - cpu_us : 0;
  point.virtual_updates_per_sec =
      point.virtual_us == 0
          ? 0
          : static_cast<double>(point.updates) * 1e6 /
                static_cast<double>(point.virtual_us);
  const double wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             wall1 - wall0)
                             .count();
  point.wall_updates_per_sec =
      wall_us <= 0 ? 0
                   : static_cast<double>(point.updates) * 1e6 / wall_us;
  CEDAR_CHECK_OK(fsd.Shutdown());
  return point;
}

void PrintSatHeader() {
  std::printf("%8s %8s %8s %14s %12s %12s %14s\n", "threads", "updates",
              "forces", "forces/update", "virt ms", "disk ms",
              "updates/vsec");
}

void PrintSatPoint(const SatPoint& p) {
  std::printf("%8d %8llu %8llu %14.3f %12.1f %12.1f %14.1f\n", p.threads,
              (unsigned long long)p.updates, (unsigned long long)p.forces,
              p.forces_per_update, p.virtual_us / 1000.0, p.disk_us / 1000.0,
              p.virtual_updates_per_sec);
}

// Machine-readable trajectory point for BENCH_group_commit.json. Virtual
// times gate; wall-clock figures are machine-dependent and stay info-only.
void WriteJson(const char* path, const char* mode, int rounds,
               const std::vector<SatPoint>& saturation,
               const std::vector<CurvePoint>& amortization) {
  BenchReport report("group_commit");
  report.SetConfig("mode", mode);
  report.SetConfig("rounds", rounds);
  std::string threads_list;
  for (const SatPoint& p : saturation) {
    threads_list += std::to_string(p.threads) + ",";
  }
  report.SetConfig("sat_threads", threads_list);
  char key[64];
  for (const SatPoint& p : saturation) {
    std::snprintf(key, sizeof(key), "sat_%dt_updates_per_vsec", p.threads);
    report.AddMetric(key, p.virtual_updates_per_sec,
                     Direction::kHigherIsBetter, "updates/vsec");
    std::snprintf(key, sizeof(key), "sat_%dt_forces_per_update", p.threads);
    report.AddMetric(key, p.forces_per_update, Direction::kLowerIsBetter);
    std::snprintf(key, sizeof(key), "sat_%dt_disk_ms", p.threads);
    report.AddInfo(key, static_cast<double>(p.disk_us) / 1000.0);
    std::snprintf(key, sizeof(key), "sat_%dt_wall_updates_per_sec",
                  p.threads);
    report.AddInfo(key, p.wall_updates_per_sec);
  }
  for (const CurvePoint& p : amortization) {
    std::snprintf(key, sizeof(key), "amort_%dt_forces_per_update", p.threads);
    report.AddMetric(key, p.forces_per_update, Direction::kLowerIsBetter);
    std::snprintf(key, sizeof(key), "amort_%dt_piggybacked", p.threads);
    report.AddInfo(key, static_cast<double>(p.piggybacked));
  }
  CEDAR_CHECK_OK(report.WriteFile(path));
}

void PrintCurveHeader() {
  std::printf("%8s %8s %8s %10s %12s %14s\n", "threads", "updates",
              "forces", "requests", "piggybacked", "forces/update");
}

void PrintCurvePoint(const CurvePoint& p) {
  std::printf("%8d %8llu %8llu %10llu %12llu %14.3f\n", p.threads,
              (unsigned long long)p.updates, (unsigned long long)p.forces,
              (unsigned long long)p.force_requests,
              (unsigned long long)p.piggybacked, p.forces_per_update);
}

}  // namespace
}  // namespace cedar::bench

int main(int argc, char** argv) {
  using namespace cedar::bench;
  CheckFlags(argc, argv,
             {{"--smoke"},
              {"--scaling"},
              {"--threads", /*takes_value=*/true},
              {"--json", /*takes_value=*/true}});
  const bool smoke = SmokeMode(argc, argv);
  const int curve_rounds = smoke ? 10 : 40;
  const int sat_rounds = smoke ? 60 : 200;
  const char* json_path = StringFlag(argc, argv, "--json");

  // --scaling: the disjoint-name saturation curve at 1/4/8 clients. Exits
  // nonzero unless 8-thread aggregate throughput is strictly above the
  // single-thread figure — the CI regression gate for parallel commit.
  if (HasFlag(argc, argv, "--scaling")) {
    std::printf("Multi-client saturation, shard-disjoint names\n\n");
    PrintSatHeader();
    std::vector<SatPoint> curve;
    for (int threads : {1, 4, 8}) {
      curve.push_back(RunSaturation(threads, sat_rounds));
      PrintSatPoint(curve.back());
    }
    const double t1 = curve.front().virtual_updates_per_sec;
    const double t8 = curve.back().virtual_updates_per_sec;
    std::printf("\n8-thread vs 1-thread throughput: x%.2f (%s)\n",
                t1 > 0 ? t8 / t1 : 0,
                t8 > t1 ? "rising" : "NOT RISING");
    if (json_path != nullptr) {
      WriteJson(json_path, "scaling", sat_rounds, curve, {});
    }
    return t8 > t1 ? 0 : 1;
  }

  // --threads N: just the concurrent amortization measurement for one N,
  // with the commit daemon on. Used by CI and for plotting the curve.
  const int threads_flag = IntFlag(argc, argv, "--threads", 0);
  if (threads_flag > 0) {
    std::printf("Group commit amortization, %d concurrent clients\n\n",
                threads_flag);
    CurvePoint point = RunConcurrent(threads_flag, curve_rounds);
    PrintCurveHeader();
    PrintCurvePoint(point);
    std::printf("\nforces-per-metadata-update: %.3f\n",
                point.forces_per_update);
    return 0;
  }

  std::printf("Section 5.4: group commit (bulk subdirectory updates)\n\n");

  BulkResult batched = RunBulk(500 * cedar::sim::kMillisecond);
  BulkResult unbatched = RunBulk(0);  // every op forces its own record

  const double meta_factor =
      static_cast<double>(unbatched.metadata_ios) /
      static_cast<double>(batched.metadata_ios);
  const double total_factor = static_cast<double>(unbatched.total_ios) /
                              static_cast<double>(batched.total_ios);

  std::printf("%-28s %12s %12s\n", "", "no batching", "group commit");
  std::printf("%-28s %12llu %12llu\n", "metadata I/Os",
              (unsigned long long)unbatched.metadata_ios,
              (unsigned long long)batched.metadata_ios);
  std::printf("%-28s %12llu %12llu\n", "total I/Os",
              (unsigned long long)unbatched.total_ios,
              (unsigned long long)batched.total_ios);
  std::printf("%-28s %12llu %12llu\n", "log records",
              (unsigned long long)unbatched.log_records,
              (unsigned long long)batched.log_records);
  std::printf("\nmetadata I/O reduction: x%.2f   (paper: x2.98)\n",
              meta_factor);
  std::printf("total I/O reduction:    x%.2f   (paper: x2.34)\n",
              total_factor);
  std::printf(
      "record sizes with group commit: avg %.1f sectors, max %u "
      "(paper: typical 33, max 83; 1-page record = 7)\n\n",
      batched.avg_record_sectors, batched.max_record_sectors);

  std::printf("Ablation: commit interval sweep\n");
  std::printf("%-12s %10s %10s %12s %10s\n", "interval", "meta I/O",
              "total I/O", "log records", "avg rec");
  const std::vector<cedar::sim::Micros> intervals =
      smoke ? std::vector<cedar::sim::Micros>{cedar::sim::Micros{0},
                                              500 * cedar::sim::kMillisecond,
                                              2000 * cedar::sim::kMillisecond}
            : std::vector<cedar::sim::Micros>{
                  cedar::sim::Micros{0}, 50 * cedar::sim::kMillisecond,
                  100 * cedar::sim::kMillisecond,
                  250 * cedar::sim::kMillisecond,
                  500 * cedar::sim::kMillisecond,
                  1000 * cedar::sim::kMillisecond,
                  2000 * cedar::sim::kMillisecond};
  for (cedar::sim::Micros interval : intervals) {
    BulkResult r = RunBulk(interval);
    std::printf("%8llu ms %10llu %10llu %12llu %9.1fs\n",
                (unsigned long long)(interval / 1000),
                (unsigned long long)r.metadata_ios,
                (unsigned long long)r.total_ios,
                (unsigned long long)r.log_records, r.avg_record_sectors);
  }

  std::printf(
      "\nConcurrent clients: amortization via the commit daemon\n"
      "(each client: update own file -> rendezvous -> Force)\n");
  PrintCurveHeader();
  std::vector<CurvePoint> curve;
  for (int threads : {1, 4, 16}) {
    curve.push_back(RunConcurrent(threads, curve_rounds));
    PrintCurvePoint(curve.back());
  }
  bool strictly_decreasing = true;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    strictly_decreasing &=
        curve[i].forces_per_update < curve[i - 1].forces_per_update;
  }
  std::printf("forces-per-metadata-update strictly decreasing: %s\n",
              strictly_decreasing ? "yes" : "NO");

  std::printf(
      "\nMulti-client saturation: aggregate throughput on shard-disjoint "
      "names\n");
  PrintSatHeader();
  std::vector<SatPoint> sat;
  for (int threads : {1, 2, 4, 8}) {
    sat.push_back(RunSaturation(threads, sat_rounds));
    PrintSatPoint(sat.back());
  }
  const double speedup = sat.front().virtual_updates_per_sec > 0
                             ? sat.back().virtual_updates_per_sec /
                                   sat.front().virtual_updates_per_sec
                             : 0;
  std::printf("8-thread vs 1-thread throughput: x%.2f\n", speedup);
  if (json_path != nullptr) {
    WriteJson(json_path, "full", sat_rounds, sat, curve);
  }
  return strictly_decreasing ? 0 : 1;
}
