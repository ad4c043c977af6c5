// Parallel group commit: aggregate throughput as clients are added.
//
// The paper's argument for group commit is that one log write commits the
// work of *many* clients: "the log force that commits one client's update
// commits everyone's". N clients on shard-disjoint names, each round:
// update my file, rendezvous, demand durability. Every round costs one
// group commit (the rendezvous guarantees all N updates are outstanding
// before any client forces), so forces per update fall like 1/N and
// aggregate throughput — updates per second of virtual time, the paper's
// updates/sec at the server — rises with N while the per-round force cost
// stays flat. Wall-clock throughput is reported alongside: on a multi-core
// host it tracks how far the op path actually parallelizes.
//
//   bench_group_commit [--smoke] [--json PATH]
//
// Exits 1 unless forces per update strictly fall with clients and the
// 8-client virtual throughput beats the single client's. The section 5.4
// bulk-update factors and the commit-interval sweep are bench_paper's.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/core/fsd.h"
#include "src/obs/metrics.h"

namespace cedar::bench {
namespace {

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

// Each of `threads` clients runs `rounds` iterations of: update my file,
// wait for everyone, Force(). The barrier models the bursty multi-client
// pattern (a build system's parallel compile steps finishing together);
// without it the threads drift apart and the rendezvous is less sharp.
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

void PrintSatPoint(const SatPoint& p) {
  std::printf("%8d %8llu %8llu %14.3f %12.1f %12.1f %14.1f\n", p.threads,
              (unsigned long long)p.updates, (unsigned long long)p.forces,
              p.forces_per_update, p.virtual_us / 1000.0, p.disk_us / 1000.0,
              p.virtual_updates_per_sec);
}

// Machine-readable trajectory point for BENCH_group_commit.json. Virtual
// times gate; wall-clock figures are machine-dependent and stay info-only.
void WriteJson(const char* path, int rounds,
               const std::vector<SatPoint>& saturation) {
  BenchReport report("group_commit");
  report.SetConfig("mode", "scaling");
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
  CEDAR_CHECK_OK(report.WriteFile(path));
}

}  // namespace
}  // namespace cedar::bench

int main(int argc, char** argv) {
  using namespace cedar::bench;
  CheckFlags(argc, argv, {{"--smoke"}, {"--json", /*takes_value=*/true}});
  const int rounds = SmokeMode(argc, argv) ? 60 : 200;

  std::printf("Multi-client saturation, shard-disjoint names\n"
              "(each client: update own file -> rendezvous -> Force)\n\n");
  std::printf("%8s %8s %8s %14s %12s %12s %14s\n", "threads", "updates",
              "forces", "forces/update", "virt ms", "disk ms",
              "updates/vsec");
  std::vector<SatPoint> curve;
  for (int threads : {1, 4, 8}) {
    curve.push_back(RunSaturation(threads, rounds));
    PrintSatPoint(curve.back());
  }
  bool falling = true;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    falling &= curve[i].forces_per_update < curve[i - 1].forces_per_update;
  }
  const double t1 = curve.front().virtual_updates_per_sec;
  const double t8 = curve.back().virtual_updates_per_sec;
  std::printf("\nforces per update strictly falling: %s\n",
              falling ? "yes" : "NO");
  std::printf("8-thread vs 1-thread throughput: x%.2f (%s)\n",
              t1 > 0 ? t8 / t1 : 0, t8 > t1 ? "rising" : "NOT RISING");
  if (const char* path = StringFlag(argc, argv, "--json")) {
    WriteJson(path, rounds, curve);
  }
  return falling && t8 > t1 ? 0 : 1;
}
