// Sections 5.5 / 5.9 and Table 2's recovery row: crash-recovery times.
//
//   Paper:
//     FSD log replay:        "rarely takes more than two seconds"
//     FSD VAM reconstruction: ~20 s (300 MB volume, Dorado)
//     FSD worst case:         ~25 s
//     CFS scavenge:           an hour or more (3600+ s)
//     4.3 BSD fsck (VAX):     ~7 minutes (~420 s)
//
// The sweep shows how FSD recovery scales with volume population (the
// name-table scan is the variable part) while CFS scavenging scales with
// raw volume capacity — the paper's point that scavenge-style recovery is
// untenable "as disk capacity continues to grow".

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/bsd/ffs.h"
#include "src/cfs/cfs.h"
#include "src/core/fsd.h"
#include "src/fsapi/file_system.h"
#include "src/obs/metrics.h"
#include "src/util/random.h"
#include "src/workload/workload.h"

namespace cedar::bench {
namespace {

// One crash mount's virtual time, split by the mount-phase counters
// (fsd.mount_*_us; the five phases add up to the whole mount).
struct MountPhases {
  double root_s = 0;
  double replay_s = 0;  // collecting the log's images and writing them home
  double sweep_s = 0;   // reading the live name table, both copies
  double rebuild_s = 0;  // the VAM, rebuilt from the swept images
  double total_s = 0;
  std::uint64_t sweep_sectors = 0;
};

// Populates a fresh default-geometry volume with `files`, leaves
// uncommitted work in flight, crashes, and times the recovering Mount.
MountPhases FsdRecovery(std::uint32_t files, bool vam_logging = false) {
  Rig rig;
  cedar::core::FsdConfig config;
  config.durability.vam_logging = vam_logging;
  cedar::core::Fsd fsd(&rig.disk, config);
  CEDAR_CHECK_OK(fsd.Format());
  cedar::Rng rng(5);
  cedar::workload::SizeDistribution sizes;
  CEDAR_CHECK_OK(
      cedar::workload::PopulateVolume(&fsd, "v/", files, sizes, rng)
          .status());
  for (int i = 0; i < 20; ++i) {
    CEDAR_CHECK_OK(fsd.Touch("v/f" + std::to_string(i) + ".db"));
  }
  rig.disk.CrashNow();
  rig.disk.Reopen();

  cedar::core::Fsd recovered(&rig.disk, config);
  MountPhases phases;
  phases.total_s =
      TimedMs(rig.clock, [&] { CEDAR_CHECK_OK(recovered.Mount()); }) / 1000.0;
  // The recovered instance's registry counted only this mount.
  const cedar::obs::MetricsSnapshot m = recovered.SnapshotMetrics();
  auto seconds = [&](const char* name) {
    return static_cast<double>(m.CounterValue(name)) / 1e6;
  };
  phases.root_s = seconds("fsd.mount_root_us");
  phases.replay_s = seconds("fsd.mount_replay_read_us") +
                    seconds("fsd.mount_replay_write_us");
  phases.sweep_s = seconds("fsd.mount_sweep_us");
  phases.rebuild_s = seconds("fsd.mount_rebuild_us");
  phases.sweep_sectors = m.CounterValue("fsd.mount_sweep_sectors");
  return phases;
}

// ---- --ckpt mode: recovery window vs log fill, thirds vs continuous. ----
//
// The continuous checkpoint round's contract is that mount-time replay
// covers at most `checkpoint.window_sectors` of log, no matter how much
// work ran before the crash. Without it, the replay window grows with log
// fill until third reclamation trims it — up to two thirds of the record
// area. This sweep churns metadata (touch + force) to fill levels well past
// a log wrap and crashes at each level, with the round off and on, so the
// bounded-vs-linear contrast is measured rather than asserted. Commit runs
// inline, so the checkpoint round steps at the end of each Force() and
// every row is a deterministic function of the fill.
//
// With the round on, the live log is a sawtooth: it grows a few sectors per
// touch until a force pushes it past the window, and the round drains it to
// half. One crash would read wherever in that cycle the fill happens to
// land, so a daemon row crashes after every touch of one full cycle (from
// one checkpoint advance to the next), each its own fill, and reports the
// worst: the largest window, the most pages replayed, the slowest mount.

constexpr std::uint32_t kCkptWindowSectors = 200;
constexpr std::uint32_t kCkptFiles = 120;
// The crash mount with a VAM rebuild that rides along in the --ckpt report,
// so the sweep's cost is gated too: FsdRecovery at this population.
constexpr std::uint32_t kRebuildFiles = 1000;

struct CkptPoint {
  int touches = 0;
  bool daemon = false;
  // Over the row's crash points (one for a thirds row):
  std::uint64_t pre_crash_window_bytes = 0;  // largest RecoveryWindow()
  std::uint64_t replay_pages = 0;            // most pages one Mount replayed
  double mount_ms = 0;                       // slowest virtual Mount()
  int crash_points = 0;
};

cedar::core::FsdConfig CkptConfig(bool daemon) {
  cedar::core::FsdConfig config;
  // Single-record groups keep the window floor (one clamped commit group)
  // small, so a tight 200-sector window is a legal configuration.
  config.commit.group_records = 1;
  config.checkpoint.daemon = daemon;
  config.checkpoint.window_sectors = kCkptWindowSectors;
  // VAM logging removes the ~20 s rebuild constant from every mount, so the
  // mount-time column isolates the log-replay share this sweep is about.
  config.durability.vam_logging = true;
  return config;
}

// A fresh volume after `touches` touch+force steps. `after_touch(i, fs)`
// runs after step i (1-based); the fill stops early when it returns false.
class CkptFill {
 public:
  using AfterTouch = std::function<bool(int, cedar::fs::FileSystem&)>;
  CkptFill(bool daemon, int touches, const AfterTouch& after_touch = nullptr)
      : config_(CkptConfig(daemon)), fsd_(&rig_.disk, config_) {
    CEDAR_CHECK_OK(fsd_.Format());
    cedar::Rng rng(7);
    cedar::workload::SizeDistribution sizes;
    CEDAR_CHECK_OK(
        cedar::workload::PopulateVolume(&fsd_, "v/", kCkptFiles, sizes, rng)
            .status());
    for (int i = 0; i < touches; ++i) {
      CEDAR_CHECK_OK(
          fsd_.Touch("v/f" + std::to_string(i % kCkptFiles) + ".db"));
      CEDAR_CHECK_OK(fs().Force());
      if (after_touch && !after_touch(i + 1, fs())) {
        break;
      }
    }
  }

  cedar::fs::FileSystem& fs() { return fsd_; }  // the maintenance API

  // Crashes the volume, mounts it, and folds the window before the crash,
  // the pages replayed and the virtual mount time into `point`.
  void CrashAndMount(CkptPoint* point) {
    auto window = fs().RecoveryWindow();
    CEDAR_CHECK_OK(window.status());
    rig_.disk.CrashNow();
    rig_.disk.Reopen();
    // Mount runs no round: the measured virtual time is exactly the mount
    // (replay + rebuild).
    cedar::core::Fsd recovered(&rig_.disk, config_);
    const double mount_ms =
        TimedMs(rig_.clock, [&] { CEDAR_CHECK_OK(recovered.Mount()); });
    const std::uint64_t replayed = recovered.SnapshotMetrics().CounterValue(
        "fsd.recovery_pages_replayed");
    CEDAR_CHECK_OK(recovered.Shutdown());
    point->pre_crash_window_bytes =
        std::max(point->pre_crash_window_bytes, window.value());
    point->replay_pages = std::max(point->replay_pages, replayed);
    point->mount_ms = std::max(point->mount_ms, mount_ms);
    ++point->crash_points;
  }

 private:
  Rig rig_;
  cedar::core::FsdConfig config_;
  cedar::core::Fsd fsd_;
};

CkptPoint RunCkptFill(int touches, bool daemon) {
  CkptPoint point;
  point.touches = touches;
  point.daemon = daemon;
  if (!daemon) {
    CkptFill(daemon, touches).CrashAndMount(&point);
    return point;
  }
  // One full cycle past the fill: from the touch after a checkpoint advance
  // through the touch whose force brings the next advance. A probe run
  // finds it; then each of its touches is a crash point of its own fill.
  std::vector<int> advanced_at;
  std::uint64_t advances = 0;
  CkptFill(daemon, touches + 4 * static_cast<int>(kCkptWindowSectors),
           [&](int touched, cedar::fs::FileSystem& fs) {
             const std::uint64_t now = fs.Maintenance().checkpoint_advances;
             if (touched > touches && now > advances) {
               advanced_at.push_back(touched);
             }
             advances = now;
             return advanced_at.size() < 2;
           });
  CEDAR_CHECK(advanced_at.size() == 2);
  for (int at = advanced_at[0] + 1; at <= advanced_at[1]; ++at) {
    CkptFill(daemon, at).CrashAndMount(&point);
  }
  return point;
}

// Mount time and replay volume gate; the pre-crash window is the round's
// contract and is already hard-gated below, so it rides along as info.
void WriteCkptJson(const char* path, bool smoke,
                   const std::vector<CkptPoint>& points,
                   const MountPhases& rebuild) {
  BenchReport report("recovery");
  report.SetConfig("mode", "ckpt");
  report.SetConfig("smoke", smoke ? 1.0 : 0.0);
  report.SetConfig("window_sectors", kCkptWindowSectors);
  report.SetConfig("daemon_crash_points", "one checkpoint cycle, worst");
  std::string fills;
  for (const CkptPoint& p : points) {
    fills += std::to_string(p.touches) + (p.daemon ? "d," : "t,");
  }
  report.SetConfig("fills", fills);
  report.SetConfig("rebuild_files", kRebuildFiles);
  char key[64];
  for (const CkptPoint& p : points) {
    // A daemon row is the worst over its crash points: "_max_" says so.
    const char* kind = p.daemon ? "daemon" : "thirds";
    const char* max = p.daemon ? "max_" : "";
    std::snprintf(key, sizeof(key), "mount_ms_%s%d_%s", max, p.touches, kind);
    report.AddMetric(key, p.mount_ms, Direction::kLowerIsBetter, "vms");
    std::snprintf(key, sizeof(key), "replay_pages_%s%d_%s", max, p.touches,
                  kind);
    report.AddMetric(key, static_cast<double>(p.replay_pages),
                     Direction::kLowerIsBetter, "pages");
    std::snprintf(key, sizeof(key), "window_bytes_%s%d_%s", max, p.touches,
                  kind);
    report.AddInfo(key, static_cast<double>(p.pre_crash_window_bytes));
    if (p.daemon) {
      std::snprintf(key, sizeof(key), "crash_points_%d_daemon", p.touches);
      report.AddInfo(key, p.crash_points);
    }
  }
  // The rebuild mount: its virtual time and the home sectors its sweep
  // read (both copies of the live name table, not every preallocated page).
  std::snprintf(key, sizeof(key), "mount_ms_rebuild_%u", kRebuildFiles);
  report.AddMetric(key, rebuild.total_s * 1000.0, Direction::kLowerIsBetter,
                   "vms");
  std::snprintf(key, sizeof(key), "sweep_sectors_rebuild_%u", kRebuildFiles);
  report.AddMetric(key, static_cast<double>(rebuild.sweep_sectors),
                   Direction::kLowerIsBetter, "sectors");
  CEDAR_CHECK_OK(report.WriteFile(path));
}

// Runs the sweep and gates: returns the process exit code.
int CkptMain(int argc, char** argv) {
  const bool smoke = SmokeMode(argc, argv);
  const std::vector<int> fills = smoke ? std::vector<int>{60, 150}
                                       : std::vector<int>{100, 200, 400, 800};
  const char* json_path =
      StringFlag(argc, argv, "--json", "BENCH_recovery.json");

  std::printf("Mount recovery vs log fill (window = %u sectors)\n\n",
              kCkptWindowSectors);
  std::printf("%8s %10s %7s %14s %12s %10s\n", "touches", "daemon", "crashes",
              "window B", "replay pages", "mount ms");
  std::vector<CkptPoint> points;
  for (int touches : fills) {
    for (bool daemon : {false, true}) {
      points.push_back(RunCkptFill(touches, daemon));
      const CkptPoint& p = points.back();
      std::printf("%8d %10s %7d %14llu %12llu %10.1f\n", p.touches,
                  p.daemon ? "on" : "off", p.crash_points,
                  (unsigned long long)p.pre_crash_window_bytes,
                  (unsigned long long)p.replay_pages, p.mount_ms);
    }
  }
  const MountPhases rebuild = FsdRecovery(kRebuildFiles);
  std::printf("\nCrash mount with VAM rebuild, %u files: %.1f ms "
              "(sweep %.1f ms, %llu sectors)\n",
              kRebuildFiles, rebuild.total_s * 1000.0, rebuild.sweep_s * 1000.0,
              (unsigned long long)rebuild.sweep_sectors);
  WriteCkptJson(json_path, smoke, points, rebuild);

  // Gates (CI runs this mode and fails on nonzero exit), each over every
  // crash point of a daemon row's cycle:
  //   1. with the round, the pre-crash recovery window never exceeds the
  //      configured bound — the round's contract;
  //   2. with the round, mount replays at most the window's worth of
  //      pages, regardless of fill;
  //   3. at the deepest fill, the most daemon replay is strictly below
  //      third-based replay — bounded vs linear.
  const std::uint64_t bound_bytes = std::uint64_t{kCkptWindowSectors} * 512;
  bool ok = true;
  for (const CkptPoint& p : points) {
    if (p.daemon && p.pre_crash_window_bytes > bound_bytes) {
      std::printf("GATE: window %llu B exceeds bound %llu B at %d touches\n",
                  (unsigned long long)p.pre_crash_window_bytes,
                  (unsigned long long)bound_bytes, p.touches);
      ok = false;
    }
    if (p.daemon && p.replay_pages > kCkptWindowSectors) {
      std::printf("GATE: replayed %llu pages > %u-sector window\n",
                  (unsigned long long)p.replay_pages, kCkptWindowSectors);
      ok = false;
    }
  }
  const CkptPoint& deep_thirds = points[points.size() - 2];
  const CkptPoint& deep_daemon = points[points.size() - 1];
  if (deep_daemon.replay_pages >= deep_thirds.replay_pages) {
    std::printf("GATE: daemon replay (%llu pages) not below third-based "
                "replay (%llu pages) at %d touches\n",
                (unsigned long long)deep_daemon.replay_pages,
                (unsigned long long)deep_thirds.replay_pages,
                deep_daemon.touches);
    ok = false;
  }
  std::printf("\nrecovery-window gate: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace cedar::bench

int main(int argc, char** argv) {
  using namespace cedar::bench;
  CheckFlags(argc, argv,
             {{"--smoke"}, {"--ckpt"}, {"--json", /*takes_value=*/true}});
  if (HasFlag(argc, argv, "--ckpt")) {
    return CkptMain(argc, argv);
  }
  const bool smoke = SmokeMode(argc, argv);
  // Smoke mode shrinks populations ~10x; recovery still exercises log
  // replay, VAM rebuild, scavenge, and fsck.
  const std::vector<std::uint32_t> sweep =
      smoke ? std::vector<std::uint32_t>{300u, 1000u}
            : std::vector<std::uint32_t>{1000u, 3000u, 6000u, 10000u};
  const std::vector<std::uint32_t> ablation =
      smoke ? std::vector<std::uint32_t>{1000u}
            : std::vector<std::uint32_t>{3000u, 10000u};
  const std::uint32_t scavenge_files = smoke ? 600u : 6000u;

  std::printf("Recovery benchmarks (300 MB simulated volume)\n\n");

  std::printf("FSD crash recovery vs population (the mount-phase counters):\n");
  std::printf("%8s %8s %10s %8s %10s %8s %14s\n", "files", "root s",
              "replay s", "sweep s", "rebuild s", "total s", "sweep sectors");
  for (std::uint32_t files : sweep) {
    const MountPhases p = FsdRecovery(files);
    std::printf("%8u %8.2f %10.2f %8.2f %10.2f %8.2f %14llu\n", files,
                p.root_s, p.replay_s, p.sweep_s, p.rebuild_s, p.total_s,
                (unsigned long long)p.sweep_sectors);
  }
  std::printf("(paper: replay <= 2 s, VAM rebuild ~20 s, worst ~25 s)\n\n");

  std::printf("Extension ablation — VAM logging (section 5.3's deferred\n"
              "modification: \"would greatly decrease worst case crash\n"
              "recovery time from about twenty five seconds to about two\n"
              "seconds\"):\n");
  std::printf("%8s %10s %10s\n", "files", "rebuild s", "vamlog s");
  for (std::uint32_t files : ablation) {
    std::printf("%8u %10.1f %10.1f\n", files, FsdRecovery(files).total_s,
                FsdRecovery(files, /*vam_logging=*/true).total_s);
  }
  std::printf("\n");

  {
    Rig rig;
    cedar::cfs::Cfs cfs(&rig.disk, cedar::cfs::CfsConfig{});
    CEDAR_CHECK_OK(cfs.Format());
    cedar::Rng rng(5);
    cedar::workload::SizeDistribution sizes;
    CEDAR_CHECK_OK(
        cedar::workload::PopulateVolume(&cfs, "v/", scavenge_files, sizes,
                                        rng)
            .status());
    const double seconds = TimedMs(rig.clock, [&] {
                             cedar::cfs::Cfs recovered(
                                 &rig.disk, cedar::cfs::CfsConfig{});
                             CEDAR_CHECK_OK(recovered.Scavenge());
                           }) /
                           1000.0;
    std::printf("CFS scavenge, %u files: %.0f s (paper: 3600+ s)\n",
                scavenge_files, seconds);
  }
  {
    Rig rig;
    cedar::bsd::Ffs ffs(&rig.disk, cedar::bsd::FfsConfig{});
    CEDAR_CHECK_OK(ffs.Format());
    cedar::Rng rng(5);
    cedar::workload::SizeDistribution sizes;
    CEDAR_CHECK_OK(
        cedar::workload::PopulateVolume(&ffs, "v/", scavenge_files, sizes,
                                        rng)
            .status());
    const double seconds =
        TimedMs(rig.clock,
                [&] {
                  cedar::bsd::Ffs recovered(&rig.disk,
                                            cedar::bsd::FfsConfig{});
                  CEDAR_CHECK_OK(recovered.Fsck());
                }) /
        1000.0;
    std::printf("4.3 BSD fsck, %u files: %.0f s (paper: ~420 s)\n",
                scavenge_files, seconds);
  }
  return 0;
}
