// Recovery window vs log fill: the continuous checkpoint round against
// third-based reclamation.
//
//   bench_recovery [--smoke] [--json PATH]
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
//
// The paper's recovery times (sections 5.5 and 5.9: FSD's crash mount by
// population, the VAM-logging ablation, BSD fsck) are bench_paper's.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/core/fsd.h"
#include "src/fsapi/file_system.h"
#include "src/util/random.h"
#include "src/workload/workload.h"

namespace cedar::bench {
namespace {

constexpr std::uint32_t kCkptWindowSectors = 200;
constexpr std::uint32_t kCkptFiles = 120;

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
                   const std::vector<CkptPoint>& points) {
  BenchReport report("recovery");
  report.SetConfig("smoke", smoke ? 1.0 : 0.0);
  report.SetConfig("window_sectors", kCkptWindowSectors);
  report.SetConfig("daemon_crash_points", "one checkpoint cycle, worst");
  std::string fills;
  for (const CkptPoint& p : points) {
    fills += std::to_string(p.touches) + (p.daemon ? "d," : "t,");
  }
  report.SetConfig("fills", fills);
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
  CEDAR_CHECK_OK(report.WriteFile(path));
}

}  // namespace
}  // namespace cedar::bench

int main(int argc, char** argv) {
  using namespace cedar::bench;
  CheckFlags(argc, argv, {{"--smoke"}, {"--json", /*takes_value=*/true}});
  const bool smoke = SmokeMode(argc, argv);
  const std::vector<int> fills = smoke ? std::vector<int>{60, 150}
                                       : std::vector<int>{100, 200, 400, 800};

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
  if (const char* path = StringFlag(argc, argv, "--json")) {
    WriteCkptJson(path, smoke, points);
  }

  // Gates (CI fails on a nonzero exit), each over every crash point of a
  // daemon row's cycle:
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
