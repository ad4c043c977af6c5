// Scale-out bench: the multi-volume / multi-spindle throughput surface
// (ISSUE PR-10). Two sweeps, both on virtual time so every number is a
// deterministic constant of the code:
//
//   1. VOLUME SWEEP — a closed-loop multi-tenant Zipf workload fanned
//      across 1/2/4/8 single-spindle volumes behind the VolumeRouter.
//      Volumes are independent machines (private clock + disk + FSD), so
//      aggregate throughput is total ops / max per-volume elapsed — the
//      slowest shard bounds the wall clock. Gated metrics: aggregate
//      ops/vsec and forces per update op at each volume count; the curve
//      must be monotone (more volumes never slower) and 8 volumes must
//      beat 1 substantially.
//
//   2. SPINDLE SWEEP — one volume doing bulk sequential transfers on a
//      striped DiskArray of 1/2/4 members (plus a 2-way mirror): chunked
//      striping overlaps member service, so elapsed must shrink as width
//      grows, while the mirror pays write amplification for redundancy.
//      Per-spindle busy-time utilization rides along as info metrics.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/core/fsd.h"
#include "src/sim/array.h"
#include "src/obs/trace.h"
#include "src/util/random.h"
#include "src/volume/rig.h"
#include "src/volume/router.h"
#include "src/workload/workload.h"

namespace cedar::bench {
namespace {

struct ScaleoutShape {
  // Volume sweep: the tenant mix with a rename round trip in op slot 6.
  workload::TenantMix mix{.ops = 4000,
                          .files_per_tenant = 64,
                          .tenants = 8,
                          .seed = 1987,
                          .rename_slot = true};
  // Spindle sweep: bulk sequential transfers (big files hit the big-file
  // area and stream whole chunks, the striping sweet spot).
  std::uint32_t bulk_files = 12;
  std::uint32_t bulk_kb = 96;
};

ScaleoutShape SmokeShape() {
  ScaleoutShape shape;
  shape.mix.ops = 640;
  shape.mix.files_per_tenant = 24;
  shape.bulk_files = 6;
  shape.bulk_kb = 48;
  return shape;
}

// Per-member geometry, deliberately smaller than the Trident default: the
// 8-volume rig instantiates eight full media images at once, and the
// workload's footprint (a few hundred small files per volume) doesn't need
// 300 MB per spindle to behave identically.
sim::DiskGeometry BenchGeometry() {
  sim::DiskGeometry geometry;
  geometry.cylinders = 96;  // ~26 MB per member
  return geometry;
}

core::FsdConfig VolumeConfig() {
  core::FsdConfig config;
  config.log_sectors = 800;
  config.nt_pages = 512;
  config.cache_frames = 2048;
  return config;
}

vol::RigConfig MakeRigConfig(std::uint32_t volumes, std::uint32_t spindles,
                             sim::ArrayMode mode) {
  vol::RigConfig config;
  config.volumes = volumes;
  config.spindles = spindles;
  config.mode = mode;
  config.chunk_sectors = 8;
  config.geometry = BenchGeometry();
  config.fsd = VolumeConfig();
  return config;
}

// ---------------------------------------------------------------------------
// Volume sweep.

struct VolumePoint {
  std::uint32_t volumes = 0;
  std::uint64_t ops = 0;
  std::uint64_t updates = 0;  // mutating ops (create/write/delete/rename)
  std::uint64_t forces = 0;
  std::uint64_t cross_renames = 0;
  sim::Micros elapsed = 0;  // max per-volume elapsed = scale-out wall clock
  double ops_per_vsec = 0;
  double forces_per_update = 0;
  double busiest_share = 0;  // op fraction on the most loaded volume
};

VolumePoint RunVolumeSweep(const ScaleoutShape& shape,
                           std::uint32_t volumes) {
  vol::ScaleoutRig rig(
      MakeRigConfig(volumes, /*spindles=*/1, sim::ArrayMode::kStriped));
  vol::VolumeRouter& router = rig.router();

  std::vector<std::uint64_t> per_volume_ops(volumes, 0);
  VolumePoint point;
  point.volumes = volumes;
  // Think time on the OWNING volume only: each shard is an independent
  // machine, its group-commit deadline runs on its own clock.
  auto updates = workload::RunTenantMix(
      &router, shape.mix, [&](const std::string& name, sim::Micros think) {
        const std::uint32_t v = vol::VolumeRouter::VolumeOf(name, volumes);
        ++per_volume_ops[v];
        rig.clock(v).Advance(think);
        return rig.fsd(v).Tick();
      });
  CEDAR_CHECK_OK(updates.status());
  point.updates = *updates;

  point.ops = shape.mix.ops;
  point.elapsed = rig.MaxElapsed();
  for (std::uint32_t v = 0; v < volumes; ++v) {
    point.forces += rig.fsd(v).SnapshotMetrics().CounterValue("fsd.forces");
    point.busiest_share =
        std::max(point.busiest_share, static_cast<double>(per_volume_ops[v]) /
                                          static_cast<double>(shape.mix.ops));
  }
  point.cross_renames =
      router.Metrics().Snapshot().CounterValue("router.cross_renames");
  point.ops_per_vsec =
      point.elapsed == 0
          ? 0
          : static_cast<double>(point.ops) * 1e6 /
                static_cast<double>(point.elapsed);
  point.forces_per_update =
      point.updates == 0
          ? 0
          : static_cast<double>(point.forces) /
                static_cast<double>(point.updates);
  CEDAR_CHECK_OK(router.Shutdown());
  return point;
}

// ---------------------------------------------------------------------------
// Spindle sweep.

struct SpindlePoint {
  std::string label;
  std::uint32_t spindles = 0;
  sim::Micros bulk_us = 0;  // bulk write+readback phase, virtual time
  std::vector<double> utilization;  // per-spindle busy / volume elapsed
};

SpindlePoint RunSpindleSweep(const ScaleoutShape& shape,
                             std::uint32_t spindles, sim::ArrayMode mode,
                             const std::string& label) {
  vol::ScaleoutRig rig(MakeRigConfig(/*volumes=*/1, spindles, mode));
  vol::VolumeRouter& router = rig.router();
  obs::DiskTracer tracer;
  if (std::getenv("SCALEOUT_TRACE") != nullptr) {
    rig.device(0).set_tracer(&tracer);
  }
  Rng rng(shape.mix.seed ^ 0xBDBD);

  std::vector<std::uint8_t> payload(shape.bulk_kb * 1024u);
  const sim::Micros before = rig.clock(0).now();
  for (std::uint32_t f = 0; f < shape.bulk_files; ++f) {
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.Next());
    }
    CEDAR_CHECK_OK(
        router.CreateFile("bulk/f" + std::to_string(f), payload).status());
  }
  CEDAR_CHECK_OK(router.Force());
  for (std::uint32_t f = 0; f < shape.bulk_files; ++f) {
    auto handle = router.Open("bulk/f" + std::to_string(f));
    CEDAR_CHECK_OK(handle.status());
    std::vector<std::uint8_t> out(handle.value().byte_size);
    CEDAR_CHECK_OK(router.Read(handle.value(), 0, out));
    CEDAR_CHECK_OK(router.Close(handle.value()));
  }

  SpindlePoint point;
  point.label = label;
  point.spindles = spindles;
  point.bulk_us = rig.clock(0).now() - before;
  const sim::Micros elapsed = rig.clock(0).now();
  sim::BlockDevice& device = rig.device(0);
  for (std::uint32_t s = 0; s < device.spindle_count(); ++s) {
    const double busy = static_cast<double>(device.SpindleStats(s).busy_us);
    point.utilization.push_back(
        elapsed == 0 ? 0 : busy / static_cast<double>(elapsed));
  }
  if (std::getenv("SCALEOUT_TRACE") != nullptr) {
    std::printf("--- %s trace (%zu events) ---\n", label.c_str(),
                tracer.Events().size());
    for (const auto& e : tracer.Events()) {
      std::printf("  t=%8llu sp=%u lba=%8llu n=%4u kind=%d\n",
                  (unsigned long long)e.start_us, e.spindle,
                  (unsigned long long)e.lba, e.sectors,
                  static_cast<int>(e.kind));
    }
    rig.device(0).set_tracer(nullptr);
  }
  CEDAR_CHECK_OK(router.Shutdown());
  return point;
}

// ---------------------------------------------------------------------------

BenchReport RunScaleoutBench(const ScaleoutShape& shape, bool smoke) {
  BenchReport report("scaleout");
  report.SetConfig("ops", shape.mix.ops);
  report.SetConfig("files_per_tenant", shape.mix.files_per_tenant);
  report.SetConfig("tenants", shape.mix.tenants);
  report.SetConfig("zipf_s", shape.mix.zipf_s);
  report.SetConfig("seed", static_cast<double>(shape.mix.seed));
  report.SetConfig("smoke", smoke ? 1.0 : 0.0);
  report.SetConfig("volumes", "1,2,4,8");
  report.SetConfig("spindles", "1,2,4 striped + 2 mirrored");
  report.SetConfig("chunk_sectors", 8);
  report.SetConfig("bulk_files", shape.bulk_files);
  report.SetConfig("bulk_kb", shape.bulk_kb);

  std::printf("Volume sweep: %u ops, %u tenants, Zipf(s=%.2f)\n\n",
              shape.mix.ops, shape.mix.tenants, shape.mix.zipf_s);
  std::printf("%8s %10s %12s %14s %10s %8s\n", "volumes", "updates",
              "ops/vsec", "forces/update", "xrenames", "hot%");
  char key[64];
  std::vector<VolumePoint> points;
  for (std::uint32_t volumes : {1u, 2u, 4u, 8u}) {
    points.push_back(RunVolumeSweep(shape, volumes));
    const VolumePoint& p = points.back();
    std::printf("%8u %10llu %12.1f %14.4f %10llu %7.0f%%\n", p.volumes,
                (unsigned long long)p.updates, p.ops_per_vsec,
                p.forces_per_update, (unsigned long long)p.cross_renames,
                p.busiest_share * 100.0);
    std::snprintf(key, sizeof(key), "volumes_%u_ops_per_vsec", p.volumes);
    report.AddMetric(key, p.ops_per_vsec, Direction::kHigherIsBetter,
                     "ops/vsec");
    std::snprintf(key, sizeof(key), "volumes_%u_forces_per_update",
                  p.volumes);
    report.AddMetric(key, p.forces_per_update, Direction::kLowerIsBetter);
    std::snprintf(key, sizeof(key), "volumes_%u_busiest_share", p.volumes);
    report.AddInfo(key, p.busiest_share);
    std::snprintf(key, sizeof(key), "volumes_%u_cross_renames", p.volumes);
    report.AddInfo(key, static_cast<double>(p.cross_renames));
  }

  // Shape validation, Dagenais-style: adding volumes must never lose
  // throughput (small slack for hash-placement luck), and the 8-way fan-out
  // must deliver a real speedup over one volume.
  for (std::size_t i = 1; i < points.size(); ++i) {
    CEDAR_CHECK(points[i].ops_per_vsec >= points[i - 1].ops_per_vsec * 0.95);
  }
  const double speedup =
      points.back().ops_per_vsec / points.front().ops_per_vsec;
  std::printf("\n8-volume speedup over 1 volume: %.2fx\n", speedup);
  CEDAR_CHECK(speedup > 2.0);
  report.AddInfo("speedup_8v_over_1v", speedup);

  std::printf("\nSpindle sweep: %u files x %u KB bulk transfers\n\n",
              shape.bulk_files, shape.bulk_kb);
  std::printf("%14s %10s %12s  %s\n", "array", "spindles", "bulk vms",
              "per-spindle utilization");
  std::vector<SpindlePoint> spindle_points;
  const struct {
    std::uint32_t spindles;
    sim::ArrayMode mode;
    const char* label;
  } kArrays[] = {
      {1, sim::ArrayMode::kStriped, "striped_1s"},
      {2, sim::ArrayMode::kStriped, "striped_2s"},
      {4, sim::ArrayMode::kStriped, "striped_4s"},
      {2, sim::ArrayMode::kMirrored, "mirrored_2s"},
  };
  for (const auto& a : kArrays) {
    spindle_points.push_back(
        RunSpindleSweep(shape, a.spindles, a.mode, a.label));
    const SpindlePoint& p = spindle_points.back();
    std::string utils;
    for (std::size_t s = 0; s < p.utilization.size(); ++s) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s s%zu=%.2f", s == 0 ? "" : ",", s,
                    p.utilization[s]);
      utils += buf;
      std::snprintf(key, sizeof(key), "%s_util_s%zu", p.label.c_str(), s);
      report.AddInfo(key, p.utilization[s]);
    }
    std::printf("%14s %10u %12.1f %s\n", p.label.c_str(), p.spindles,
                p.bulk_us / 1000.0, utils.c_str());
    std::snprintf(key, sizeof(key), "%s_bulk_ms", p.label.c_str());
    report.AddMetric(key, p.bulk_us / 1000.0, Direction::kLowerIsBetter,
                     "vms");
  }

  // Striping must actually overlap member service on bulk transfers; the
  // mirror pays for redundancy but must not be catastrophically slower
  // than one plain spindle (reads round-robin, writes go to all members in
  // parallel on private clocks).
  CEDAR_CHECK(spindle_points[1].bulk_us < spindle_points[0].bulk_us);
  CEDAR_CHECK(spindle_points[2].bulk_us < spindle_points[1].bulk_us);
  const double stripe_speedup =
      static_cast<double>(spindle_points[0].bulk_us) /
      static_cast<double>(spindle_points[2].bulk_us);
  std::printf("\n4-spindle stripe speedup on bulk: %.2fx\n", stripe_speedup);
  report.AddInfo("stripe_speedup_4s", stripe_speedup);

  return report;
}

}  // namespace
}  // namespace cedar::bench

int main(int argc, char** argv) {
  using namespace cedar::bench;
  CheckFlags(argc, argv,
             {{"--smoke"}, {"--json", /*takes_value=*/true}});
  const bool smoke = SmokeMode(argc, argv);
  const char* json_path =
      StringFlag(argc, argv, "--json", "BENCH_scaleout.json");

  std::printf("Scale-out: volumes x spindles\n\n");
  const ScaleoutShape shape = smoke ? SmokeShape() : ScaleoutShape{};
  BenchReport report = RunScaleoutBench(shape, smoke);
  CEDAR_CHECK_OK(report.WriteFile(json_path));
  return 0;
}
