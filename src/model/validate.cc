#include "src/model/validate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/cfs/cfs.h"
#include "src/core/fsd.h"
#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace cedar::model {
namespace {

struct Sample {
  double disk_us = 0;      // traced disk micros per operation
  double total_us = 0;     // virtual-clock elapsed per operation
  double requests = 0;     // traced disk requests per operation
};

std::vector<std::uint8_t> Payload(std::size_t n) {
  return std::vector<std::uint8_t>(n, 0x5A);
}

// One simulated Dorado with a tracer attached. Scramble reads between
// measured operations land in the tracer's "(none)" class, so diffing one
// class's aggregate around a loop isolates exactly that operation's
// requests — the head randomization never pollutes the measurement.
class Harness {
 public:
  Harness()
      : disk_(sim::DiskGeometry{}, sim::DiskTimingParams{}, &clock_),
        rng_(3) {
    disk_.set_tracer(&tracer_);
  }

  sim::SimDisk& disk() { return disk_; }

  Sample Measure(std::string_view op_class, int n,
                 const std::function<void(int)>& op) {
    const obs::OpClassAggregate before = tracer_.AggregateFor(op_class);
    double total = 0;
    for (int i = 0; i < n; ++i) {
      std::vector<std::uint8_t> sector(512);
      (void)disk_.Read(
          static_cast<sim::Lba>(rng_.Below(disk_.geometry().TotalSectors())),
          sector);
      const sim::Micros t0 = clock_.now();
      op(i);
      total += static_cast<double>(clock_.now() - t0);
    }
    const obs::OpClassAggregate delta = tracer_.AggregateFor(op_class) - before;
    Sample s;
    s.disk_us = static_cast<double>(delta.TotalUs()) / n;
    s.total_us = total / n;
    s.requests = static_cast<double>(delta.requests) / n;
    return s;
  }

 private:
  sim::VirtualClock clock_;
  sim::SimDisk disk_;
  obs::DiskTracer tracer_;
  Rng rng_;
};

struct AllSamples {
  Sample cfs_create, cfs_open, cfs_read, cfs_delete;
  Sample fsd_create, fsd_open, fsd_read, fsd_delete;
};

AllSamples MeasureAll(const ValidationConfig& config) {
  AllSamples m;
  const int n = config.ops_per_class;
  const std::size_t bytes = config.small_pages * 500;  // 2 pages -> 1000 B
  {
    Harness h;
    cfs::Cfs cfs(&h.disk(), cfs::CfsConfig{});
    CEDAR_CHECK_OK(cfs.Format());
    m.cfs_create = h.Measure("cfs.create", n, [&](int i) {
      CEDAR_CHECK_OK(
          cfs.CreateFile("m/c" + std::to_string(i), Payload(bytes)).status());
    });
    // Re-mount clears the open table so opens and deletes hit the disk.
    CEDAR_CHECK_OK(cfs.Shutdown());
    CEDAR_CHECK_OK(cfs.Mount());
    m.cfs_open = h.Measure("cfs.open", n, [&](int i) {
      CEDAR_CHECK_OK(cfs.Open("m/c" + std::to_string(i)).status());
    });
    auto handle = cfs.Open("m/c0");
    CEDAR_CHECK_OK(handle.status());
    m.cfs_read = h.Measure("cfs.read", n, [&](int) {
      std::vector<std::uint8_t> out(512);
      CEDAR_CHECK_OK(cfs.Read(*handle, 0, out));
    });
    CEDAR_CHECK_OK(cfs.Shutdown());
    CEDAR_CHECK_OK(cfs.Mount());
    m.cfs_delete = h.Measure("cfs.delete", n, [&](int i) {
      CEDAR_CHECK_OK(cfs.DeleteFile("m/c" + std::to_string(i)));
    });
  }
  {
    Harness h;
    core::FsdConfig fc;
    // The scripts model the synchronous path; disable the commit timer so
    // the asynchronous log share isn't charged to individual operations.
    fc.commit.interval = 3600 * sim::kSecond;
    core::Fsd fsd(&h.disk(), fc);
    CEDAR_CHECK_OK(fsd.Format());
    // Warm the tree so creates measure the synchronous path only.
    CEDAR_CHECK_OK(fsd.CreateFile("m/warm", Payload(100)).status());
    m.fsd_create = h.Measure("fsd.create", n, [&](int i) {
      CEDAR_CHECK_OK(
          fsd.CreateFile("m/c" + std::to_string(i), Payload(bytes)).status());
    });
    CEDAR_CHECK_OK(fsd.Force());  // untimed
    m.fsd_open = h.Measure("fsd.open", n, [&](int i) {
      CEDAR_CHECK_OK(fsd.Open("m/c" + std::to_string(i)).status());
    });
    auto handle = fsd.Open("m/c0");
    CEDAR_CHECK_OK(handle.status());
    {
      std::vector<std::uint8_t> out(512);
      CEDAR_CHECK_OK(fsd.Read(*handle, 0, out));  // verify leader once
    }
    m.fsd_read = h.Measure("fsd.read", n, [&](int) {
      std::vector<std::uint8_t> out(512);
      CEDAR_CHECK_OK(fsd.Read(*handle, 0, out));
    });
    m.fsd_delete = h.Measure("fsd.delete", n, [&](int i) {
      CEDAR_CHECK_OK(fsd.DeleteFile("m/c" + std::to_string(i)));
    });
    CEDAR_CHECK_OK(fsd.Force());  // untimed
  }
  return m;
}

// Relative error on disk time. Classes with no disk I/O on either side
// (FSD open hit, FSD delete) compare equal; a prediction of I/O where none
// was measured (or vice versa) is charged against a 1 us floor so it can't
// hide behind a zero denominator.
double DiskError(double predicted, double measured) {
  if (predicted < 1.0 && measured < 1.0) return 0;
  return std::abs(predicted - measured) / std::max(measured, 1.0);
}

ValidationRow MakeRow(const DiskModel& model, std::string op_class,
                      const OpScript& script, const Sample& sample) {
  ValidationRow row;
  row.op_class = std::move(op_class);
  row.script_name = script.name;
  row.predicted_disk_us = static_cast<double>(model.EvaluateDisk(script));
  row.measured_disk_us = sample.disk_us;
  row.predicted_total_us = static_cast<double>(model.Evaluate(script));
  row.measured_total_us = sample.total_us;
  row.disk_error = DiskError(row.predicted_disk_us, row.measured_disk_us);
  row.total_error =
      DiskModel::RelativeError(row.predicted_total_us, row.measured_total_us);
  row.requests_per_op = sample.requests;
  return row;
}

}  // namespace

ValidationReport RunPaperValidation(const ValidationConfig& config) {
  const DiskModel model(sim::DiskGeometry{}, sim::DiskTimingParams{});
  const AllSamples m = MeasureAll(config);
  const CpuParams cpu;
  const std::uint32_t pages = config.small_pages;
  // MeasureAll's FSD runs on the default geometry and layout.
  const std::uint32_t fsd_data =
      FsdSmallFilePermille(sim::DiskGeometry{}, core::FsdConfig{});

  ValidationReport report;
  report.rows.push_back(
      MakeRow(model, "cfs.create", CfsCreate(pages, cpu), m.cfs_create));
  report.rows.push_back(MakeRow(model, "cfs.open", CfsOpen(cpu), m.cfs_open));
  report.rows.push_back(
      MakeRow(model, "cfs.read", CfsReadPage(cpu), m.cfs_read));
  report.rows.push_back(
      MakeRow(model, "cfs.delete", CfsDelete(pages, cpu), m.cfs_delete));
  report.rows.push_back(MakeRow(model, "fsd.create",
                                FsdCreate(pages, fsd_data, cpu), m.fsd_create));
  report.rows.push_back(
      MakeRow(model, "fsd.open", FsdOpenHit(cpu), m.fsd_open));
  report.rows.push_back(
      MakeRow(model, "fsd.read", FsdReadPage(fsd_data, cpu), m.fsd_read));
  report.rows.push_back(
      MakeRow(model, "fsd.delete", FsdDelete(cpu), m.fsd_delete));

  for (const ValidationRow& row : report.rows) {
    report.max_disk_error = std::max(report.max_disk_error, row.disk_error);
  }
  return report;
}

std::string FormatValidationTable(const ValidationReport& report) {
  std::string out;
  out +=
      "| operation | predicted disk µs | measured disk µs | disk error | "
      "predicted µs | measured µs | error | reqs/op |\n";
  out += "|---|---|---|---|---|---|---|---|\n";
  char line[256];
  for (const ValidationRow& row : report.rows) {
    std::snprintf(line, sizeof(line),
                  "| %s | %.0f | %.1f | %.1f%% | %.0f | %.1f | %.1f%% | %.2f "
                  "|\n",
                  row.op_class.c_str(), row.predicted_disk_us,
                  row.measured_disk_us, row.disk_error * 100,
                  row.predicted_total_us, row.measured_total_us,
                  row.total_error * 100, row.requests_per_op);
    out += line;
  }
  return out;
}

}  // namespace cedar::model
