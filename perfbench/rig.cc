#include "perfbench/rig.h"

#include "src/sim/array.h"
#include "src/sim/disk.h"
#include "src/util/check.h"

namespace perfbench {
namespace {

std::unique_ptr<sim::BlockDevice> MakeDevice(const WorkloadSpec& spec,
                                             sim::VirtualClock* clock) {
  if (spec.spindles == 1) {
    return std::make_unique<sim::SimDisk>(spec.geometry,
                                          sim::DiskTimingParams{}, clock);
  }
  sim::ArrayConfig array;
  array.mode = sim::ArrayMode::kStriped;
  array.spindles = spec.spindles;
  array.chunk_sectors = spec.chunk_sectors;
  array.member_geometry = spec.geometry;
  return std::make_unique<sim::DiskArray>(array, clock);
}

}  // namespace

std::string FsckFindings(const cedar::Result<core::FsckReport>& report) {
  if (!report.ok()) {
    return report.status().ToString();
  }
  std::string out = report->Summary();
  int shown = 0;
  for (const core::FsckIssue& issue : report->issues) {
    if (issue.severity == core::FsckIssue::Severity::kViolation &&
        shown++ < 3) {
      out += "; " + issue.code + ": " + issue.detail;
    }
  }
  return out;
}

BenchRig::BenchRig(const WorkloadSpec& spec, SpanRecorder* spans)
    : spec_(spec), spans_(spans) {
  CEDAR_CHECK(spec.volumes >= 1 &&
              spec.volumes <= cedar::vol::VolumeRouter::kMaxVolumes);
  for (std::uint32_t v = 0; v < spec.volumes; ++v) {
    auto& volume = volumes_.emplace_back(std::make_unique<Volume>());
    volume->disk = MakeDevice(spec, &volume->clock);
    if (spans_ != nullptr) {
      volume->tracer = std::make_unique<cedar::obs::DiskTracer>();
      volume->disk->set_tracer(volume->tracer.get());
      volume->traced_disk =
          std::make_unique<TracedDevice>(volume->disk.get(), spans_, v);
    }
    AttachFsd(v);
  }
}

BenchRig::~BenchRig() {
  // The router borrows the FSDs; the FSDs' daemons use the devices.
  router_.reset();
  for (auto& volume : volumes_) {
    volume->traced_fs.reset();
    volume->fsd.reset();
  }
}

void BenchRig::AttachFsd(std::uint32_t v) {
  Volume& volume = *volumes_[v];
  sim::BlockDevice* device = volume.traced_disk != nullptr
                                 ? volume.traced_disk.get()
                                 : volume.disk.get();
  volume.fsd = std::make_unique<core::Fsd>(device, spec_.fsd);
  if (spans_ != nullptr) {
    volume.traced_fs = std::make_unique<TracedVolume>(
        volume.fsd.get(), &volume.clock, spans_, v);
  }
}

void BenchRig::MountRouter() {
  std::vector<fs::FileSystem*> mounted;
  for (auto& volume : volumes_) {
    mounted.push_back(volume->traced_fs != nullptr
                          ? static_cast<fs::FileSystem*>(volume->traced_fs.get())
                          : volume->fsd.get());
  }
  router_.emplace(std::move(mounted));
}

cedar::Status BenchRig::Format() {
  for (auto& volume : volumes_) {
    CEDAR_RETURN_IF_ERROR(volume->fsd->Format());
  }
  MountRouter();
  return cedar::OkStatus();
}

std::uint64_t BenchRig::VirtualNow() const {
  std::uint64_t sum = 0;
  for (const auto& volume : volumes_) {
    sum += volume->clock.now();
  }
  return sum;
}

cedar::Result<fs::FileInfo> BenchRig::Stat(std::string_view name) {
  const auto v = static_cast<std::uint32_t>(
      cedar::vol::VolumeRouter::VolumeOf(name, volumes_.size()));
  Volume& volume = *volumes_[v];
  return volume.traced_fs != nullptr ? volume.traced_fs->Stat(name)
                                     : volume.fsd->Stat(name);
}

cedar::Status BenchRig::Tick(std::uint32_t v) {
  Volume& volume = *volumes_[v];
  return volume.traced_fs != nullptr ? volume.traced_fs->Tick()
                                     : volume.fsd->Tick();
}

std::uint64_t BenchRig::CounterSum(std::string_view name) const {
  std::uint64_t sum = 0;
  for (const auto& volume : volumes_) {
    if (const cedar::obs::Counter* counter =
            volume->fsd->Metrics().FindCounter(name)) {
      sum += counter->value();
    }
  }
  return sum;
}

std::uint64_t BenchRig::RecoverCrashImage(std::vector<std::uint64_t>* mount_us,
                                         std::uint64_t* nt_pages,
                                         std::vector<std::string>* failures) {
  std::uint64_t failed = 0;
  mount_us->assign(volumes_.size(), 0);
  *nt_pages = 0;
  for (std::uint32_t v = 0; v < volumes_.size(); ++v) {
    sim::VirtualClock clock;
    std::unique_ptr<sim::BlockDevice> scratch = MakeDevice(spec_, &clock);
    scratch->RestoreDevice(volumes_[v]->disk->SnapshotDevice());
    core::Fsd fsd(scratch.get(), spec_.fsd);
    cedar::Status mounted = fsd.Mount();
    (*mount_us)[v] = clock.now();
    cedar::Result<core::FsckReport> report =
        mounted.ok() ? fsd.Fsck() : cedar::Result<core::FsckReport>(mounted);
    if (!report.ok() || !report->Clean()) {
      ++failed;
      failures->push_back("crash image of volume " + std::to_string(v) +
                          ": " + FsckFindings(report));
    } else {
      *nt_pages += report->nt_pages_checked;
    }
  }
  return failed;
}

cedar::Status BenchRig::CrashAndRecover(std::vector<std::uint64_t>* mount_us) {
  router_.reset();
  for (auto& volume : volumes_) {
    volume->disk->CrashNow();
  }
  mount_us->assign(volumes_.size(), 0);
  for (std::uint32_t v = 0; v < volumes_.size(); ++v) {
    Volume& volume = *volumes_[v];
    volume.traced_fs.reset();
    volume.fsd.reset();  // joins the daemons of the crashed instance
    volume.disk->Reopen();
    AttachFsd(v);
    const std::uint64_t before = volume.clock.now();
    const std::uint32_t token =
        spans_ == nullptr
            ? SpanRecorder::kNotRecorded
            : spans_->Open(spans_->Intern("recovery.mount"), before, v);
    cedar::Status mounted = volume.fsd->Mount();
    (*mount_us)[v] = volume.clock.now() - before;
    if (spans_ != nullptr) {
      spans_->Close(token, volume.clock.now());
    }
    CEDAR_RETURN_IF_ERROR(mounted);
  }
  MountRouter();
  return cedar::OkStatus();
}

}  // namespace perfbench
