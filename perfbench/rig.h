// The benchmark's rig: per volume one private VirtualClock, one device (a
// SimDisk, or a striped DiskArray), one formatted core::Fsd, all behind a
// VolumeRouter — the ScaleoutRig topology, built here so the traced run can
// slip the TracedDevice and TracedVolume decorators between the layers.

#ifndef PERFBENCH_RIG_H_
#define PERFBENCH_RIG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/script.h"
#include "perfbench/spans.h"
#include "src/core/fsd.h"
#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/device.h"
#include "src/volume/router.h"

namespace perfbench {

// Fsck's summary plus its first violations, for failure messages.
std::string FsckFindings(const cedar::Result<core::FsckReport>& report);

class BenchRig {
 public:
  // `spans` == nullptr builds the untraced rig: the router gets the bare
  // Fsds and each Fsd its bare device, with no DiskTracer attached.
  BenchRig(const WorkloadSpec& spec, SpanRecorder* spans);
  ~BenchRig();
  BenchRig(const BenchRig&) = delete;
  BenchRig& operator=(const BenchRig&) = delete;

  cedar::Status Format();

  fs::FileSystem& fs() { return *router_; }
  cedar::vol::VolumeRouter& router() { return *router_; }
  std::uint32_t volume_count() const {
    return static_cast<std::uint32_t>(volumes_.size());
  }
  core::Fsd& fsd(std::uint32_t v) { return *volumes_[v]->fsd; }
  sim::BlockDevice& device(std::uint32_t v) { return *volumes_[v]->disk; }
  sim::VirtualClock& clock(std::uint32_t v) { return volumes_[v]->clock; }
  // nullptr in the untraced rig.
  cedar::obs::DiskTracer* tracer(std::uint32_t v) {
    return volumes_[v]->tracer.get();
  }

  // Sum of every volume's clock: a call's virtual latency is the sum of
  // the advances on every clock it moved (a cross-volume rename runs on
  // two), which is this sum's delta when one client runs.
  std::uint64_t VirtualNow() const;

  // core::Fsd entry points outside fs::FileSystem, routed like the router
  // routes names (through the TracedVolume in the traced rig).
  cedar::Result<fs::FileInfo> Stat(std::string_view name);
  cedar::Status Tick(std::uint32_t v);

  // Sum of a registry counter over every volume.
  std::uint64_t CounterSum(std::string_view name) const;

  // Recovers a crash image of the running rig without disturbing it: each
  // volume's device is copied as it stands (a power failure between two
  // requests) into a scratch device with its own clock, a fresh Fsd mounts
  // it, and Fsck checks it. `mount_us` gets each volume's Mount() virtual
  // time and `nt_pages` the name-table pages Fsck found, summed over the
  // volumes; returns the number of volumes that failed to mount or check.
  std::uint64_t RecoverCrashImage(std::vector<std::uint64_t>* mount_us,
                                  std::uint64_t* nt_pages,
                                  std::vector<std::string>* failures);

  // Crashes every volume at once (no shutdown), discards the FSDs, and
  // mounts fresh ones; `mount_us` gets each volume's Mount() virtual time.
  cedar::Status CrashAndRecover(std::vector<std::uint64_t>* mount_us);

 private:
  struct Volume {
    sim::VirtualClock clock;
    std::unique_ptr<sim::BlockDevice> disk;
    std::unique_ptr<cedar::obs::DiskTracer> tracer;
    std::unique_ptr<TracedDevice> traced_disk;
    std::unique_ptr<core::Fsd> fsd;
    std::unique_ptr<TracedVolume> traced_fs;
  };

  void MountRouter();
  void AttachFsd(std::uint32_t v);

  const WorkloadSpec& spec_;
  SpanRecorder* spans_;
  std::vector<std::unique_ptr<Volume>> volumes_;
  std::optional<cedar::vol::VolumeRouter> router_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RIG_H_
