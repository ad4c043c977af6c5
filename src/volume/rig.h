// ScaleoutRig: builds the N-volume x M-spindle topology the scale-out
// bench, tests, and crash harness all drive — per volume one private
// VirtualClock, one device (a SimDisk or a striped/mirrored DiskArray), and
// one formatted, mounted core::Fsd — wrapped in a VolumeRouter.
//
// Volumes are independent machines: each clock advances only with its own
// volume's work, so aggregate throughput over a fan-out workload is
// total ops / max per-volume elapsed time (the slowest volume bounds the
// wall clock, exactly like real shards).

#ifndef CEDAR_VOLUME_RIG_H_
#define CEDAR_VOLUME_RIG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/fsd.h"
#include "src/sim/array.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/check.h"
#include "src/volume/router.h"

namespace cedar::vol {

struct RigConfig {
  std::uint32_t volumes = 1;
  // 1 spindle = plain SimDisk; >1 = DiskArray in `mode` with this many
  // members (each member gets the full geometry below).
  std::uint32_t spindles = 1;
  sim::ArrayMode mode = sim::ArrayMode::kStriped;
  std::uint32_t chunk_sectors = 8;
  sim::DiskGeometry geometry;  // per member
  sim::DiskTimingParams timing;
  core::FsdConfig fsd;
};

class ScaleoutRig {
 public:
  explicit ScaleoutRig(const RigConfig& config) : config_(config) {
    CEDAR_CHECK(config.volumes >= 1 &&
                config.volumes <= VolumeRouter::kMaxVolumes);
    std::vector<fs::FileSystem*> mounted;
    for (std::uint32_t v = 0; v < config.volumes; ++v) {
      auto& volume = volumes_.emplace_back(std::make_unique<Volume>());
      if (config.spindles == 1) {
        volume->disk = std::make_unique<sim::SimDisk>(
            config.geometry, config.timing, &volume->clock);
      } else {
        sim::ArrayConfig array;
        array.mode = config.mode;
        array.spindles = config.spindles;
        array.chunk_sectors = config.chunk_sectors;
        array.member_geometry = config.geometry;
        array.timing = config.timing;
        volume->disk =
            std::make_unique<sim::DiskArray>(array, &volume->clock);
      }
      volume->fsd =
          std::make_unique<core::Fsd>(volume->disk.get(), config.fsd);
      CEDAR_CHECK_OK(volume->fsd->Format());
      mounted.push_back(volume->fsd.get());
    }
    router_.emplace(std::move(mounted));
  }

  VolumeRouter& router() { return *router_; }
  std::uint32_t volume_count() const { return config_.volumes; }
  core::Fsd& fsd(std::uint32_t v) { return *volumes_[v]->fsd; }
  sim::BlockDevice& device(std::uint32_t v) { return *volumes_[v]->disk; }
  sim::VirtualClock& clock(std::uint32_t v) { return volumes_[v]->clock; }

  // Longest per-volume elapsed time — the scale-out wall clock.
  sim::Micros MaxElapsed() const {
    sim::Micros latest = 0;
    for (const auto& volume : volumes_) {
      latest = std::max(latest, volume->clock.now());
    }
    return latest;
  }

 private:
  struct Volume {
    sim::VirtualClock clock;
    std::unique_ptr<sim::BlockDevice> disk;
    std::unique_ptr<core::Fsd> fsd;
  };

  RigConfig config_;
  std::vector<std::unique_ptr<Volume>> volumes_;
  std::optional<VolumeRouter> router_;
};

}  // namespace cedar::vol

#endif  // CEDAR_VOLUME_RIG_H_
