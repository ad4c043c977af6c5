// Rotational disk timing model.
//
// This is the simulator counterpart of the paper's section-6 analytical
// model: it tracks the head's cylinder and derives the rotational position
// from virtual time, so seeks, short seeks, rotational latencies, *lost
// revolutions* (read-then-rewrite of the same sector), and same-cylinder
// locality all emerge naturally from the arithmetic.

#ifndef CEDAR_SIM_TIMING_H_
#define CEDAR_SIM_TIMING_H_

#include <cstdint>

#include "src/sim/clock.h"
#include "src/sim/geometry.h"

namespace cedar::sim {

struct DiskTimingParams {
  // 3600 RPM drive: one revolution every 16.67 ms.
  Micros rotation_us = 16667;
  // Single-cylinder seek ("short seek" in the paper's scripts).
  Micros min_seek_us = 4000;
  // Full-stroke seek. Average seek for the default geometry lands near the
  // ~28 ms of late-70s Trident-class drives.
  Micros max_seek_us = 60000;
  // Fixed controller/command overhead per request.
  Micros controller_us = 300;
};

// Breakdown of the service time of one request, for stats and for validating
// the analytical model.
struct ServiceTime {
  Micros seek_us = 0;
  Micros rotational_us = 0;  // waiting for the first sector
  Micros transfer_us = 0;    // includes intra-request head/cylinder switches
  Micros controller_us = 0;

  Micros Total() const {
    return seek_us + rotational_us + transfer_us + controller_us;
  }
};

class DiskTimingModel {
 public:
  DiskTimingModel(const DiskGeometry& geometry, const DiskTimingParams& params)
      : geometry_(geometry), params_(params) {
    us_per_sector_ = params_.rotation_us / geometry_.sectors_per_track;
  }

  // Computes the service time of a `count`-sector request starting at `lba`,
  // given the request is issued at virtual time `start_us`, and updates the
  // head position. Does not advance any clock; the caller does.
  ServiceTime Access(Lba lba, std::uint32_t count, Micros start_us);

  // Seek time for a move of `distance` cylinders.
  Micros SeekTime(std::uint32_t distance) const;

  Micros rotation_us() const { return params_.rotation_us; }
  Micros sector_time_us() const { return us_per_sector_; }

  // Peak media bandwidth in bytes/second (full-track streaming).
  double PeakBandwidthBytesPerSec() const {
    return static_cast<double>(kSectorSize) * 1e6 /
           static_cast<double>(us_per_sector_);
  }

  std::uint32_t current_cylinder() const { return current_cylinder_; }
  // Puts the head back where a device snapshot found it.
  void set_current_cylinder(std::uint32_t cylinder) {
    current_cylinder_ = cylinder;
  }
  const DiskTimingParams& params() const { return params_; }

 private:
  // Rotational offset (in us within a revolution) at which `sector` of a
  // track passes under the head. All tracks are angularly aligned (no skew).
  Micros SectorAngleUs(std::uint32_t sector) const {
    return static_cast<Micros>(sector) * us_per_sector_;
  }

  DiskGeometry geometry_;
  DiskTimingParams params_;
  Micros us_per_sector_;
  std::uint32_t current_cylinder_ = 0;
};

}  // namespace cedar::sim

#endif  // CEDAR_SIM_TIMING_H_
