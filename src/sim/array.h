// DiskArray: a multi-spindle BlockDevice built from independent SimDisk
// members — striping (RAID-0 chunk interleave) or mirroring (RAID-1).
//
// Each member is a full SimDisk with its own DiskTimingModel, fault state,
// and *private* VirtualClock: member spindles seek and rotate independently,
// which is where the parallel speedup comes from. The array holds the rig's
// logical clock. Servicing a request: every involved member's private clock
// first catches up to logical now (the spindle idled since its last
// request), the member services its slice advancing its own clock, and the
// logical clock then advances to the LATEST member completion — members
// work concurrently, the host waits for the slowest. Dagenais' Linux RAID
// measurements give the shapes this model is validated against
// (bench_scaleout): striped large transfers approach N-fold bandwidth,
// mirrored reads balance across replicas, mirrored writes pay the
// slowest-replica penalty.
//
// Crash/fault semantics: write indices (CrashPlan) count MEMBER write
// requests in issue order — the same unit the shared tracer records — so a
// crash cut can land between the chunks of one striped logical write (a
// torn stripe) or between the replica writes of one mirrored logical write
// (diverged replicas). Mirrored reads fall back to the next replica when
// one fails (one-replica-dead reads) without charging the failed replica's
// service time twice to the logical clock.
//
// Thread safety: one array mutex serializes requests end to end (the
// member issue order is part of the deterministic schedule); fault and
// snapshot entry points take the same mutex.

#ifndef CEDAR_SIM_ARRAY_H_
#define CEDAR_SIM_ARRAY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/device.h"
#include "src/sim/disk.h"
#include "src/sim/geometry.h"
#include "src/sim/timing.h"
#include "src/util/status.h"

namespace cedar::sim {

enum class ArrayMode : std::uint8_t {
  kStriped = 0,   // chunked round-robin interleave; capacity = N x member
  kMirrored = 1,  // every member holds a replica; capacity = 1 member
};

struct ArrayConfig {
  ArrayMode mode = ArrayMode::kStriped;
  std::uint32_t spindles = 2;
  // Striping interleave unit, in sectors. Consecutive chunk-sized runs of
  // logical LBAs rotate across members. Ignored for mirroring.
  std::uint32_t chunk_sectors = 8;
  DiskGeometry member_geometry;  // every member is identical
  DiskTimingParams timing;
};

// Where one logical sector lives. Pure arithmetic, exposed standalone so the
// overflow-boundary tests can probe logical LBAs beyond 2^32 without
// instantiating multi-terabyte members.
struct StripeTarget {
  std::uint32_t spindle = 0;
  Lba member_lba = 0;
};
StripeTarget StripeMap(const ArrayConfig& config, Lba logical);

class DiskArray : public BlockDevice {
 public:
  // `clock` is the rig's logical clock (shared with the file system, which
  // charges CPU time to it); members get private spindle clocks.
  DiskArray(const ArrayConfig& config, VirtualClock* clock);

  const ArrayConfig& config() const { return config_; }
  // Logical geometry: striped arrays present spindles x member cylinders
  // (same sectors-per-cylinder, so cylinder arithmetic still works);
  // mirrored arrays present one replica's geometry.
  const DiskGeometry& geometry() const override { return logical_geometry_; }
  VirtualClock& clock() override { return *clock_; }

  // Aggregate over members: request counts are per-spindle requests (a
  // striped write touching two members is two I/Os), busy time is summed
  // spindle-busy time (it can exceed elapsed logical time — that is the
  // parallelism).
  DiskStats stats() const override;
  void ResetStats() override;

  void set_tracer(obs::DiskTracer* tracer) override;
  obs::DiskTracer* tracer() const override;
  void AttachMetrics(obs::MetricsRegistry* registry) override;

  Status Read(Lba start, std::span<std::uint8_t> out,
              std::vector<std::uint32_t>* bad = nullptr) override;
  Status Write(Lba start, std::span<const std::uint8_t> data) override;

  // Logical damage: the backing member sector (striped) or every replica of
  // it (mirrored — single-replica faults are injected via member(i)).
  void DamageSectors(Lba start, std::uint32_t count) override;
  // True when no healthy copy of the logical sector remains.
  bool IsDamaged(Lba lba) const override;

  void ArmCrash(const CrashPlan& plan) override;
  void CrashNow() override;
  bool crashed() const override;
  void Reopen() override;

  void BeginBatch() override;
  void EndBatch() override;

  std::uint32_t HeadCylinder() const override;

  std::uint32_t spindle_count() const override {
    return static_cast<std::uint32_t>(members_.size());
  }
  DiskStats SpindleStats(std::uint32_t spindle) const override;
  // Direct member access for targeted fault injection (e.g. killing one
  // replica) and per-spindle clock inspection in tests and benches.
  SimDisk& member(std::uint32_t spindle) { return *members_[spindle]; }
  const VirtualClock& member_clock(std::uint32_t spindle) const {
    return *member_clocks_[spindle];
  }

  DeviceSnapshot SnapshotDevice() const override;
  void RestoreDevice(const DeviceSnapshot& snapshot) override;
  // Sets the rig clock and every member's clock and head back to their
  // values in `snapshot` (RestoreDevice leaves them where they are).
  void RestoreTimeline(const DeviceSnapshot& snapshot);
  bool DeviceStateEquals(const DeviceSnapshot& snapshot) const override;
  // Member 0 at `path`, members 1+ at `path`.s<i>.
  Status SaveImage(const std::string& path) const override;

 private:
  // One member's slice of a logical request.
  struct Segment {
    std::uint32_t spindle = 0;
    Lba member_lba = 0;
    std::uint32_t sectors = 0;
    std::size_t logical_offset = 0;  // sectors into the logical request
  };
  // Splits [start, start+count) into per-member runs, in logical order.
  std::vector<Segment> SplitStriped(Lba start, std::uint32_t count) const;

  // One coalesced member request: all of one member's chunks of a logical
  // request. For a contiguous logical range, member m's chunks c, c+N,
  // c+2N... map to consecutive member chunks, so the union is a single
  // contiguous member run — the array issues ONE request per member per
  // logical I/O (the controller streams each member), not one per chunk.
  // Per-chunk issue would restart the rotational position every
  // chunk_sectors and make a stripe SLOWER than one spindle on bulk
  // transfers. `segments` keeps the chunk-level scatter/gather map back
  // into the logical buffer.
  struct MemberRun {
    std::uint32_t spindle = 0;
    Lba member_lba = 0;       // run start on the member
    std::uint32_t sectors = 0;
    std::vector<Segment> segments;
  };
  // Groups SplitStriped's chunks into per-member runs, ordered by each
  // member's first chunk in logical order (determinism for crash plans).
  std::vector<MemberRun> GroupStriped(Lba start, std::uint32_t count) const;

  // Issues one member operation with spindle-parallel time accounting:
  // syncs the member clock up to `logical_start`, runs `io`, and folds the
  // member's completion time into *latest. Caller holds mu_.
  template <typename Io>
  Status IssueMember(std::uint32_t spindle, Micros logical_start,
                     Micros* latest, Io&& io);

  // Consults the armed crash plan for the next member write (caller holds
  // mu_). Returns kProceed/kDropped normally; on the planned index it tears
  // the member write itself (prefix + damage at the cut), crashes every
  // member, and returns kCrashed.
  enum class WriteOutcome { kProceed, kDropped, kCrashed };
  WriteOutcome MaybeCrashMemberWrite(std::uint32_t spindle, Lba member_lba,
                                     std::span<const std::uint8_t> data,
                                     Micros logical_start, Micros* latest);

  mutable std::mutex mu_;
  ArrayConfig config_;
  DiskGeometry logical_geometry_;
  VirtualClock* clock_;
  std::vector<std::unique_ptr<VirtualClock>> member_clocks_;
  std::vector<std::unique_ptr<SimDisk>> members_;

  bool crashed_ = false;
  std::optional<CrashPlan> crash_plan_;
  std::uint64_t crash_writes_seen_ = 0;  // member writes since ArmCrash
  std::uint64_t read_rr_ = 0;            // mirrored-read round-robin cursor
};

}  // namespace cedar::sim

#endif  // CEDAR_SIM_ARRAY_H_
