// BlockDevice: the sector-addressed device abstraction the file systems sit
// on. Two implementations exist: the single-spindle SimDisk (src/sim/disk.h)
// and the multi-spindle DiskArray (src/sim/array.h, striping/mirroring).
// FSD, the IoScheduler, and the crash harness program against this
// interface; CFS and the BSD baseline keep the concrete SimDisk because
// they depend on Trident-style labels, which arrays do not model.
//
// The device-generic value types (stats, crash plans, fault taxonomy,
// snapshots) live here so both implementations and their clients share one
// vocabulary. See src/sim/disk.h for the failure-model commentary.

#ifndef CEDAR_SIM_DEVICE_H_
#define CEDAR_SIM_DEVICE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/geometry.h"
#include "src/sim/label.h"
#include "src/util/status.h"

namespace cedar::obs {
class DiskTracer;
class MetricsRegistry;
}  // namespace cedar::obs

namespace cedar::sim {

// The request checks every device makes first: kDeviceCrashed while
// crashed, kOutOfRange unless [start, start + count) is a non-empty range
// of its `total` sectors. `device` names it in the crash error.
inline Status CheckRequest(bool crashed, const char* device, Lba start,
                           std::size_t count, std::uint64_t total) {
  if (crashed) {
    return MakeError(ErrorCode::kDeviceCrashed,
                     std::string(device) + " is crashed");
  }
  if (count == 0 || start + count > total) {
    return MakeError(ErrorCode::kOutOfRange,
                     "lba " + std::to_string(start) + "+" +
                         std::to_string(count) + " out of range");
  }
  return OkStatus();
}

// Cumulative device statistics. "I/O count" counts *requests*, matching the
// paper's Tables 3 and 4 ("Performance Measured in Disk I/O's"). For an
// array these are per-spindle requests summed over the members: a striped
// write that touches two members counts as two I/Os, which is what the
// hardware would do.
struct DiskStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t label_ops = 0;  // label-only requests (CFS verify/write label)
  std::uint64_t sectors_read = 0;
  std::uint64_t sectors_written = 0;
  std::uint64_t seek_us = 0;
  std::uint64_t rotational_us = 0;
  std::uint64_t transfer_us = 0;
  std::uint64_t busy_us = 0;

  std::uint64_t TotalIos() const { return reads + writes + label_ops; }
};

// How a planned crash tears the in-flight write. Write indices count the
// device's *spindle-level* write requests (for an array, each member write
// of a striped/mirrored request gets its own index, in issue order) — the
// same unit the tracer records and DiskStats counts, so the crash harness
// can enumerate cuts from a traced schedule on any device shape.
struct CrashPlan {
  std::uint64_t at_write_index = 0;  // crash during the Nth write from now
  std::uint32_t sectors_completed = 0;  // sectors fully transferred first
  std::uint32_t sectors_damaged = 0;    // 0, 1 or 2 sectors damaged at cut
  // Write indices (same numbering as at_write_index: 0-based, counted from
  // ArmCrash) that are ACKNOWLEDGED to the host but never reach the medium.
  // This models a device that reorders writes internally — a dropped write
  // was scheduled after the cut, so the power failure discards it even
  // though the host saw it complete. Every index must be < at_write_index.
  std::vector<std::uint64_t> drop_writes;

  friend bool operator==(const CrashPlan&, const CrashPlan&) = default;
};

// Persistent (grown) media defects — the sector stays broken across any
// number of requests, unlike the self-healing `damaged_` map a crash leaves
// behind. kReadFail models a grown read defect that the drive re-allocates
// on the next successful write (so a rewrite heals it); kWriteFail and
// kDead model defects the drive cannot hide — only a file-system-level
// remap to a spare sector avoids the LBA.
enum class FaultMode : std::uint8_t {
  kReadFail = 1,   // reads fail; a successful rewrite heals the sector
  kWriteFail = 2,  // writes fail loudly; reads still serve the old data
  kDead = 3,       // both fail forever; only remapping avoids the LBA
};

// One-shot lying writes: the request is acknowledged as successful but the
// medium keeps the old data (kDropped) or lands a garbled tail (kTorn,
// label intact — the damage is silent and only a later read can notice).
enum class WriteFaultKind : std::uint8_t {
  kDropped = 1,
  kTorn = 2,
};

// A seeded background fault schedule: every write request draws from an RNG
// keyed by (seed, request sequence number) and with the given
// parts-per-million probabilities grows a persistent defect in the written
// range, turns the request itself into a dropped/torn lying write, or
// silently corrupts a pseudo-random sector anywhere on the medium (bit
// rot). Deterministic for a fixed seed and request sequence; the snapshot
// carries only the schedule and its counters, so clones replay identically.
struct FaultSchedule {
  std::uint64_t seed = 0;
  std::uint32_t persistent_ppm = 0;   // grow a defect in the written range
  std::uint32_t write_fault_ppm = 0;  // ack this write but drop/tear it
  std::uint32_t corrupt_ppm = 0;      // flip bits in a random sector
  std::uint32_t max_events = 0;       // total event cap; 0 = unlimited

  bool Active() const {
    return persistent_ppm != 0 || write_fault_ppm != 0 || corrupt_ppm != 0;
  }
  bool operator==(const FaultSchedule&) const = default;
};

// Complete single-spindle state for in-memory cloning: media contents,
// labels, the damage map, and armed-crash/fault-injection state. The crash
// harness snapshots a device once and restores it before every enumerated
// crash variant, so replays are bit-identical without touching the host FS.
struct DiskSnapshot {
  std::vector<std::uint8_t> data;
  std::vector<Label> labels;
  std::vector<bool> damaged;
  bool crashed = false;
  std::optional<CrashPlan> crash_plan;
  std::uint64_t crash_writes_seen = 0;
  std::map<Lba, std::uint32_t> transient_read_faults;
  std::map<Lba, FaultMode> persistent_faults;
  std::map<Lba, WriteFaultKind> pending_write_faults;
  FaultSchedule fault_schedule;
  std::uint64_t fault_events = 0;
  std::uint64_t write_seq = 0;
  // The spindle's timeline: its clock (the rig clock for a lone disk, the
  // private spindle clock for an array member) and its head's cylinder.
  // Neither is medium state: Restore and StateEquals ignore them and
  // images do not carry them. RestoreTimeline puts both back, so a replay
  // from the snapshot sees the service times and timestamps of the run it
  // replays.
  Micros clock_us = 0;
  std::uint32_t head_cylinder = 0;
};

// Complete device state: one DiskSnapshot per spindle plus the array-level
// crash/counters (empty extras for a single SimDisk). Restore requires a
// snapshot taken from an identically-shaped device.
struct DeviceSnapshot {
  std::vector<DiskSnapshot> disks;
  bool crashed = false;
  std::optional<CrashPlan> crash_plan;
  std::uint64_t crash_writes_seen = 0;
  std::uint64_t read_rr = 0;  // mirrored-read round-robin cursor
  Micros clock_us = 0;        // the array's logical (rig) clock
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  // Logical geometry: what the file system formats against. An array
  // presents its aggregate capacity (striped) or one replica's (mirrored).
  virtual const DiskGeometry& geometry() const = 0;
  // The rig's logical clock. Array members keep private spindle clocks;
  // this one advances by the *parallel* (max-member) service time.
  virtual VirtualClock& clock() = 0;
  virtual DiskStats stats() const = 0;
  virtual void ResetStats() = 0;

  // ---- Observability.
  virtual void set_tracer(obs::DiskTracer* tracer) = 0;
  virtual obs::DiskTracer* tracer() const = 0;
  virtual void AttachMetrics(obs::MetricsRegistry* registry) = 0;

  // ---- Data transfer. See SimDisk::Read for the `bad` harvest contract.
  virtual Status Read(Lba start, std::span<std::uint8_t> out,
                      std::vector<std::uint32_t>* bad = nullptr) = 0;
  virtual Status Write(Lba start, std::span<const std::uint8_t> data) = 0;

  // ---- Fault injection and crash control (see the struct docs above).
  virtual void DamageSectors(Lba start, std::uint32_t count) = 0;
  virtual bool IsDamaged(Lba lba) const = 0;
  virtual void ArmCrash(const CrashPlan& plan) = 0;
  virtual void CrashNow() = 0;
  virtual bool crashed() const = 0;
  virtual void Reopen() = 0;

  // ---- Batch identity (set by IoScheduler around a Flush).
  virtual void BeginBatch() = 0;
  virtual void EndBatch() = 0;

  // Cylinder the (first) head currently sits on — the elevator's C-SCAN
  // starting position. A hint: arrays report member 0.
  virtual std::uint32_t HeadCylinder() const = 0;

  // ---- Spindle topology: member count and per-member stats (index 0 for
  // a single disk). Utilization per spindle = busy_us / elapsed rig time.
  virtual std::uint32_t spindle_count() const = 0;
  virtual DiskStats SpindleStats(std::uint32_t spindle) const = 0;

  // ---- Whole-device cloning and persistence.
  virtual DeviceSnapshot SnapshotDevice() const = 0;
  virtual void RestoreDevice(const DeviceSnapshot& snapshot) = 0;
  virtual bool DeviceStateEquals(const DeviceSnapshot& snapshot) const = 0;
  // Single disk: one image at `path`. Array: one image per member, at
  // `path` plus ".s<i>" suffixes for members 1+.
  virtual Status SaveImage(const std::string& path) const = 0;
};

}  // namespace cedar::sim

#endif  // CEDAR_SIM_DEVICE_H_
