// SimDisk: a sector-addressed simulated disk with Trident-style labels,
// request timing, I/O accounting, and fault injection matching the paper's
// failure model (section 5.3): a single event damages one or two consecutive
// sectors, and a multi-sector write that is interrupted completes a prefix
// ("weak atomic" writes — the last one or two transferred sectors may be
// detectably damaged, everything after the cut is untouched).
//
// Beyond the paper's fail-loud model the disk can also lie, the way real
// media do: persistent grown defects (reads and/or writes fail until the
// sector is rewritten or remapped), one-shot lying writes (acked but
// dropped or torn, discovered only on a later read), and silent corruption
// (bit rot: data altered, label intact, no error) — injectable per-LBA or
// via a seeded random schedule, and preserved across Snapshot/SaveImage.
// See DESIGN.md section 4h for the fault taxonomy and how FSD heals.
//
// Thread safety: one internal mutex serializes every device request (and the
// fault-injection / snapshot entry points), modeling a single-spindle device
// with one head assembly — requests from concurrent client threads are
// services one at a time, in arrival order, which keeps the virtual-time
// accounting deterministic for a fixed arrival order. The disk mutex sits
// below the FS core locks and above the clock/tracer/metrics leaves in the
// locking hierarchy (DESIGN.md section 4e).

#ifndef CEDAR_SIM_DISK_H_
#define CEDAR_SIM_DISK_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/device.h"
#include "src/sim/geometry.h"
#include "src/sim/label.h"
#include "src/sim/timing.h"
#include "src/util/status.h"

namespace cedar::sim {

// DiskStats, CrashPlan, FaultMode, WriteFaultKind, FaultSchedule, and
// DiskSnapshot are shared with DiskArray and live in src/sim/device.h.

class SimDisk : public BlockDevice {
 public:
  SimDisk(const DiskGeometry& geometry, const DiskTimingParams& timing,
          VirtualClock* clock);

  const DiskGeometry& geometry() const override { return geometry_; }
  // Copy of the cumulative stats taken under the device lock. Callers that
  // compare before/after counts must quiesce their own I/O sources around
  // the two reads; the copy itself is always internally consistent.
  DiskStats stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  // Timing-model access is mutation-free during operation; tests that tweak
  // parameters do so before issuing concurrent I/O.
  DiskTimingModel& timing() { return timing_; }
  VirtualClock& clock() override { return *clock_; }
  void ResetStats() override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = DiskStats{};
  }
  std::uint32_t HeadCylinder() const override {
    // Locked: a checkpoint's elevator sweep asks while client reads move
    // the head.
    std::lock_guard<std::mutex> lock(mu_);
    return timing_.current_cylinder();
  }

  // ---- Spindle identity. A standalone disk is spindle 0; DiskArray tags
  // each member at construction so shared tracers attribute per spindle.
  void set_spindle(std::uint32_t spindle) { spindle_ = spindle; }
  std::uint32_t spindle_count() const override { return 1; }
  DiskStats SpindleStats(std::uint32_t spindle) const override {
    return spindle == 0 ? stats() : DiskStats{};
  }

  // ---- Observability.

  // Attaches a tracer that records every serviced request (with its
  // service-time breakdown and the innermost FS op context). Pass nullptr
  // to detach. The tracer must outlive the disk or be detached first.
  void set_tracer(obs::DiskTracer* tracer) override {
    std::lock_guard<std::mutex> lock(mu_);
    tracer_ = tracer;
  }
  obs::DiskTracer* tracer() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return tracer_;
  }

  // Registers the device counters/histograms ("disk.*") into `registry` and
  // updates them on every request. Each file system attaches its own
  // registry at construction; the most recent attach wins (relevant only
  // when several file systems share one disk, e.g. crash-comparison tests).
  void AttachMetrics(obs::MetricsRegistry* registry) override;

  // ---- Plain (unlabeled) data transfer; used by FSD and the BSD baseline.

  // Reads count = out.size()/kSectorSize sectors. If `bad` is null, the read
  // fails on the first damaged sector. If non-null, damaged sectors are
  // zero-filled, their indices (relative to `start`) recorded in `bad`, and
  // the call succeeds — this is how recovery code inspects a suspect region.
  Status Read(Lba start, std::span<std::uint8_t> out,
              std::vector<std::uint32_t>* bad = nullptr) override;
  Status Write(Lba start, std::span<const std::uint8_t> data) override;

  // ---- Label-checked transfer; used by CFS (checks run in "microcode",
  // i.e. before the data moves, at no extra I/O cost).

  // Verifies that the stored label of each sector equals `expected[i]`
  // before transferring data. A mismatch aborts with kLabelMismatch.
  Status ReadLabeled(Lba start, std::span<std::uint8_t> out,
                     std::span<const Label> expected);
  Status WriteLabeled(Lba start, std::span<const std::uint8_t> data,
                      std::span<const Label> expected,
                      std::span<const Label> new_labels);

  // Label-only requests (one disk I/O each): read labels to check pages are
  // free, or write labels to claim/free pages.
  Status ReadLabels(Lba start, std::span<Label> out);
  Status WriteLabels(Lba start, std::span<const Label> labels,
                     std::span<const Label> expected = {});

  // Reads the stored label of one sector without a device request (used by
  // tests and by the scavenger's accounting which issues explicit reads).
  Label PeekLabel(Lba lba) const {
    std::lock_guard<std::mutex> lock(mu_);
    return labels_[lba];
  }

  // ---- Fault injection.

  // Marks `count` (1 or 2) consecutive sectors as damaged; reads fail until
  // the sector is rewritten.
  void DamageSectors(Lba start, std::uint32_t count) override;

  // Destroys a whole track (the paper's "more stringent requirement"
  // example). Outside the 1-2 sector failure model; used to probe which
  // structures survive anyway thanks to cross-cylinder replication.
  void DamageTrack(std::uint32_t cylinder, std::uint32_t head);

  // Injects a soft (transient) read error: the next `failures` read requests
  // whose range covers `lba` fail with kReadTransient without transferring
  // data, then the sector reads normally again. Models recoverable media
  // glitches (marginal head position, vibration) as opposed to the hard
  // damage of DamageSectors. Each failing request consumes one count and
  // still occupies the device for a full rotation's worth of retry time.
  void InjectTransientReadError(Lba lba, std::uint32_t failures);

  // Overwrites a sector's data bytes in place without updating the label —
  // models a wild write / memory smash reaching the device on label-free
  // hardware. (On labeled hardware the microcode label check would have
  // refused it; callers model that by using WriteLabeled.)
  void WildWrite(Lba lba, std::uint64_t seed);

  // Marks one sector as a persistent (grown) defect; see FaultMode for how
  // each mode fails and heals. Overwrites any previous mode for the LBA.
  void InjectPersistentFault(Lba lba, FaultMode mode);
  // Removes a persistent defect (test/ops hook — the file system never
  // clears faults, it heals kReadFail by rewriting or remaps around them).
  void ClearPersistentFault(Lba lba);
  // The persistent fault currently recorded for `lba`, if any.
  std::optional<FaultMode> PersistentFault(Lba lba) const;

  // Arms a one-shot lying write on `lba`: the next write request covering
  // it is acknowledged as successful but dropped or torn (see
  // WriteFaultKind), then the sector writes normally again.
  void InjectWriteFault(Lba lba, WriteFaultKind kind);

  // Silent corruption (bit rot): flips a seeded handful of bits in the
  // sector's data in place. The label survives and no error is ever
  // returned — only a content check above the device can notice.
  void CorruptSector(Lba lba, std::uint64_t seed);

  // Installs (or, with a default-constructed schedule, clears) the seeded
  // background fault schedule applied to subsequent write requests.
  void SetFaultSchedule(const FaultSchedule& schedule);
  FaultSchedule fault_schedule() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fault_schedule_;
  }
  // Scheduled fault events fired so far (counts toward max_events).
  std::uint64_t fault_events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fault_events_;
  }

  // Arms a crash: the `index`-th write request from now is torn per `plan`,
  // and every request after it fails with kDeviceCrashed until Reopen().
  void ArmCrash(const CrashPlan& plan) override;
  // Crash immediately (between requests).
  void CrashNow() override {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_ = true;
  }
  bool crashed() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return crashed_;
  }
  // Clears the crashed flag; the on-disk image survives as-is. Volatile file
  // system state must be rebuilt by the caller (that is the experiment).
  void Reopen() override {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_ = false;
    crash_plan_.reset();
    crash_writes_seen_ = 0;
  }

  bool IsDamaged(Lba lba) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return damaged_[lba];
  }

  // ---- Batch identity (set by IoScheduler around a Flush). Requests issued
  // while a batch is open are tagged with its id in the trace; the id is
  // unique per disk and 0 means "outside any batch". The flush itself runs
  // under an FS core lock, so no two batches are ever open concurrently.
  void BeginBatch() override {
    std::lock_guard<std::mutex> lock(mu_);
    current_batch_ = ++batch_counter_;
  }
  void EndBatch() override {
    std::lock_guard<std::mutex> lock(mu_);
    current_batch_ = 0;
  }
  std::uint32_t current_batch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_batch_;
  }

  // ---- In-memory cloning. Snapshot/Restore carry the complete device
  // state including the damage map and any armed crash plan, so a restored
  // disk replays the exact same crash deterministically. Restore requires
  // matching geometry. StateEquals is the round-trip assertion used by the
  // harness and tests. The snapshot also records the clock and head
  // position; RestoreTimeline puts those back (Restore leaves them alone,
  // so a restore onto a fresh rig keeps that rig's time).
  DiskSnapshot Snapshot() const;
  void Restore(const DiskSnapshot& snapshot);
  void RestoreTimeline(const DiskSnapshot& snapshot);
  bool StateEquals(const DiskSnapshot& snapshot) const;

  // BlockDevice cloning: a single-spindle device snapshot wraps the one
  // DiskSnapshot (the array-level extras stay default).
  DeviceSnapshot SnapshotDevice() const override {
    DeviceSnapshot snapshot;
    snapshot.disks.push_back(Snapshot());
    return snapshot;
  }
  void RestoreDevice(const DeviceSnapshot& snapshot) override {
    CEDAR_CHECK(snapshot.disks.size() == 1);
    Restore(snapshot.disks[0]);
  }
  bool DeviceStateEquals(const DeviceSnapshot& snapshot) const override {
    return snapshot.disks.size() == 1 && StateEquals(snapshot.disks[0]);
  }

  // ---- Image persistence: the medium state of a snapshot (data, labels,
  // damage map, and crash/fault-injection state) as a host file, so
  // volumes — including crashed ones dumped by the harness — survive
  // across tool invocations. Format "CEDIMG03" (little-endian): magic, u32
  // cylinders/heads/sectors per track, the sector data, per sector a label
  // (u64 uid, u32 page, u8 type), per sector a u8 damage flag, u8 crashed,
  // u8 has-plan [u64 at_write_index, u32 sectors completed, u32 damaged,
  // u32 count + u64 drop indices], u64 crash writes seen, the transient,
  // persistent and pending-write fault maps (u32 count, then u32 lba + u32
  // failures / u8 mode / u8 kind in ascending LBA order), the fault
  // schedule (u64 seed, four u32), u64 fault events, u64 write sequence.
  // DecodeImage accepts exactly what EncodeImage writes for a valid disk:
  // another magic or anything malformed is kCorruptMetadata, another
  // geometry kInvalidArgument.
  static std::vector<std::uint8_t> EncodeImage(const DiskGeometry& geometry,
                                               const DiskSnapshot& snapshot);
  static Result<DiskSnapshot> DecodeImage(std::span<const std::uint8_t> bytes,
                                          const DiskGeometry& geometry);
  Status SaveImage(const std::string& path) const override;
  // Loads an image saved with SaveImage; the geometry must match. The disk
  // changes only once the header and tail have decoded. SaveImage and
  // LoadImage move the sector data between the file and the medium with no
  // copy in between.
  Status LoadImage(const std::string& path);

 private:
  // What an armed crash plan decided about one write request.
  enum class WriteOutcome {
    kProceed,  // write goes through normally
    kDropped,  // acked to the host, never persisted (reordered past the cut)
    kCrashed,  // torn per the plan; device is now crashed
  };

  // All private helpers run with mu_ held by the public entry point.
  Status CheckRange(Lba start, std::size_t count) const;
  // Lands the first `n` sectors of a write (data, and labels when given);
  // each reads again, and with `heal` a grown read defect is cleared too,
  // as a completed rewrite does.
  void Land(Lba start, std::span<const std::uint8_t> data,
            std::span<const Label> new_labels, std::uint32_t n, bool heal);
  Status CheckLabels(Lba start, std::span<const Label> expected);
  void AccountRequest(Lba start, std::uint32_t count, bool is_write,
                      bool label_only);
  // Consults the armed crash plan (without mutating it) for this write
  // request; on kCrashed the torn prefix has been applied.
  WriteOutcome MaybeCrashOnWrite(Lba start,
                                 std::span<const std::uint8_t> data,
                                 std::span<const Label> new_labels);
  // Consumes one transient-read fault covering [start, start+count) if any;
  // returns true if the request should fail with kReadTransient.
  bool ConsumeTransientReadFault(Lba start, std::uint32_t count);

  // What the fault schedule decided for one write request.
  struct ScheduledFaults {
    std::optional<std::pair<Lba, FaultMode>> grown;
    std::optional<WriteFaultKind> self;  // this request is dropped/torn
    std::optional<std::pair<Lba, std::uint64_t>> corrupt;  // lba, bit seed
  };
  // Draws the schedule's decisions for write request `seq` over
  // [start, start+count); bumps fault_events_ per fired event.
  ScheduledFaults DrawScheduledFaults(Lba start, std::uint32_t count,
                                      std::uint64_t seq);
  // True when reads of `lba` must fail (crash damage or a persistent
  // read-blocking defect).
  bool ReadBlocked(Lba lba) const;
  // Common body of Write/WriteLabeled after the label check: crash plan,
  // fault schedule, persistent write faults, pending lying writes, copy.
  Status WriteImpl(Lba start, std::span<const std::uint8_t> data,
                   std::span<const Label> new_labels);
  void CorruptLocked(Lba lba, std::uint64_t seed);
  // Every field of a snapshot but the sector data, and the way back:
  // every field but data_ taken from `state` (a DiskSnapshot, copied from
  // when an lvalue, moved from when an rvalue).
  DiskSnapshot StateLocked() const;
  template <typename State>
  void AdoptStateLocked(State&& state);

  // Serializes every request and all fault-injection/snapshot entry points.
  mutable std::mutex mu_;

  DiskGeometry geometry_;
  DiskTimingModel timing_;
  VirtualClock* clock_;
  DiskStats stats_;

  obs::DiskTracer* tracer_ = nullptr;
  // Registry-backed mirrors of DiskStats, null until AttachMetrics.
  struct DeviceMetrics {
    obs::Counter* reads = nullptr;
    obs::Counter* writes = nullptr;
    obs::Counter* label_ops = nullptr;
    obs::Counter* sectors_read = nullptr;
    obs::Counter* sectors_written = nullptr;
    obs::Counter* seek_us = nullptr;
    obs::Counter* rotational_us = nullptr;
    obs::Counter* transfer_us = nullptr;
    obs::Counter* busy_us = nullptr;
    obs::Histogram* service_us = nullptr;
    obs::Histogram* seek_distance_us = nullptr;
  } metrics_;

  std::vector<std::uint8_t> data_;
  std::vector<Label> labels_;
  std::vector<bool> damaged_;

  bool crashed_ = false;
  std::optional<CrashPlan> crash_plan_;
  // Write requests observed since the plan was armed (the plan itself is
  // immutable once armed, so snapshots restore an identical countdown).
  std::uint64_t crash_writes_seen_ = 0;

  // lba -> remaining transient-read failures.
  std::map<Lba, std::uint32_t> transient_read_faults_;

  // lba -> persistent grown defect (see FaultMode for heal semantics).
  std::map<Lba, FaultMode> persistent_faults_;
  // lba -> armed one-shot lying write, consumed by the next covering write.
  std::map<Lba, WriteFaultKind> pending_write_faults_;
  FaultSchedule fault_schedule_;
  std::uint64_t fault_events_ = 0;  // scheduled events fired so far
  // Monotonic write-request sequence number (always ticks, so arming a
  // schedule mid-run stays deterministic for a fixed request history).
  std::uint64_t write_seq_ = 0;

  std::uint32_t batch_counter_ = 0;  // last batch id handed out
  std::uint32_t current_batch_ = 0;  // open batch, 0 = none
  // Set once at rig construction, before I/O; read on the request path.
  std::uint32_t spindle_ = 0;
};

}  // namespace cedar::sim

#endif  // CEDAR_SIM_DISK_H_
