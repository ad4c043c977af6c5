#include "src/sim/disk.h"

#include <algorithm>
#include <string>

#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/random.h"
#include "src/util/serial.h"

namespace cedar::sim {

SimDisk::SimDisk(const DiskGeometry& geometry, const DiskTimingParams& timing,
                 VirtualClock* clock)
    : geometry_(geometry),
      timing_(geometry, timing),
      clock_(clock),
      data_(static_cast<std::size_t>(geometry.TotalSectors()) * kSectorSize),
      labels_(geometry.TotalSectors()),
      damaged_(geometry.TotalSectors(), false) {
  CEDAR_CHECK(clock != nullptr);
}

Status SimDisk::CheckRange(Lba start, std::size_t count) const {
  return CheckRequest(crashed_, "disk", start, count,
                      geometry_.TotalSectors());
}

void SimDisk::AttachMetrics(obs::MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (registry == nullptr) {
    metrics_ = DeviceMetrics{};
    return;
  }
  metrics_.reads = registry->GetCounter("disk.reads");
  metrics_.writes = registry->GetCounter("disk.writes");
  metrics_.label_ops = registry->GetCounter("disk.label_ops");
  metrics_.sectors_read = registry->GetCounter("disk.sectors_read");
  metrics_.sectors_written = registry->GetCounter("disk.sectors_written");
  metrics_.seek_us = registry->GetCounter("disk.seek_us");
  metrics_.rotational_us = registry->GetCounter("disk.rotational_us");
  metrics_.transfer_us = registry->GetCounter("disk.transfer_us");
  metrics_.busy_us = registry->GetCounter("disk.busy_us");
  metrics_.service_us = registry->GetHistogram("disk.service_us");
  metrics_.seek_distance_us = registry->GetHistogram("disk.seek_us");
}

void SimDisk::AccountRequest(Lba start, std::uint32_t count, bool is_write,
                             bool label_only) {
  const std::uint64_t issued_at = clock_->now();
  const ServiceTime service = timing_.Access(start, count, clock_->now());
  clock_->Advance(service.Total());
  stats_.seek_us += service.seek_us;
  stats_.rotational_us += service.rotational_us;
  stats_.transfer_us += service.transfer_us;
  stats_.busy_us += service.Total();
  if (label_only) {
    ++stats_.label_ops;
  } else if (is_write) {
    ++stats_.writes;
    stats_.sectors_written += count;
  } else {
    ++stats_.reads;
    stats_.sectors_read += count;
  }

  if (tracer_ != nullptr) {
    const obs::DiskOpKind kind =
        label_only ? (is_write ? obs::DiskOpKind::kLabelWrite
                               : obs::DiskOpKind::kLabelRead)
                   : (is_write ? obs::DiskOpKind::kWrite
                               : obs::DiskOpKind::kRead);
    tracer_->Record(start, count, kind, issued_at, service.seek_us,
                    service.rotational_us, service.transfer_us,
                    service.controller_us, current_batch_, spindle_);
  }
  if (metrics_.busy_us != nullptr) {
    if (label_only) {
      metrics_.label_ops->Increment();
    } else if (is_write) {
      metrics_.writes->Increment();
      metrics_.sectors_written->Add(count);
    } else {
      metrics_.reads->Increment();
      metrics_.sectors_read->Add(count);
    }
    metrics_.seek_us->Add(service.seek_us);
    metrics_.rotational_us->Add(service.rotational_us);
    metrics_.transfer_us->Add(service.transfer_us);
    metrics_.busy_us->Add(service.Total());
    metrics_.service_us->Record(service.Total());
    metrics_.seek_distance_us->Record(service.seek_us);
  }
}

Status SimDisk::CheckLabels(Lba start, std::span<const Label> expected) {
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!(labels_[start + i] == expected[i])) {
      return MakeError(ErrorCode::kLabelMismatch,
                       "label mismatch at lba " + std::to_string(start + i));
    }
  }
  return OkStatus();
}

bool SimDisk::ConsumeTransientReadFault(Lba start, std::uint32_t count) {
  auto it = transient_read_faults_.lower_bound(start);
  if (it == transient_read_faults_.end() || it->first >= start + count) {
    return false;
  }
  if (--it->second == 0) {
    transient_read_faults_.erase(it);
  }
  return true;
}

bool SimDisk::ReadBlocked(Lba lba) const {
  if (damaged_[lba]) {
    return true;
  }
  const auto it = persistent_faults_.find(lba);
  return it != persistent_faults_.end() &&
         (it->second == FaultMode::kReadFail ||
          it->second == FaultMode::kDead);
}

void SimDisk::CorruptLocked(Lba lba, std::uint64_t seed) {
  Rng rng(seed);
  std::uint8_t* sector =
      data_.data() + static_cast<std::size_t>(lba) * kSectorSize;
  // Bit rot flips a seeded handful of bits; the label stays intact and no
  // request ever errors, so only a content CRC above the device notices.
  const std::uint32_t flips = 1 + static_cast<std::uint32_t>(rng.Below(8));
  for (std::uint32_t i = 0; i < flips; ++i) {
    sector[rng.Below(kSectorSize)] ^=
        static_cast<std::uint8_t>(1u << rng.Below(8));
  }
}

SimDisk::ScheduledFaults SimDisk::DrawScheduledFaults(Lba start,
                                                      std::uint32_t count,
                                                      std::uint64_t seq) {
  ScheduledFaults sched;
  if (!fault_schedule_.Active()) {
    return sched;
  }
  auto budget = [&] {
    return fault_schedule_.max_events == 0 ||
           fault_events_ < fault_schedule_.max_events;
  };
  Rng rng(fault_schedule_.seed ^ (seq * 0x9E3779B97F4A7C15ull));
  if (budget() && fault_schedule_.persistent_ppm != 0 &&
      rng.Below(1000000) < fault_schedule_.persistent_ppm) {
    const Lba lba = start + static_cast<Lba>(rng.Below(count));
    const auto mode = static_cast<FaultMode>(1 + rng.Below(3));
    sched.grown = std::make_pair(lba, mode);
    ++fault_events_;
  }
  if (budget() && fault_schedule_.write_fault_ppm != 0 &&
      rng.Below(1000000) < fault_schedule_.write_fault_ppm) {
    sched.self = rng.Below(2) == 0 ? WriteFaultKind::kDropped
                                   : WriteFaultKind::kTorn;
    ++fault_events_;
  }
  if (budget() && fault_schedule_.corrupt_ppm != 0 &&
      rng.Below(1000000) < fault_schedule_.corrupt_ppm) {
    sched.corrupt = std::make_pair(
        static_cast<Lba>(rng.Below(geometry_.TotalSectors())), rng.Next());
    ++fault_events_;
  }
  return sched;
}

Status SimDisk::Read(Lba start, std::span<std::uint8_t> out,
                     std::vector<std::uint32_t>* bad) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(out.size() % kSectorSize == 0);
  const auto count = static_cast<std::uint32_t>(out.size() / kSectorSize);
  CEDAR_RETURN_IF_ERROR(CheckRange(start, count));
  AccountRequest(start, count, /*is_write=*/false, /*label_only=*/false);
  if (ConsumeTransientReadFault(start, count)) {
    return MakeError(ErrorCode::kReadTransient,
                     "transient read error near lba " + std::to_string(start));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const Lba lba = start + i;
    auto dst = out.subspan(static_cast<std::size_t>(i) * kSectorSize,
                           kSectorSize);
    if (ReadBlocked(lba)) {
      if (bad == nullptr) {
        return MakeError(ErrorCode::kSectorDamaged,
                         (damaged_[lba] ? "damaged sector at lba "
                                        : "persistent media fault at lba ") +
                             std::to_string(lba));
      }
      std::fill(dst.begin(), dst.end(), std::uint8_t{0});
      bad->push_back(i);
      continue;
    }
    const std::uint8_t* src =
        data_.data() + static_cast<std::size_t>(lba) * kSectorSize;
    std::copy(src, src + kSectorSize, dst.begin());
  }
  return OkStatus();
}

SimDisk::WriteOutcome SimDisk::MaybeCrashOnWrite(
    Lba start, std::span<const std::uint8_t> data,
    std::span<const Label> new_labels) {
  if (!crash_plan_.has_value()) {
    return WriteOutcome::kProceed;
  }
  const std::uint64_t index = crash_writes_seen_++;
  if (index != crash_plan_->at_write_index) {
    const auto& drops = crash_plan_->drop_writes;
    if (std::find(drops.begin(), drops.end(), index) != drops.end()) {
      return WriteOutcome::kDropped;
    }
    return WriteOutcome::kProceed;
  }
  // Tear the write: a prefix of sectors is transferred, then 0-2 sectors are
  // damaged at the cut, and nothing after the cut is touched.
  const auto count = static_cast<std::uint32_t>(data.size() / kSectorSize);
  const std::uint32_t done = std::min(crash_plan_->sectors_completed, count);
  Land(start, data, new_labels, done, /*heal=*/false);
  const std::uint32_t ndamaged =
      std::min(crash_plan_->sectors_damaged, count - done);
  for (std::uint32_t i = 0; i < ndamaged; ++i) {
    damaged_[start + done + i] = true;
  }
  crashed_ = true;
  crash_plan_.reset();
  return WriteOutcome::kCrashed;
}

void SimDisk::Land(Lba start, std::span<const std::uint8_t> data,
                   std::span<const Label> new_labels, std::uint32_t n,
                   bool heal) {
  for (std::uint32_t i = 0; i < n; ++i) {
    const Lba lba = start + i;
    std::copy(data.begin() + static_cast<std::size_t>(i) * kSectorSize,
              data.begin() + static_cast<std::size_t>(i + 1) * kSectorSize,
              data_.begin() + static_cast<std::size_t>(lba) * kSectorSize);
    damaged_[lba] = false;  // a rewritten sector reads again
    if (heal) {
      persistent_faults_.erase(lba);
    }
    if (!new_labels.empty()) {
      labels_[lba] = new_labels[i];
    }
  }
}

Status SimDisk::WriteImpl(Lba start, std::span<const std::uint8_t> data,
                          std::span<const Label> new_labels) {
  const auto count = static_cast<std::uint32_t>(data.size() / kSectorSize);
  const std::uint64_t seq = write_seq_++;
  const WriteOutcome outcome = MaybeCrashOnWrite(start, data, new_labels);
  if (outcome == WriteOutcome::kCrashed) {
    return MakeError(ErrorCode::kDeviceCrashed, "crash during write");
  }
  ScheduledFaults sched = DrawScheduledFaults(start, count, seq);
  if (sched.grown.has_value() &&
      sched.grown->second != FaultMode::kReadFail) {
    persistent_faults_[sched.grown->first] = sched.grown->second;
  }
  // Persistent write-blocking defects fail the request loudly before any
  // data moves; the failed request still occupied the device.
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto it = persistent_faults_.find(start + i);
    if (it != persistent_faults_.end() &&
        it->second != FaultMode::kReadFail) {
      AccountRequest(start, count, /*is_write=*/true, /*label_only=*/false);
      return MakeError(ErrorCode::kSectorDamaged,
                       "persistent write fault at lba " +
                           std::to_string(start + i));
    }
  }
  AccountRequest(start, count, /*is_write=*/true, /*label_only=*/false);
  if (outcome == WriteOutcome::kDropped) {
    return OkStatus();  // acked, but the medium never saw it
  }
  // One-shot armed lying writes trump the schedule's decision for this
  // request; every armed fault in the range is consumed.
  std::optional<WriteFaultKind> lie = sched.self;
  for (std::uint32_t i = 0; i < count; ++i) {
    auto it = pending_write_faults_.find(start + i);
    if (it != pending_write_faults_.end()) {
      lie = it->second;
      pending_write_faults_.erase(it);
    }
  }
  if (lie == WriteFaultKind::kDropped) {
    return OkStatus();  // acked; the old data and labels survive untouched
  }
  if (lie == WriteFaultKind::kTorn) {
    // A prefix lands, the sector at the cut is garbled with its old label
    // kept (the damage is silent), and nothing after transfers — yet the
    // host sees a successful completion.
    Rng rng(fault_schedule_.seed ^ seq ^ 0x7EA57ED5u);
    const std::uint32_t done =
        count == 1 ? 0 : static_cast<std::uint32_t>(rng.Below(count));
    Land(start, data, new_labels, done, /*heal=*/true);
    CorruptLocked(start + done, rng.Next());
    return OkStatus();
  }
  Land(start, data, new_labels, count, /*heal=*/true);
  if (sched.grown.has_value() &&
      sched.grown->second == FaultMode::kReadFail) {
    // The write landed, then the sector rotted: the defect is discovered
    // on the next read.
    persistent_faults_[sched.grown->first] = FaultMode::kReadFail;
  }
  if (sched.corrupt.has_value()) {
    CorruptLocked(sched.corrupt->first, sched.corrupt->second);
  }
  return OkStatus();
}

Status SimDisk::Write(Lba start, std::span<const std::uint8_t> data) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(!data.empty() && data.size() % kSectorSize == 0);
  const auto count = static_cast<std::uint32_t>(data.size() / kSectorSize);
  CEDAR_RETURN_IF_ERROR(CheckRange(start, count));
  return WriteImpl(start, data, {});
}

Status SimDisk::ReadLabeled(Lba start, std::span<std::uint8_t> out,
                            std::span<const Label> expected) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(out.size() % kSectorSize == 0);
  CEDAR_CHECK(expected.size() * kSectorSize == out.size());
  const auto count = static_cast<std::uint32_t>(expected.size());
  CEDAR_RETURN_IF_ERROR(CheckRange(start, count));
  // Microcode checks the label as each sector arrives; charge one request.
  AccountRequest(start, count, /*is_write=*/false, /*label_only=*/false);
  if (ConsumeTransientReadFault(start, count)) {
    return MakeError(ErrorCode::kReadTransient,
                     "transient read error near lba " + std::to_string(start));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const Lba lba = start + i;
    if (ReadBlocked(lba)) {
      return MakeError(ErrorCode::kSectorDamaged,
                       (damaged_[lba] ? "damaged sector at lba "
                                      : "persistent media fault at lba ") +
                           std::to_string(lba));
    }
    if (!(labels_[lba] == expected[i])) {
      return MakeError(ErrorCode::kLabelMismatch,
                       "label mismatch at lba " + std::to_string(lba));
    }
    const std::uint8_t* src =
        data_.data() + static_cast<std::size_t>(lba) * kSectorSize;
    std::copy(src, src + kSectorSize,
              out.begin() + static_cast<std::size_t>(i) * kSectorSize);
  }
  return OkStatus();
}

Status SimDisk::WriteLabeled(Lba start, std::span<const std::uint8_t> data,
                             std::span<const Label> expected,
                             std::span<const Label> new_labels) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(data.size() % kSectorSize == 0);
  const auto count = static_cast<std::uint32_t>(data.size() / kSectorSize);
  CEDAR_CHECK(new_labels.size() == count);
  CEDAR_CHECK(expected.empty() || expected.size() == count);
  CEDAR_RETURN_IF_ERROR(CheckRange(start, count));
  if (!expected.empty()) {
    // The label check happens before any data is transferred.
    Status check = CheckLabels(start, expected);
    if (!check.ok()) {
      // The failed request still occupied the device.
      AccountRequest(start, count, /*is_write=*/true, /*label_only=*/false);
      return check;
    }
  }
  return WriteImpl(start, data, new_labels);
}

Status SimDisk::ReadLabels(Lba start, std::span<Label> out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto count = static_cast<std::uint32_t>(out.size());
  CEDAR_RETURN_IF_ERROR(CheckRange(start, count));
  AccountRequest(start, count, /*is_write=*/false, /*label_only=*/true);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (ReadBlocked(start + i)) {
      return MakeError(ErrorCode::kSectorDamaged,
                       (damaged_[start + i]
                            ? "damaged sector at lba "
                            : "persistent media fault at lba ") +
                           std::to_string(start + i));
    }
    out[i] = labels_[start + i];
  }
  return OkStatus();
}

Status SimDisk::WriteLabels(Lba start, std::span<const Label> labels,
                            std::span<const Label> expected) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto count = static_cast<std::uint32_t>(labels.size());
  CEDAR_CHECK(expected.empty() || expected.size() == count);
  CEDAR_RETURN_IF_ERROR(CheckRange(start, count));
  AccountRequest(start, count, /*is_write=*/true, /*label_only=*/true);
  if (!expected.empty()) {
    CEDAR_RETURN_IF_ERROR(CheckLabels(start, expected));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto it = persistent_faults_.find(start + i);
    if (it != persistent_faults_.end() &&
        it->second != FaultMode::kReadFail) {
      return MakeError(ErrorCode::kSectorDamaged,
                       "persistent write fault at lba " +
                           std::to_string(start + i));
    }
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    labels_[start + i] = labels[i];
  }
  return OkStatus();
}

void SimDisk::DamageSectors(Lba start, std::uint32_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(count >= 1 && count <= 2);
  CEDAR_CHECK(start + count <= geometry_.TotalSectors());
  for (std::uint32_t i = 0; i < count; ++i) {
    damaged_[start + i] = true;
  }
}

void SimDisk::DamageTrack(std::uint32_t cylinder, std::uint32_t head) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(cylinder < geometry_.cylinders);
  CEDAR_CHECK(head < geometry_.heads);
  const Lba start = geometry_.ToLba(
      Chs{.cylinder = cylinder, .head = head, .sector = 0});
  for (std::uint32_t i = 0; i < geometry_.sectors_per_track; ++i) {
    damaged_[start + i] = true;
  }
}

void SimDisk::InjectTransientReadError(Lba lba, std::uint32_t failures) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(lba < geometry_.TotalSectors());
  if (failures == 0) {
    transient_read_faults_.erase(lba);
    return;
  }
  transient_read_faults_[lba] = failures;
}

void SimDisk::WildWrite(Lba lba, std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(lba < geometry_.TotalSectors());
  Rng rng(seed);
  std::uint8_t* sector =
      data_.data() + static_cast<std::size_t>(lba) * kSectorSize;
  for (std::uint32_t i = 0; i < kSectorSize; ++i) {
    sector[i] = static_cast<std::uint8_t>(rng.Next());
  }
  damaged_[lba] = false;
}

void SimDisk::InjectPersistentFault(Lba lba, FaultMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(lba < geometry_.TotalSectors());
  persistent_faults_[lba] = mode;
}

void SimDisk::ClearPersistentFault(Lba lba) {
  std::lock_guard<std::mutex> lock(mu_);
  persistent_faults_.erase(lba);
}

std::optional<FaultMode> SimDisk::PersistentFault(Lba lba) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = persistent_faults_.find(lba);
  if (it == persistent_faults_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void SimDisk::InjectWriteFault(Lba lba, WriteFaultKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(lba < geometry_.TotalSectors());
  pending_write_faults_[lba] = kind;
}

void SimDisk::CorruptSector(Lba lba, std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(lba < geometry_.TotalSectors());
  CorruptLocked(lba, seed);
}

void SimDisk::SetFaultSchedule(const FaultSchedule& schedule) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_schedule_ = schedule;
  fault_events_ = 0;
}

namespace {

// v02 appends crash/fault-injection state after the damage map so that a
// crashed disk dumped by the harness replays bit-identically when reloaded.
// v03 appends the media-fault state (persistent defects, armed lying
// writes, the seeded fault schedule and its counters) after the v02 tail.
constexpr std::string_view kImageMagic = "CEDIMG03";

// Fault maps are written as a u32 count, then per fault a u32 LBA and the
// value (a u32 count or a u8 enum), in ascending LBA order.
template <typename T>
void PutFaultMap(ByteWriter& w, const std::map<Lba, T>& faults) {
  w.U32(static_cast<std::uint32_t>(faults.size()));
  for (const auto& [lba, value] : faults) {
    w.U32(static_cast<std::uint32_t>(lba));
    if constexpr (sizeof(T) == 4) {
      w.U32(value);
    } else {
      w.U8(static_cast<std::uint8_t>(value));
    }
  }
}

// Reads a fault map, accepting only what PutFaultMap writes for a valid
// map: LBAs on the disk in strictly ascending order, values in
// [low, high].
template <typename T>
bool GetFaultMap(ByteReader& r, Lba total, T low, T high,
                 std::map<Lba, T>* faults) {
  const std::uint32_t n = r.Count(4 + sizeof(T));
  for (std::uint32_t i = 0; i < n; ++i) {
    const Lba lba = r.U32();
    const std::uint32_t v = sizeof(T) == 4 ? r.U32() : r.U8();
    if (v < static_cast<std::uint32_t>(low) ||
        v > static_cast<std::uint32_t>(high) || lba >= total ||
        (!faults->empty() && lba <= faults->rbegin()->first)) {
      return false;
    }
    faults->emplace_hint(faults->end(), lba, static_cast<T>(v));
  }
  return r.ok();
}

// The image is a header (magic, geometry), the sector data, and a tail
// holding the rest of the medium state. EncodeImage and DecodeImage put the
// three together; SaveImage and LoadImage move the sector data straight
// between the file and the medium and code only the header and the tail.
constexpr std::size_t kImageHeaderBytes = 8 + 3 * 4;

void EncodeImageHeader(ByteWriter& w, const DiskGeometry& geometry) {
  w.Magic(kImageMagic);
  w.U32(geometry.cylinders);
  w.U32(geometry.heads);
  w.U32(geometry.sectors_per_track);
}

Status DecodeImageHeader(ByteReader& r, const DiskGeometry& geometry) {
  if (!r.Magic(kImageMagic)) {
    return MakeError(ErrorCode::kCorruptMetadata, "not a cedar disk image");
  }
  if (r.U32() != geometry.cylinders || r.U32() != geometry.heads ||
      r.U32() != geometry.sectors_per_track) {
    return MakeError(ErrorCode::kInvalidArgument, "image geometry mismatch");
  }
  return OkStatus();
}

// Everything after the sector data; `snapshot.data` is not read.
void EncodeImageTail(ByteWriter& w, const DiskSnapshot& snapshot) {
  for (const Label& label : snapshot.labels) {
    w.U64(label.file_uid);
    w.U32(label.page_number);
    w.U8(static_cast<std::uint8_t>(label.type));
  }
  for (const bool bad : snapshot.damaged) {
    w.U8(bad ? 1 : 0);
  }
  w.U8(snapshot.crashed ? 1 : 0);
  w.U8(snapshot.crash_plan.has_value() ? 1 : 0);
  if (const auto& plan = snapshot.crash_plan) {
    w.U64(plan->at_write_index);
    w.U32(plan->sectors_completed);
    w.U32(plan->sectors_damaged);
    w.U32(static_cast<std::uint32_t>(plan->drop_writes.size()));
    for (const std::uint64_t drop : plan->drop_writes) {
      w.U64(drop);
    }
  }
  w.U64(snapshot.crash_writes_seen);
  PutFaultMap(w, snapshot.transient_read_faults);
  PutFaultMap(w, snapshot.persistent_faults);
  PutFaultMap(w, snapshot.pending_write_faults);
  const FaultSchedule& schedule = snapshot.fault_schedule;
  w.U64(schedule.seed);
  w.U32(schedule.persistent_ppm);
  w.U32(schedule.write_fault_ppm);
  w.U32(schedule.corrupt_ppm);
  w.U32(schedule.max_events);
  w.U64(snapshot.fault_events);
  w.U64(snapshot.write_seq);
}

// The tail into every field of `snap` but the sector data; `r` must end
// exactly where the tail does.
Status DecodeImageTail(ByteReader& r, const DiskGeometry& geometry,
                       DiskSnapshot* snap) {
  const auto corrupt = [] {
    return MakeError(ErrorCode::kCorruptMetadata, "corrupt disk image");
  };
  const Lba total = geometry.TotalSectors();
  // The geometry, not the file, sizes the per-sector arrays; a short file
  // reads zeros from here on and fails the final check.
  snap->labels.resize(static_cast<std::size_t>(total));
  for (Label& label : snap->labels) {
    label.file_uid = r.U64();
    label.page_number = r.U32();
    const std::uint8_t type = r.U8();
    if (type > static_cast<std::uint8_t>(PageType::kLeader)) {
      return corrupt();
    }
    label.type = static_cast<PageType>(type);
  }
  snap->damaged.resize(static_cast<std::size_t>(total));
  for (std::size_t lba = 0; lba < snap->damaged.size(); ++lba) {
    const std::uint8_t bad = r.U8();
    if (bad > 1) {
      return corrupt();
    }
    snap->damaged[lba] = bad == 1;
  }
  const std::uint8_t crashed = r.U8();
  const std::uint8_t has_plan = r.U8();
  if (crashed > 1 || has_plan > 1) {
    return corrupt();
  }
  snap->crashed = crashed == 1;
  if (has_plan == 1) {
    CrashPlan& plan = snap->crash_plan.emplace();
    plan.at_write_index = r.U64();
    plan.sectors_completed = r.U32();
    plan.sectors_damaged = r.U32();
    plan.drop_writes.resize(r.Count(8));
    for (std::uint64_t& drop : plan.drop_writes) {
      drop = r.U64();
      if (drop >= plan.at_write_index) {
        return corrupt();  // ArmCrash's rule
      }
    }
    if (plan.sectors_damaged > 2) {
      return corrupt();
    }
  }
  snap->crash_writes_seen = r.U64();
  if (!GetFaultMap(r, total, 0u, ~0u, &snap->transient_read_faults) ||
      !GetFaultMap(r, total, FaultMode::kReadFail, FaultMode::kDead,
                   &snap->persistent_faults) ||
      !GetFaultMap(r, total, WriteFaultKind::kDropped, WriteFaultKind::kTorn,
                   &snap->pending_write_faults)) {
    return corrupt();
  }
  FaultSchedule& schedule = snap->fault_schedule;
  schedule.seed = r.U64();
  schedule.persistent_ppm = r.U32();
  schedule.write_fault_ppm = r.U32();
  schedule.corrupt_ppm = r.U32();
  schedule.max_events = r.U32();
  snap->fault_events = r.U64();
  snap->write_seq = r.U64();
  return r.done() ? OkStatus() : corrupt();
}

}  // namespace

std::vector<std::uint8_t> SimDisk::EncodeImage(const DiskGeometry& geometry,
                                               const DiskSnapshot& snapshot) {
  std::vector<std::uint8_t> image;
  // The sector data, labels and damage flags, plus a small tail.
  image.reserve(snapshot.data.size() + 14 * snapshot.labels.size() + 256);
  ByteWriter w(&image);
  EncodeImageHeader(w, geometry);
  w.Bytes(snapshot.data);
  EncodeImageTail(w, snapshot);
  return image;
}

Result<DiskSnapshot> SimDisk::DecodeImage(std::span<const std::uint8_t> bytes,
                                          const DiskGeometry& geometry) {
  ByteReader r(bytes);
  CEDAR_RETURN_IF_ERROR(DecodeImageHeader(r, geometry));
  DiskSnapshot snap;
  snap.data = r.Bytes(static_cast<std::size_t>(geometry.TotalSectors()) *
                      kSectorSize);
  CEDAR_RETURN_IF_ERROR(DecodeImageTail(r, geometry, &snap));
  return snap;
}

Status SimDisk::SaveImage(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  ByteWriter header;
  EncodeImageHeader(header, geometry_);
  ByteWriter tail;
  EncodeImageTail(tail, StateLocked());
  return WriteFileBytes(path, {header.buffer(), data_, tail.buffer()},
                        "disk image");
}

Status SimDisk::LoadImage(const std::string& path) {
  // The header and the tail decode before the disk changes; the sector
  // data, which has nothing to check, is then read straight into the
  // medium (a read that fails part-way leaves the data half loaded).
  CEDAR_ASSIGN_OR_RETURN(const std::uint64_t size,
                         FileSize(path, "disk image"));
  CEDAR_ASSIGN_OR_RETURN(
      const std::vector<std::uint8_t> header,
      ReadFileBytes(path, 0, std::min<std::uint64_t>(size, kImageHeaderBytes),
                    "disk image"));
  ByteReader header_reader(header);
  CEDAR_RETURN_IF_ERROR(DecodeImageHeader(header_reader, geometry_));
  const std::uint64_t tail_at =
      kImageHeaderBytes + geometry_.TotalSectors() * kSectorSize;
  if (size < tail_at) {
    return MakeError(ErrorCode::kCorruptMetadata, "corrupt disk image");
  }
  CEDAR_ASSIGN_OR_RETURN(
      const std::vector<std::uint8_t> tail,
      ReadFileBytes(path, tail_at, size - tail_at, "disk image"));
  ByteReader tail_reader(tail);
  DiskSnapshot state;
  CEDAR_RETURN_IF_ERROR(DecodeImageTail(tail_reader, geometry_, &state));
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_RETURN_IF_ERROR(
      ReadFileInto(path, kImageHeaderBytes, data_, "disk image"));
  AdoptStateLocked(std::move(state));
  return OkStatus();
}

void SimDisk::ArmCrash(const CrashPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(plan.sectors_damaged <= 2);
  for (const std::uint64_t drop : plan.drop_writes) {
    CEDAR_CHECK(drop < plan.at_write_index);
  }
  crash_plan_ = plan;
  crash_writes_seen_ = 0;
}

DiskSnapshot SimDisk::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  DiskSnapshot snap = StateLocked();
  snap.data = data_;
  return snap;
}

DiskSnapshot SimDisk::StateLocked() const {
  DiskSnapshot snap;
  snap.labels = labels_;
  snap.damaged = damaged_;
  snap.crashed = crashed_;
  snap.crash_plan = crash_plan_;
  snap.crash_writes_seen = crash_writes_seen_;
  snap.transient_read_faults = transient_read_faults_;
  snap.persistent_faults = persistent_faults_;
  snap.pending_write_faults = pending_write_faults_;
  snap.fault_schedule = fault_schedule_;
  snap.fault_events = fault_events_;
  snap.write_seq = write_seq_;
  snap.clock_us = clock_->now();
  snap.head_cylinder = timing_.current_cylinder();
  return snap;
}

void SimDisk::Restore(const DiskSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(snapshot.data.size() == data_.size());
  data_ = snapshot.data;  // into the buffer the disk holds: no third image
  AdoptStateLocked(snapshot);
}

template <typename State>
void SimDisk::AdoptStateLocked(State&& state) {
  CEDAR_CHECK(state.labels.size() == labels_.size());
  CEDAR_CHECK(state.damaged.size() == damaged_.size());
  // Each member is moved from an rvalue `state` and copied from an lvalue.
  labels_ = std::forward<State>(state).labels;
  damaged_ = std::forward<State>(state).damaged;
  crashed_ = state.crashed;
  crash_plan_ = std::forward<State>(state).crash_plan;
  crash_writes_seen_ = state.crash_writes_seen;
  transient_read_faults_ = std::forward<State>(state).transient_read_faults;
  persistent_faults_ = std::forward<State>(state).persistent_faults;
  pending_write_faults_ = std::forward<State>(state).pending_write_faults;
  fault_schedule_ = state.fault_schedule;
  fault_events_ = state.fault_events;
  write_seq_ = state.write_seq;
}

void SimDisk::RestoreTimeline(const DiskSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_->Set(snapshot.clock_us);
  timing_.set_current_cylinder(snapshot.head_cylinder);
}

bool SimDisk::StateEquals(const DiskSnapshot& snapshot) const {
  std::lock_guard<std::mutex> lock(mu_);
  return data_ == snapshot.data && labels_ == snapshot.labels &&
         damaged_ == snapshot.damaged && crashed_ == snapshot.crashed &&
         crash_plan_ == snapshot.crash_plan &&
         crash_writes_seen_ == snapshot.crash_writes_seen &&
         transient_read_faults_ == snapshot.transient_read_faults &&
         persistent_faults_ == snapshot.persistent_faults &&
         pending_write_faults_ == snapshot.pending_write_faults &&
         fault_schedule_ == snapshot.fault_schedule &&
         fault_events_ == snapshot.fault_events &&
         write_seq_ == snapshot.write_seq;
}

}  // namespace cedar::sim
