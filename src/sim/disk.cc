#include "src/sim/disk.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>

#include "src/util/check.h"
#include "src/util/random.h"

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
  if (crashed_) {
    return MakeError(ErrorCode::kDeviceCrashed, "disk is crashed");
  }
  if (count == 0 || start + count > geometry_.TotalSectors()) {
    return MakeError(ErrorCode::kOutOfRange,
                     "lba " + std::to_string(start) + "+" +
                         std::to_string(count) + " out of range");
  }
  return OkStatus();
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
  for (std::uint32_t i = 0; i < done; ++i) {
    const Lba lba = start + i;
    std::copy(data.begin() + static_cast<std::size_t>(i) * kSectorSize,
              data.begin() + static_cast<std::size_t>(i + 1) * kSectorSize,
              data_.begin() + static_cast<std::size_t>(lba) * kSectorSize);
    damaged_[lba] = false;
    if (!new_labels.empty()) {
      labels_[lba] = new_labels[i];
    }
  }
  const std::uint32_t ndamaged =
      std::min(crash_plan_->sectors_damaged, count - done);
  for (std::uint32_t i = 0; i < ndamaged; ++i) {
    damaged_[start + done + i] = true;
  }
  crashed_ = true;
  crash_plan_.reset();
  return WriteOutcome::kCrashed;
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
    for (std::uint32_t i = 0; i < done; ++i) {
      const Lba lba = start + i;
      std::copy(data.begin() + static_cast<std::size_t>(i) * kSectorSize,
                data.begin() + static_cast<std::size_t>(i + 1) * kSectorSize,
                data_.begin() + static_cast<std::size_t>(lba) * kSectorSize);
      damaged_[lba] = false;
      persistent_faults_.erase(lba);
      if (!new_labels.empty()) {
        labels_[lba] = new_labels[i];
      }
    }
    CorruptLocked(start + done, rng.Next());
    return OkStatus();
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const Lba lba = start + i;
    std::copy(data.begin() + static_cast<std::size_t>(i) * kSectorSize,
              data.begin() + static_cast<std::size_t>(i + 1) * kSectorSize,
              data_.begin() + static_cast<std::size_t>(lba) * kSectorSize);
    damaged_[lba] = false;  // a successful rewrite revives the sector
    persistent_faults_.erase(lba);  // ...and heals a grown read defect
    if (!new_labels.empty()) {
      labels_[lba] = new_labels[i];
    }
  }
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
constexpr char kImageMagic[8] = {'C', 'E', 'D', 'I', 'M', 'G', '0', '3'};

void PutU8(std::ofstream& out, std::uint8_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint8_t GetU8(std::ifstream& in) {
  std::uint8_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
void PutU32(std::ofstream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint32_t GetU32(std::ifstream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
std::uint64_t GetU64(std::ifstream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
}  // namespace

Status SimDisk::SaveImage(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return MakeError(ErrorCode::kInternal, "cannot open " + path);
  }
  out.write(kImageMagic, sizeof(kImageMagic));
  const std::uint32_t header[3] = {geometry_.cylinders, geometry_.heads,
                                   geometry_.sectors_per_track};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(data_.data()),
            static_cast<std::streamsize>(data_.size()));
  for (const Label& label : labels_) {
    out.write(reinterpret_cast<const char*>(&label.file_uid), 8);
    out.write(reinterpret_cast<const char*>(&label.page_number), 4);
    const auto type = static_cast<std::uint8_t>(label.type);
    out.write(reinterpret_cast<const char*>(&type), 1);
  }
  for (Lba lba = 0; lba < geometry_.TotalSectors(); ++lba) {
    const std::uint8_t bad = damaged_[lba] ? 1 : 0;
    out.write(reinterpret_cast<const char*>(&bad), 1);
  }
  const std::uint8_t crashed = crashed_ ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&crashed), 1);
  const std::uint8_t has_plan = crash_plan_.has_value() ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&has_plan), 1);
  if (crash_plan_.has_value()) {
    PutU64(out, crash_plan_->at_write_index);
    PutU32(out, crash_plan_->sectors_completed);
    PutU32(out, crash_plan_->sectors_damaged);
    PutU32(out, static_cast<std::uint32_t>(crash_plan_->drop_writes.size()));
    for (const std::uint64_t drop : crash_plan_->drop_writes) {
      PutU64(out, drop);
    }
  }
  PutU64(out, crash_writes_seen_);
  PutU32(out, static_cast<std::uint32_t>(transient_read_faults_.size()));
  for (const auto& [lba, failures] : transient_read_faults_) {
    PutU32(out, static_cast<std::uint32_t>(lba));
    PutU32(out, failures);
  }
  PutU32(out, static_cast<std::uint32_t>(persistent_faults_.size()));
  for (const auto& [lba, mode] : persistent_faults_) {
    PutU32(out, static_cast<std::uint32_t>(lba));
    PutU8(out, static_cast<std::uint8_t>(mode));
  }
  PutU32(out, static_cast<std::uint32_t>(pending_write_faults_.size()));
  for (const auto& [lba, kind] : pending_write_faults_) {
    PutU32(out, static_cast<std::uint32_t>(lba));
    PutU8(out, static_cast<std::uint8_t>(kind));
  }
  PutU64(out, fault_schedule_.seed);
  PutU32(out, fault_schedule_.persistent_ppm);
  PutU32(out, fault_schedule_.write_fault_ppm);
  PutU32(out, fault_schedule_.corrupt_ppm);
  PutU32(out, fault_schedule_.max_events);
  PutU64(out, fault_events_);
  PutU64(out, write_seq_);
  out.flush();
  if (!out) {
    return MakeError(ErrorCode::kInternal, "write failed: " + path);
  }
  return OkStatus();
}

Status SimDisk::LoadImage(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return MakeError(ErrorCode::kNotFound, "cannot open " + path);
  }
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kImageMagic, sizeof(magic)) != 0) {
    return MakeError(ErrorCode::kCorruptMetadata, "not a cedar disk image");
  }
  std::uint32_t header[3];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in || header[0] != geometry_.cylinders || header[1] != geometry_.heads ||
      header[2] != geometry_.sectors_per_track) {
    return MakeError(ErrorCode::kInvalidArgument, "image geometry mismatch");
  }
  in.read(reinterpret_cast<char*>(data_.data()),
          static_cast<std::streamsize>(data_.size()));
  for (Label& label : labels_) {
    in.read(reinterpret_cast<char*>(&label.file_uid), 8);
    in.read(reinterpret_cast<char*>(&label.page_number), 4);
    std::uint8_t type = 0;
    in.read(reinterpret_cast<char*>(&type), 1);
    label.type = static_cast<PageType>(type);
  }
  for (Lba lba = 0; lba < geometry_.TotalSectors(); ++lba) {
    std::uint8_t bad = 0;
    in.read(reinterpret_cast<char*>(&bad), 1);
    damaged_[lba] = bad != 0;
  }
  crash_plan_.reset();
  transient_read_faults_.clear();
  persistent_faults_.clear();
  pending_write_faults_.clear();
  fault_schedule_ = FaultSchedule{};
  std::uint8_t crashed = 0;
  in.read(reinterpret_cast<char*>(&crashed), 1);
  crashed_ = crashed != 0;
  std::uint8_t has_plan = 0;
  in.read(reinterpret_cast<char*>(&has_plan), 1);
  if (has_plan != 0) {
    CrashPlan plan;
    plan.at_write_index = GetU64(in);
    plan.sectors_completed = GetU32(in);
    plan.sectors_damaged = GetU32(in);
    const std::uint32_t ndrops = GetU32(in);
    if (!in || ndrops > (1u << 20)) {
      return MakeError(ErrorCode::kCorruptMetadata, "truncated disk image");
    }
    plan.drop_writes.reserve(ndrops);
    for (std::uint32_t i = 0; i < ndrops; ++i) {
      plan.drop_writes.push_back(GetU64(in));
    }
    crash_plan_ = plan;
  }
  crash_writes_seen_ = GetU64(in);
  const std::uint32_t nfaults = GetU32(in);
  if (!in || nfaults > geometry_.TotalSectors()) {
    return MakeError(ErrorCode::kCorruptMetadata, "truncated disk image");
  }
  for (std::uint32_t i = 0; i < nfaults; ++i) {
    const Lba lba = GetU32(in);
    const std::uint32_t failures = GetU32(in);
    transient_read_faults_[lba] = failures;
  }
  const std::uint32_t npersistent = GetU32(in);
  if (!in || npersistent > geometry_.TotalSectors()) {
    return MakeError(ErrorCode::kCorruptMetadata, "truncated disk image");
  }
  for (std::uint32_t i = 0; i < npersistent; ++i) {
    const Lba lba = GetU32(in);
    persistent_faults_[lba] = static_cast<FaultMode>(GetU8(in));
  }
  const std::uint32_t npending = GetU32(in);
  if (!in || npending > geometry_.TotalSectors()) {
    return MakeError(ErrorCode::kCorruptMetadata, "truncated disk image");
  }
  for (std::uint32_t i = 0; i < npending; ++i) {
    const Lba lba = GetU32(in);
    pending_write_faults_[lba] = static_cast<WriteFaultKind>(GetU8(in));
  }
  fault_schedule_.seed = GetU64(in);
  fault_schedule_.persistent_ppm = GetU32(in);
  fault_schedule_.write_fault_ppm = GetU32(in);
  fault_schedule_.corrupt_ppm = GetU32(in);
  fault_schedule_.max_events = GetU32(in);
  fault_events_ = GetU64(in);
  write_seq_ = GetU64(in);
  if (!in) {
    return MakeError(ErrorCode::kCorruptMetadata, "truncated disk image");
  }
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
  DiskSnapshot snap;
  snap.data = data_;
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
  CEDAR_CHECK(snapshot.labels.size() == labels_.size());
  CEDAR_CHECK(snapshot.damaged.size() == damaged_.size());
  data_ = snapshot.data;
  labels_ = snapshot.labels;
  damaged_ = snapshot.damaged;
  crashed_ = snapshot.crashed;
  crash_plan_ = snapshot.crash_plan;
  crash_writes_seen_ = snapshot.crash_writes_seen;
  transient_read_faults_ = snapshot.transient_read_faults;
  persistent_faults_ = snapshot.persistent_faults;
  pending_write_faults_ = snapshot.pending_write_faults;
  fault_schedule_ = snapshot.fault_schedule;
  fault_events_ = snapshot.fault_events;
  write_seq_ = snapshot.write_seq;
}

void SimDisk::RestoreTimeline(const DiskSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_->Set(snapshot.clock_us);
  timing_.set_current_cylinder(snapshot.head_cylinder);
}

bool SimDisk::StateEquals(const DiskSnapshot& snapshot) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto labels_equal = [](const std::vector<Label>& a,
                         const std::vector<Label>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  };
  auto plans_equal = [](const std::optional<CrashPlan>& a,
                        const std::optional<CrashPlan>& b) {
    if (a.has_value() != b.has_value()) return false;
    if (!a.has_value()) return true;
    return a->at_write_index == b->at_write_index &&
           a->sectors_completed == b->sectors_completed &&
           a->sectors_damaged == b->sectors_damaged &&
           a->drop_writes == b->drop_writes;
  };
  return data_ == snapshot.data && labels_equal(labels_, snapshot.labels) &&
         damaged_ == snapshot.damaged && crashed_ == snapshot.crashed &&
         plans_equal(crash_plan_, snapshot.crash_plan) &&
         crash_writes_seen_ == snapshot.crash_writes_seen &&
         transient_read_faults_ == snapshot.transient_read_faults &&
         persistent_faults_ == snapshot.persistent_faults &&
         pending_write_faults_ == snapshot.pending_write_faults &&
         fault_schedule_ == snapshot.fault_schedule &&
         fault_events_ == snapshot.fault_events &&
         write_seq_ == snapshot.write_seq;
}

}  // namespace cedar::sim
