#include "src/sim/array.h"

#include <algorithm>

#include "src/util/check.h"

namespace cedar::sim {

StripeTarget StripeMap(const ArrayConfig& config, Lba logical) {
  if (config.mode == ArrayMode::kMirrored) {
    return StripeTarget{.spindle = 0, .member_lba = logical};
  }
  CEDAR_CHECK(config.chunk_sectors > 0 && config.spindles > 0);
  const Lba stripe = logical / config.chunk_sectors;  // global chunk index
  const Lba within = logical % config.chunk_sectors;
  return StripeTarget{
      .spindle = static_cast<std::uint32_t>(stripe % config.spindles),
      .member_lba = (stripe / config.spindles) * config.chunk_sectors + within,
  };
}

namespace {

DiskGeometry LogicalGeometry(const ArrayConfig& config) {
  DiskGeometry g = config.member_geometry;
  if (config.mode == ArrayMode::kStriped) {
    // N members' worth of cylinders; sectors-per-cylinder unchanged so the
    // layout code's cylinder arithmetic keeps working on logical LBAs.
    const std::uint64_t cylinders =
        static_cast<std::uint64_t>(g.cylinders) * config.spindles;
    CEDAR_CHECK(cylinders <= 0xFFFFFFFFull);
    g.cylinders = static_cast<std::uint32_t>(cylinders);
  }
  return g;
}

}  // namespace

DiskArray::DiskArray(const ArrayConfig& config, VirtualClock* clock)
    : config_(config), logical_geometry_(LogicalGeometry(config)),
      clock_(clock) {
  CEDAR_CHECK(clock != nullptr);
  CEDAR_CHECK(config.spindles >= 1);
  CEDAR_CHECK(config.mode == ArrayMode::kMirrored ||
              config.chunk_sectors >= 1);
  for (std::uint32_t i = 0; i < config.spindles; ++i) {
    member_clocks_.push_back(std::make_unique<VirtualClock>());
    members_.push_back(std::make_unique<SimDisk>(
        config.member_geometry, config.timing, member_clocks_.back().get()));
    members_.back()->set_spindle(i);
  }
}

DiskStats DiskArray::stats() const {
  DiskStats total;
  for (const auto& member : members_) {
    const DiskStats s = member->stats();
    total.reads += s.reads;
    total.writes += s.writes;
    total.label_ops += s.label_ops;
    total.sectors_read += s.sectors_read;
    total.sectors_written += s.sectors_written;
    total.seek_us += s.seek_us;
    total.rotational_us += s.rotational_us;
    total.transfer_us += s.transfer_us;
    total.busy_us += s.busy_us;
  }
  return total;
}

void DiskArray::ResetStats() {
  for (const auto& member : members_) {
    member->ResetStats();
  }
}

void DiskArray::set_tracer(obs::DiskTracer* tracer) {
  for (const auto& member : members_) {
    member->set_tracer(tracer);
  }
}

obs::DiskTracer* DiskArray::tracer() const { return members_[0]->tracer(); }

void DiskArray::AttachMetrics(obs::MetricsRegistry* registry) {
  // Members share the registry's "disk.*" counters, so the registry view is
  // the member sum — the same aggregate stats() reports.
  for (const auto& member : members_) {
    member->AttachMetrics(registry);
  }
}

std::uint32_t DiskArray::HeadCylinder() const {
  return members_[0]->HeadCylinder();
}

DiskStats DiskArray::SpindleStats(std::uint32_t spindle) const {
  return spindle < members_.size() ? members_[spindle]->stats() : DiskStats{};
}

std::vector<DiskArray::Segment> DiskArray::SplitStriped(
    Lba start, std::uint32_t count) const {
  std::vector<Segment> segments;
  Lba lba = start;
  std::size_t offset = 0;
  while (offset < count) {
    const StripeTarget target = StripeMap(config_, lba);
    const std::uint32_t within =
        static_cast<std::uint32_t>(lba % config_.chunk_sectors);
    const std::uint32_t run =
        std::min<std::uint32_t>(config_.chunk_sectors - within,
                                count - static_cast<std::uint32_t>(offset));
    // Adjacent chunks land back on the same member only when spindles == 1;
    // coalescing keeps that degenerate array equivalent to a plain disk.
    if (!segments.empty() && segments.back().spindle == target.spindle &&
        segments.back().member_lba + segments.back().sectors ==
            target.member_lba) {
      segments.back().sectors += run;
    } else {
      segments.push_back(Segment{.spindle = target.spindle,
                                 .member_lba = target.member_lba,
                                 .sectors = run,
                                 .logical_offset = offset});
    }
    lba += run;
    offset += run;
  }
  return segments;
}

std::vector<DiskArray::MemberRun> DiskArray::GroupStriped(
    Lba start, std::uint32_t count) const {
  std::vector<MemberRun> runs;
  std::vector<int> slot_of(members_.size(), -1);
  for (const Segment& seg : SplitStriped(start, count)) {
    int& slot = slot_of[seg.spindle];
    if (slot < 0) {
      slot = static_cast<int>(runs.size());
      MemberRun run;
      run.spindle = seg.spindle;
      run.member_lba = seg.member_lba;
      runs.push_back(std::move(run));
    }
    MemberRun& run = runs[static_cast<std::size_t>(slot)];
    // Consecutive chunks of one member are consecutive member chunks; a
    // gap would mean the stripe arithmetic broke.
    CEDAR_CHECK(seg.member_lba == run.member_lba + run.sectors);
    run.sectors += seg.sectors;
    run.segments.push_back(seg);
  }
  return runs;
}

template <typename Io>
Status DiskArray::IssueMember(std::uint32_t spindle, Micros logical_start,
                              Micros* latest, Io&& io) {
  // The spindle idled since its last request: catch its private clock up to
  // the rig's logical time so seek/rotation start from a physical position.
  VirtualClock& member_clock = *member_clocks_[spindle];
  member_clock.AdvanceTo(logical_start);
  Status status = io(*members_[spindle]);
  *latest = std::max(*latest, member_clock.now());
  return status;
}

DiskArray::WriteOutcome DiskArray::MaybeCrashMemberWrite(
    std::uint32_t spindle, Lba member_lba, std::span<const std::uint8_t> data,
    Micros logical_start, Micros* latest) {
  if (!crash_plan_.has_value()) {
    return WriteOutcome::kProceed;
  }
  const std::uint64_t index = crash_writes_seen_++;
  if (index != crash_plan_->at_write_index) {
    const auto& drops = crash_plan_->drop_writes;
    if (std::find(drops.begin(), drops.end(), index) != drops.end()) {
      // Acked to the host, never issued to the member: the device reordered
      // this chunk/replica past the cut and the power failure discarded it.
      return WriteOutcome::kDropped;
    }
    return WriteOutcome::kProceed;
  }
  // Tear THIS member write: delegate the prefix+damage mechanics to the
  // member's own crash machinery (plan index 0 = its very next write), then
  // take the rest of the array down with it.
  CrashPlan member_plan;
  member_plan.at_write_index = 0;
  member_plan.sectors_completed = crash_plan_->sectors_completed;
  member_plan.sectors_damaged = crash_plan_->sectors_damaged;
  members_[spindle]->ArmCrash(member_plan);
  (void)IssueMember(spindle, logical_start, latest, [&](SimDisk& disk) {
    return disk.Write(member_lba, data);
  });
  for (const auto& member : members_) {
    member->CrashNow();
  }
  crashed_ = true;
  crash_plan_.reset();
  return WriteOutcome::kCrashed;
}

Status DiskArray::Read(Lba start, std::span<std::uint8_t> out,
                       std::vector<std::uint32_t>* bad) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(out.size() % kSectorSize == 0);
  const auto count = static_cast<std::uint32_t>(out.size() / kSectorSize);
  CEDAR_RETURN_IF_ERROR(CheckRequest(crashed_, "array", start, count,
                                     logical_geometry_.TotalSectors()));
  const Micros logical_start = clock_->now();
  Micros latest = logical_start;
  Status result = OkStatus();

  if (config_.mode == ArrayMode::kStriped) {
    std::vector<std::uint32_t> logical_bad;
    for (const MemberRun& run : GroupStriped(start, count)) {
      std::vector<std::uint8_t> buf(
          static_cast<std::size_t>(run.sectors) * kSectorSize);
      std::vector<std::uint32_t> member_bad;
      Status status =
          IssueMember(run.spindle, logical_start, &latest, [&](SimDisk& disk) {
            return disk.Read(run.member_lba, buf,
                             bad == nullptr ? nullptr : &member_bad);
          });
      if (!status.ok()) {
        result = status;
        break;
      }
      // Scatter the member run back into the logical buffer chunk by chunk.
      for (const Segment& seg : run.segments) {
        const auto src = std::span<const std::uint8_t>(buf).subspan(
            static_cast<std::size_t>(seg.member_lba - run.member_lba) *
                kSectorSize,
            static_cast<std::size_t>(seg.sectors) * kSectorSize);
        std::copy(src.begin(), src.end(),
                  out.begin() +
                      static_cast<std::ptrdiff_t>(seg.logical_offset *
                                                  kSectorSize));
      }
      if (bad != nullptr) {
        for (const std::uint32_t idx : member_bad) {
          const Lba member_lba = run.member_lba + idx;
          for (const Segment& seg : run.segments) {
            if (member_lba >= seg.member_lba &&
                member_lba < seg.member_lba + seg.sectors) {
              logical_bad.push_back(
                  static_cast<std::uint32_t>(seg.logical_offset) +
                  static_cast<std::uint32_t>(member_lba - seg.member_lba));
              break;
            }
          }
        }
      }
    }
    if (bad != nullptr) {
      std::sort(logical_bad.begin(), logical_bad.end());
      bad->insert(bad->end(), logical_bad.begin(), logical_bad.end());
    }
    clock_->AdvanceTo(latest);
    return result;
  }

  // Mirrored: replicas take turns (round-robin load balancing); a failed
  // replica's request still costs its spindle time, and the read falls back
  // to the next replica — the one-replica-dead path.
  const auto replicas = static_cast<std::uint32_t>(members_.size());
  const std::uint32_t primary =
      static_cast<std::uint32_t>(read_rr_++ % replicas);
  if (bad == nullptr) {
    Status last = OkStatus();
    for (std::uint32_t i = 0; i < replicas; ++i) {
      const std::uint32_t spindle = (primary + i) % replicas;
      last = IssueMember(spindle, logical_start, &latest, [&](SimDisk& disk) {
        return disk.Read(start, out, nullptr);
      });
      if (last.ok()) {
        break;
      }
    }
    clock_->AdvanceTo(latest);
    return last;
  }
  // Harvest mode: merge per-sector across replicas; a sector is reported
  // bad only when NO replica can serve it.
  std::vector<bool> missing(count, true);
  std::uint32_t remaining = count;
  std::vector<std::uint8_t> scratch;
  for (std::uint32_t i = 0; i < replicas && remaining > 0; ++i) {
    const std::uint32_t spindle = (primary + i) % replicas;
    std::span<std::uint8_t> target = out;
    if (i != 0) {
      scratch.assign(out.size(), 0);
      target = scratch;
    }
    std::vector<std::uint32_t> member_bad;
    Status status =
        IssueMember(spindle, logical_start, &latest, [&](SimDisk& disk) {
          return disk.Read(start, target, &member_bad);
        });
    if (!status.ok()) {
      continue;  // e.g. a transient fault consumed the whole request
    }
    std::vector<bool> replica_bad(count, false);
    for (const std::uint32_t idx : member_bad) {
      replica_bad[idx] = true;
    }
    for (std::uint32_t s = 0; s < count; ++s) {
      if (!missing[s] || replica_bad[s]) {
        continue;
      }
      if (i != 0) {
        std::copy(scratch.begin() + static_cast<std::size_t>(s) * kSectorSize,
                  scratch.begin() +
                      static_cast<std::size_t>(s + 1) * kSectorSize,
                  out.begin() + static_cast<std::size_t>(s) * kSectorSize);
      }
      missing[s] = false;
      --remaining;
    }
  }
  for (std::uint32_t s = 0; s < count; ++s) {
    if (missing[s]) {
      auto dst = out.subspan(static_cast<std::size_t>(s) * kSectorSize,
                             kSectorSize);
      std::fill(dst.begin(), dst.end(), std::uint8_t{0});
      bad->push_back(s);
    }
  }
  clock_->AdvanceTo(latest);
  return OkStatus();
}

Status DiskArray::Write(Lba start, std::span<const std::uint8_t> data) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(!data.empty() && data.size() % kSectorSize == 0);
  const auto count = static_cast<std::uint32_t>(data.size() / kSectorSize);
  CEDAR_RETURN_IF_ERROR(CheckRequest(crashed_, "array", start, count,
                                     logical_geometry_.TotalSectors()));
  const Micros logical_start = clock_->now();
  Micros latest = logical_start;

  if (config_.mode == ArrayMode::kStriped) {
    for (const MemberRun& run : GroupStriped(start, count)) {
      // Gather the member's chunks from the logical buffer into one
      // contiguous member request.
      std::vector<std::uint8_t> buf(
          static_cast<std::size_t>(run.sectors) * kSectorSize);
      for (const Segment& seg : run.segments) {
        const auto src = data.subspan(
            seg.logical_offset * kSectorSize,
            static_cast<std::size_t>(seg.sectors) * kSectorSize);
        std::copy(src.begin(), src.end(),
                  buf.begin() +
                      static_cast<std::ptrdiff_t>(
                          (seg.member_lba - run.member_lba) * kSectorSize));
      }
      switch (MaybeCrashMemberWrite(run.spindle, run.member_lba, buf,
                                    logical_start, &latest)) {
        case WriteOutcome::kCrashed:
          clock_->AdvanceTo(latest);
          return MakeError(ErrorCode::kDeviceCrashed, "crash during write");
        case WriteOutcome::kDropped:
          continue;
        case WriteOutcome::kProceed:
          break;
      }
      Status status =
          IssueMember(run.spindle, logical_start, &latest, [&](SimDisk& disk) {
            return disk.Write(run.member_lba, buf);
          });
      if (!status.ok()) {
        // Earlier members' runs persisted: a partial stripe write, within
        // the device's weak-atomicity contract.
        clock_->AdvanceTo(latest);
        return status;
      }
    }
    clock_->AdvanceTo(latest);
    return OkStatus();
  }

  // Mirrored: every replica gets the write; the host waits for the slowest.
  // A replica with a persistent write fault is dropped from the mirror (its
  // stale data loses to the healthy replicas on fallback reads); the write
  // fails only when NO replica took it.
  Status first_error = OkStatus();
  std::uint32_t succeeded = 0;
  for (std::uint32_t spindle = 0; spindle < members_.size(); ++spindle) {
    switch (MaybeCrashMemberWrite(spindle, start, data, logical_start,
                                  &latest)) {
      case WriteOutcome::kCrashed:
        clock_->AdvanceTo(latest);
        return MakeError(ErrorCode::kDeviceCrashed, "crash during write");
      case WriteOutcome::kDropped:
        ++succeeded;  // acked; this replica simply diverges
        continue;
      case WriteOutcome::kProceed:
        break;
    }
    Status status =
        IssueMember(spindle, logical_start, &latest, [&](SimDisk& disk) {
          return disk.Write(start, data);
        });
    if (status.ok()) {
      ++succeeded;
    } else if (first_error.ok()) {
      first_error = status;
    }
  }
  clock_->AdvanceTo(latest);
  return succeeded > 0 ? OkStatus() : first_error;
}

void DiskArray::DamageSectors(Lba start, std::uint32_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(count >= 1 && count <= 2);
  if (config_.mode == ArrayMode::kStriped) {
    for (std::uint32_t i = 0; i < count; ++i) {
      const StripeTarget target = StripeMap(config_, start + i);
      members_[target.spindle]->DamageSectors(target.member_lba, 1);
    }
    return;
  }
  for (const auto& member : members_) {
    member->DamageSectors(start, count);
  }
}

bool DiskArray::IsDamaged(Lba lba) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.mode == ArrayMode::kStriped) {
    const StripeTarget target = StripeMap(config_, lba);
    return members_[target.spindle]->IsDamaged(target.member_lba);
  }
  for (const auto& member : members_) {
    if (!member->IsDamaged(lba)) {
      return false;
    }
  }
  return true;
}

void DiskArray::ArmCrash(const CrashPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(plan.sectors_damaged <= 2);
  for (const std::uint64_t drop : plan.drop_writes) {
    CEDAR_CHECK(drop < plan.at_write_index);
  }
  crash_plan_ = plan;
  crash_writes_seen_ = 0;
}

void DiskArray::CrashNow() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = true;
  for (const auto& member : members_) {
    member->CrashNow();
  }
}

bool DiskArray::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

void DiskArray::Reopen() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = false;
  crash_plan_.reset();
  crash_writes_seen_ = 0;
  for (const auto& member : members_) {
    member->Reopen();
  }
}

void DiskArray::BeginBatch() {
  for (const auto& member : members_) {
    member->BeginBatch();
  }
}

void DiskArray::EndBatch() {
  for (const auto& member : members_) {
    member->EndBatch();
  }
}

DeviceSnapshot DiskArray::SnapshotDevice() const {
  std::lock_guard<std::mutex> lock(mu_);
  DeviceSnapshot snapshot;
  for (const auto& member : members_) {
    snapshot.disks.push_back(member->Snapshot());
  }
  snapshot.crashed = crashed_;
  snapshot.crash_plan = crash_plan_;
  snapshot.crash_writes_seen = crash_writes_seen_;
  snapshot.read_rr = read_rr_;
  snapshot.clock_us = clock_->now();
  return snapshot;
}

void DiskArray::RestoreDevice(const DeviceSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(snapshot.disks.size() == members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    members_[i]->Restore(snapshot.disks[i]);
  }
  crashed_ = snapshot.crashed;
  crash_plan_ = snapshot.crash_plan;
  crash_writes_seen_ = snapshot.crash_writes_seen;
  read_rr_ = snapshot.read_rr;
}

void DiskArray::RestoreTimeline(const DeviceSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  CEDAR_CHECK(snapshot.disks.size() == members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    members_[i]->RestoreTimeline(snapshot.disks[i]);
  }
  clock_->Set(snapshot.clock_us);
}

bool DiskArray::DeviceStateEquals(const DeviceSnapshot& snapshot) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot.disks.size() != members_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (!members_[i]->StateEquals(snapshot.disks[i])) {
      return false;
    }
  }
  return crashed_ == snapshot.crashed &&
         crash_plan_ == snapshot.crash_plan &&
         crash_writes_seen_ == snapshot.crash_writes_seen &&
         read_rr_ == snapshot.read_rr;
}

Status DiskArray::SaveImage(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const std::string member_path =
        i == 0 ? path : path + ".s" + std::to_string(i);
    CEDAR_RETURN_IF_ERROR(members_[i]->SaveImage(member_path));
  }
  return OkStatus();
}

}  // namespace cedar::sim
