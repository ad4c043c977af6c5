#include "src/crash/harness.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace cedar::crash {
namespace {

std::string PlanLabel(const sim::CrashPlan& plan) {
  std::string label = "w" + std::to_string(plan.at_write_index);
  if (plan.sectors_completed != 0 || plan.sectors_damaged != 0) {
    label += " torn c=" + std::to_string(plan.sectors_completed) +
             " d=" + std::to_string(plan.sectors_damaged);
  }
  if (!plan.drop_writes.empty()) {
    label += " drop{";
    for (std::size_t i = 0; i < plan.drop_writes.size(); ++i) {
      label += i != 0 ? "," : "";
      label += std::to_string(plan.drop_writes[i]);
    }
    label += "}";
  }
  return label;
}

}  // namespace

core::FsdConfig CrashHarness::FsdConfigFor(bool vam_logging) {
  core::FsdConfig config;
  // Small log (third = 132 sectors, the smallest FsdLog allows with margin)
  // so the standard workload crosses log thirds: the schedule then contains
  // third entries, pointer advances, and real home-flush batches for the
  // reorder enumerator to cut.
  config.log_sectors = 400;
  config.nt_pages = 64;
  config.cache_frames = 512;
  config.durability.vam_logging = vam_logging;
  // Only explicit Force() steps commit. The group-commit timer compares
  // VIRTUAL timestamps, and the disk's service times depend on head and
  // rotational position — state that differs between the recording run and
  // a replay that crashed and remounted. A timer that fired in one run but
  // not the other would change the write schedule, so it is parked far
  // beyond the workload's duration.
  config.commit.interval = 3600ull * 1000 * 1000;
  return config;
}

CrashHarness::CrashHarness(HarnessOptions options)
    : options_(std::move(options)),
      config_(FsdConfigFor(options_.vam_logging)) {
  config_.cache_frames = options_.cache_frames;
  if (options_.checkpoint_daemon) {
    config_.checkpoint.daemon = true;
    config_.checkpoint.window_sectors = config_.MinCheckpointWindowSectors();
  }
}

CrashHarness::~CrashHarness() = default;

Result<HarnessReport> CrashHarness::Run() {
  clock_ = std::make_unique<sim::VirtualClock>();
  if (options_.topology == Topology::kSingle) {
    auto disk = std::make_unique<sim::SimDisk>(
        sim::TestGeometry(), sim::DiskTimingParams{}, clock_.get());
    single_ = disk.get();
    disk_ = std::move(disk);
  } else {
    sim::ArrayConfig array;
    array.mode = options_.topology == Topology::kStriped
                     ? sim::ArrayMode::kStriped
                     : sim::ArrayMode::kMirrored;
    array.spindles = options_.spindles;
    array.chunk_sectors = options_.chunk_sectors;
    array.member_geometry = sim::TestGeometry();
    auto disks = std::make_unique<sim::DiskArray>(array, clock_.get());
    array_ = disks.get();
    disk_ = std::move(disks);
  }

  // Phase A: every case replays from this exact image.
  CEDAR_RETURN_IF_ERROR(FormatBaseVolume(disk_.get(), config_));
  base_ = disk_->SnapshotDevice();
  if (!disk_->DeviceStateEquals(base_)) {
    return MakeError(ErrorCode::kInternal,
                     "disk snapshot round-trip mismatch on the base image");
  }

  HarnessReport report;
  CEDAR_ASSIGN_OR_RETURN(report.run, Record());

  std::vector<CrashCase> cases = Enumerate(report.run);
  report.enumerated = cases.size();
  if (options_.max_cases != 0 && cases.size() > options_.max_cases) {
    // Deterministic sample. Clean cuts (the cheapest, broadest coverage)
    // sort first in the enumeration; keep them all if they fit and sample
    // the torn/reorder tail, else sample uniformly.
    Rng rng(options_.seed ^ 0xCA5E5A3Du);
    std::vector<CrashCase> kept;
    std::vector<CrashCase> pool;
    for (CrashCase& c : cases) {
      if (c.variant == "clean" && kept.size() < options_.max_cases) {
        kept.push_back(std::move(c));
      } else {
        pool.push_back(std::move(c));
      }
    }
    while (kept.size() < options_.max_cases && !pool.empty()) {
      const std::size_t pick = rng.Below(pool.size());
      kept.push_back(std::move(pool[pick]));
      pool[pick] = std::move(pool.back());
      pool.pop_back();
    }
    cases = std::move(kept);
  }

  for (const CrashCase& c : cases) {
    RunCase(report.run, c, &report);
  }
  return report;
}

Result<RecordedRun> CrashHarness::Record() {
  RecordedRun run;
  run.steps = StandardWorkload();

  RestoreBase();
  auto fsd = std::make_unique<core::Fsd>(disk_.get(), config_);
  CEDAR_RETURN_IF_ERROR(fsd->Mount());

  // Everything from here on is schedule: write index 0 is the first write
  // after Mount() returns, which is exactly where replays arm the crash.
  obs::DiskTracer tracer(1 << 16);
  disk_->set_tracer(&tracer);
  const std::uint64_t writes0 = disk_->stats().writes;

  for (std::size_t s = 0; s < run.steps.size(); ++s) {
    const Step& step = run.steps[s];
    const std::uint64_t before = disk_->stats().writes - writes0;
    if (Status status = ExecuteStep(fsd.get(), step); !status.ok()) {
      disk_->set_tracer(nullptr);
      return MakeError(ErrorCode::kInternal,
                       "recording run failed at step " + std::to_string(s) +
                           ": " + std::string(status.message()));
    }
    run.bounds.push_back({before, disk_->stats().writes - writes0});
    run.history.Apply(static_cast<int>(s), step);
  }
  disk_->set_tracer(nullptr);
  run.metrics = fsd->SnapshotMetrics();

  const std::uint64_t total_writes = disk_->stats().writes - writes0;
  for (const obs::TraceEvent& ev : tracer.Events()) {
    if (ev.kind != obs::DiskOpKind::kWrite) {
      continue;
    }
    run.writes.push_back(ScheduleEntry{
        .lba = ev.lba,
        .sectors = ev.sectors,
        .batch = ev.batch,
        .op = std::string(tracer.OpName(ev.op_id))});
  }
  if (run.writes.size() != total_writes) {
    return MakeError(ErrorCode::kInternal,
                     "trace/stats write-count mismatch: traced " +
                         std::to_string(run.writes.size()) + " counted " +
                         std::to_string(total_writes));
  }
  return run;
}

void CrashHarness::RestoreBase() {
  disk_->RestoreDevice(base_);
  if (array_ != nullptr) {
    array_->RestoreTimeline(base_);
  } else {
    single_->RestoreTimeline(base_.disks[0]);
  }
}

std::vector<CrashCase> CrashHarness::Enumerate(const RecordedRun& run) const {
  std::vector<CrashCase> clean;
  std::vector<CrashCase> extra;
  for (std::uint64_t i = 0; i < run.writes.size(); ++i) {
    const ScheduleEntry& e = run.writes[i];
    sim::CrashPlan clean_plan;
    clean_plan.at_write_index = i;
    clean.push_back(CrashCase{.plan = clean_plan, .variant = "clean"});

    // Torn prefixes: (completed, damaged) cuts of this write.
    std::set<std::pair<std::uint32_t, std::uint32_t>> cuts;
    if (options_.exhaustive_torn) {
      for (std::uint32_t c = 0; c < e.sectors; ++c) {
        for (std::uint32_t d = 0; d <= 2 && c + d <= e.sectors; ++d) {
          if (c != 0 || d != 0) {
            cuts.insert({c, d});
          }
        }
      }
    } else {
      cuts.insert({0, 1});
      if (e.sectors >= 2) {
        cuts.insert({1, 1});
        cuts.insert({e.sectors / 2, 1});
        cuts.insert({e.sectors - 1, 1});
        cuts.insert({e.sectors - 1, 0});
        cuts.insert({e.sectors - 2, 2});
      }
    }
    for (const auto& [c, d] : cuts) {
      sim::CrashPlan plan;
      plan.at_write_index = i;
      plan.sectors_completed = c;
      plan.sectors_damaged = d;
      extra.push_back(CrashCase{
          .plan = plan,
          .variant =
              "torn c=" + std::to_string(c) + " d=" + std::to_string(d)});
    }

    // Batch reorders: earlier writes of the same IoScheduler batch acked
    // but never persisted (the device scheduled them after the cut).
    if (e.batch != 0) {
      std::vector<std::uint64_t> peers;
      for (std::uint64_t j = i; j-- > 0;) {
        if (run.writes[j].batch != e.batch) {
          break;  // batches are contiguous in the schedule
        }
        peers.push_back(j);
      }
      std::reverse(peers.begin(), peers.end());
      std::vector<std::uint64_t> singles = peers;
      if (!options_.exhaustive_torn && singles.size() > 3) {
        Rng rng(options_.seed ^ (i * 0x9E3779B97F4A7C15ull));
        std::vector<std::uint64_t> sampled;
        for (int k = 0; k < 3; ++k) {
          sampled.push_back(singles[rng.Below(singles.size())]);
        }
        std::sort(sampled.begin(), sampled.end());
        sampled.erase(std::unique(sampled.begin(), sampled.end()),
                      sampled.end());
        singles = std::move(sampled);
      }
      for (std::uint64_t j : singles) {
        sim::CrashPlan plan;
        plan.at_write_index = i;
        plan.drop_writes = {j};
        extra.push_back(CrashCase{.plan = std::move(plan),
                                  .variant = "drop{" + std::to_string(j) +
                                             "}"});
      }
      if (peers.size() >= 2) {
        sim::CrashPlan plan;
        plan.at_write_index = i;
        plan.drop_writes = peers;
        std::string label = "drop{all " + std::to_string(peers.size()) + "}";
        extra.push_back(
            CrashCase{.plan = std::move(plan), .variant = std::move(label)});
      }
    }
  }
  std::vector<CrashCase> cases = std::move(clean);
  cases.insert(cases.end(), std::make_move_iterator(extra.begin()),
               std::make_move_iterator(extra.end()));
  return cases;
}

void CrashHarness::RunCase(const RecordedRun& run, const CrashCase& c,
                           HarnessReport* report) {
  auto fail = [&](std::string why, std::uint64_t recovery_writes = 0) {
    report->results.push_back(CaseResult{.c = c,
                                         .pass = false,
                                         .failure = std::move(why),
                                         .recovery_writes = recovery_writes});
  };

  RestoreBase();
  auto fsd = std::make_unique<core::Fsd>(disk_.get(), config_);
  if (Status status = fsd->Mount(); !status.ok()) {
    fail("pre-crash mount failed: " + std::string(status.message()));
    return;
  }
  disk_->ArmCrash(c.plan);
  for (const Step& step : run.steps) {
    if (!ExecuteStep(fsd.get(), step).ok()) {
      break;
    }
  }
  if (!disk_->crashed()) {
    fail("armed crash never fired — schedule nondeterminism");
    return;
  }

  // Satellite check: cloning a crashed disk must round-trip exactly
  // (damage map + armed-crash state included).
  const sim::DeviceSnapshot crashed = disk_->SnapshotDevice();
  if (!disk_->DeviceStateEquals(crashed)) {
    fail("crashed-disk snapshot round-trip mismatch");
    return;
  }

  disk_->Reopen();
  const std::uint64_t writes_before_recovery = disk_->stats().writes;
  fsd = std::make_unique<core::Fsd>(disk_.get(), config_);
  Status mounted = fsd->Mount();
  const std::uint64_t recovery_writes =
      disk_->stats().writes - writes_before_recovery;
  std::string failure;
  if (!mounted.ok()) {
    failure = "recovery mount failed: " + std::string(mounted.message());
  } else {
    failure = VerifyRecovered(*fsd, run, c.plan.at_write_index);
  }
  report->results.push_back(CaseResult{.c = c,
                                       .pass = failure.empty(),
                                       .failure = failure,
                                       .recovery_writes = recovery_writes});
  if (!failure.empty()) {
    DumpFailure(crashed, run, report->results.back());
    return;
  }

  // Double crash: re-crash DURING the recovery just verified, at sampled
  // recovery-write indices, then recover again. Clean cuts only — they
  // already cover every schedule position, and recovery's own writes give
  // the second-crash surface.
  if (c.variant != "clean" || options_.double_crash_points == 0 ||
      recovery_writes == 0) {
    return;
  }
  std::set<std::uint64_t> points;
  if (recovery_writes <= options_.double_crash_points) {
    for (std::uint64_t r = 0; r < recovery_writes; ++r) {
      points.insert(r);
    }
  } else {
    Rng rng(options_.seed ^ (c.plan.at_write_index * 0xD1B54A32D192ED03ull));
    while (points.size() < options_.double_crash_points) {
      points.insert(rng.Below(recovery_writes));
    }
  }
  for (std::uint64_t r : points) {
    CrashCase second = c;
    second.variant = "clean +recrash@" + std::to_string(r);
    disk_->RestoreDevice(crashed);
    disk_->Reopen();
    sim::CrashPlan recrash;
    recrash.at_write_index = r;
    disk_->ArmCrash(recrash);
    fsd = std::make_unique<core::Fsd>(disk_.get(), config_);
    Status first_mount = fsd->Mount();
    std::string why;
    if (first_mount.ok() && !disk_->crashed()) {
      why = "recovery crash never fired — recovery nondeterminism";
    } else {
      const sim::DeviceSnapshot twice = disk_->SnapshotDevice();
      disk_->Reopen();
      fsd = std::make_unique<core::Fsd>(disk_.get(), config_);
      if (Status status = fsd->Mount(); !status.ok()) {
        why = "second recovery mount failed: " +
              std::string(status.message());
      } else {
        why = VerifyRecovered(*fsd, run, c.plan.at_write_index);
      }
      if (!why.empty()) {
        DumpFailure(twice, run,
                    CaseResult{.c = second, .pass = false, .failure = why});
      }
    }
    ++report->double_crash_cases;
    report->results.push_back(CaseResult{.c = std::move(second),
                                         .pass = why.empty(),
                                         .failure = std::move(why),
                                         .recovery_writes = recovery_writes});
  }
}

std::string CrashHarness::VerifyRecovered(core::Fsd& fsd,
                                          const RecordedRun& run,
                                          std::uint64_t w) {
  // 1. Structural invariants.
  Result<core::FsckReport> fsck = fsd.Fsck();
  if (!fsck.ok()) {
    return "fsck failed to run: " + std::string(fsck.status().message());
  }
  if (!fsck->Clean()) {
    std::string why = "fsck violations: ";
    std::uint32_t listed = 0;
    for (const core::FsckIssue& issue : fsck->issues) {
      if (issue.severity != core::FsckIssue::Severity::kViolation) {
        continue;
      }
      if (listed++ == 3) {
        why += "; ...";
        break;
      }
      why += (listed > 1 ? "; " : "") + issue.code + " (" + issue.detail +
             ")";
    }
    return why;
  }

  // 2. The durability oracle, asked about the step in flight at the cut
  // and the file that step was working on.
  int crash_step = static_cast<int>(run.steps.size());
  std::string casualty;
  for (std::size_t s = 0; s < run.bounds.size(); ++s) {
    if (run.bounds[s].writes_after > w) {
      crash_step = static_cast<int>(s);
      casualty = run.steps[s].name;
      break;
    }
  }
  const ForcePoint fp = run.history.ForcedBefore(crash_step);

  auto check_required = [&](const char* phase) -> std::string {
    for (const auto& [name, version] : fp.files) {
      if (name == casualty) {
        continue;  // the op in flight at the cut may have damaged its file
      }
      // A delete since the force may have committed: it explains an
      // absence, and deleting the newest version brings the one before
      // back. Otherwise the file holds what the force covered or later.
      const bool deleted = run.history.DeletedIn(name, fp.step, crash_step);
      auto got = ReadFileCrc(&fsd, name);
      if (!got.ok() && !deleted) {
        return std::string(phase) + ": forced file '" + name +
               "' unreadable: " + std::string(got.status().message());
      }
      if (got.ok() && !run.history.Wrote(name, *got,
                                         deleted ? -1 : version.step,
                                         crash_step)) {
        return std::string(phase) + ": forced file '" + name +
               "' has unacceptable content (crc " +
               std::to_string(got->first) + ", size " +
               std::to_string(got->second) + ")";
      }
    }
    return "";
  };

  if (std::string why = check_required("durability"); !why.empty()) {
    return why;
  }
  // Files not covered by the force point: allowed to be absent, but when
  // present they must hold one of the contents the workload actually wrote.
  for (const auto& [name, versions] : run.history.contents()) {
    if (fp.files.contains(name) || name == casualty) {
      continue;
    }
    auto got = ReadFileCrc(&fsd, name);
    if (!got.ok()) {
      continue;
    }
    if (!run.history.CreatedBy(name, crash_step)) {
      return "ghost file '" + name + "' exists before its create ran";
    }
    if (!run.history.Wrote(name, *got, -1, crash_step)) {
      return "uncommitted file '" + name + "' has unacceptable content";
    }
  }

  // 3. The volume still works: create-force-read a probe, then re-verify
  // the forced files — if recovery left the VAM claiming a live sector
  // free, the probe's allocation overwrites it and this catches it.
  Result<bool> probe = ProbeVolume(&fsd);
  if (!probe.ok()) {
    return std::string(probe.status().message());
  }
  if (!*probe) {
    return "probe readback corrupt";
  }
  return check_required("post-probe");
}

void CrashHarness::DumpFailure(const sim::DeviceSnapshot& crashed,
                               const RecordedRun& run,
                               const CaseResult& result) {
  if (options_.dump_dir.empty()) {
    return;
  }
  const std::string stem =
      options_.dump_dir + "/case" + std::to_string(dump_counter_++);
  disk_->RestoreDevice(crashed);
  (void)disk_->SaveImage(stem + ".img");

  std::ofstream txt(stem + ".txt");
  txt << "variant: " << result.c.variant << "\n";
  txt << "plan: " << PlanLabel(result.c.plan) << "\n";
  txt << "failure: " << result.failure << "\n";
  txt << "schedule (" << run.writes.size() << " writes):\n";
  for (std::size_t i = 0; i < run.writes.size(); ++i) {
    const ScheduleEntry& e = run.writes[i];
    txt << (i == result.c.plan.at_write_index ? " >" : "  ") << i
        << "\tlba " << e.lba << "\tx" << e.sectors << "\tbatch " << e.batch
        << "\t" << e.op << "\n";
  }
  txt << "steps:\n";
  for (std::size_t s = 0; s < run.bounds.size(); ++s) {
    txt << "  step " << s << ": writes [" << run.bounds[s].writes_before
        << ", " << run.bounds[s].writes_after << ")\n";
  }
}

}  // namespace cedar::crash
