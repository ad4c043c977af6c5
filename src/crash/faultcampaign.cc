#include "src/crash/faultcampaign.h"

#include <fstream>
#include <optional>
#include <set>
#include <utility>

#include "src/crash/harness.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace cedar::crash {
namespace {

// Error codes that carry attribution: they name the damaged resource (an
// LBA span, a checksum site, an exhausted spare pool) in their message, so
// a loss surfaced through them is "reported", not silent. Anything else —
// kInternal, kInvalidArgument, kDeviceCrashed on a crashless run — means
// the fault escaped the media-error handling into generic failure, which
// the campaign treats as a bug.
bool AttributedCode(ErrorCode code) {
  switch (code) {
    case ErrorCode::kSectorDamaged:
    case ErrorCode::kReadTransient:
    case ErrorCode::kCorruptMetadata:
    case ErrorCode::kLabelMismatch:
    case ErrorCode::kNoFreeSpace:
    case ErrorCode::kNotFound:
      return true;
    default:
      return false;
  }
}

const char* FaultModeName(sim::FaultMode mode) {
  switch (mode) {
    case sim::FaultMode::kReadFail:
      return "read-fail";
    case sim::FaultMode::kWriteFail:
      return "write-fail";
    case sim::FaultMode::kDead:
      return "dead";
  }
  return "?";
}

}  // namespace

const char* FaultClassName(FaultClass c) {
  switch (c) {
    case FaultClass::kPersistent:
      return "persistent";
    case FaultClass::kWriteFault:
      return "write-fault";
    case FaultClass::kCorruption:
      return "corruption";
    case FaultClass::kMixed:
      return "mixed";
  }
  return "?";
}

FaultCampaign::FaultCampaign(CampaignOptions options)
    : options_(std::move(options)),
      config_(CrashHarness::FsdConfigFor(false)) {}

FaultCampaign::~FaultCampaign() = default;

Result<CampaignReport> FaultCampaign::Run() {
  clock_ = std::make_unique<sim::VirtualClock>();
  disk_ = std::make_unique<sim::SimDisk>(sim::TestGeometry(),
                                         sim::DiskTimingParams{},
                                         clock_.get());
  // A pristine, cleanly-shut-down volume with one baseline file; every
  // case replays from this exact image (the snapshot carries the — empty —
  // fault state too, so cases cannot leak faults into each other).
  CEDAR_RETURN_IF_ERROR(FormatBaseVolume(disk_.get(), config_));
  base_ = disk_->Snapshot();
  {
    // On a private clock and disk, so the cases run exactly as they would
    // without this pass.
    sim::VirtualClock clock;
    sim::SimDisk disk(disk_->geometry(), sim::DiskTimingParams{}, &clock);
    disk.Restore(base_);
    core::Fsd fsd(&disk, config_);
    CEDAR_RETURN_IF_ERROR(fsd.Mount());
    for (const workload::TraceEntry& step : StandardWorkload()) {
      CEDAR_RETURN_IF_ERROR(ApplyStep(&fsd, step));
    }
    const core::FsdLayout& layout = fsd.layout();
    live_data_.clear();
    for (sim::Lba lba = layout.data_low; lba < layout.data_high; ++lba) {
      if (!layout.InMetadataComplex(lba) && fsd.SectorInUse(lba)) {
        live_data_.push_back(lba);
      }
    }
    CEDAR_CHECK(!live_data_.empty());
  }

  std::vector<FaultClass> classes = options_.classes;
  if (classes.empty()) {
    classes = {FaultClass::kPersistent, FaultClass::kWriteFault,
               FaultClass::kCorruption, FaultClass::kMixed};
  }
  CampaignReport report;
  for (FaultClass c : classes) {
    for (std::uint64_t s = 0; s < options_.seeds; ++s) {
      report.results.push_back(RunCase(c, options_.seed_base + s));
      if (!report.results.back().pass) {
        DumpFailure(report.results.back());
      }
    }
  }
  return report;
}

CampaignCase FaultCampaign::RunCase(FaultClass fault_class,
                                    std::uint64_t seed) {
  CampaignCase result;
  result.fault_class = fault_class;
  result.seed = seed;
  auto fail = [&](std::string why) {
    if (result.failure.empty()) {
      result.failure = std::move(why);
    }
  };

  // The image and its timeline: every case starts at the base's clock and
  // head position, so a case's outcome does not depend on the cases before.
  disk_->Restore(base_);
  disk_->RestoreTimeline(base_);
  Rng rng((seed + 1) * 0x9E3779B97F4A7C15ull ^
          (static_cast<std::uint64_t>(fault_class) << 56));
  const core::FsdLayout layout =
      core::FsdLayout::Compute(disk_->geometry(), config_);

  // One live-sibling guarantee: targeted silent faults (lying writes, bit
  // rot) never hit both home copies of the same name-table page, and at
  // most one volume-root copy — FSD's redundancy is two copies, so a
  // double hit is loss by construction, not a detection failure. Loud
  // persistent faults share the same guard so a seed cannot synthesize an
  // unrepairable page and muddy the campaign's 0-violation expectation.
  std::set<std::uint32_t> nt_pids_hit;
  bool root_hit = false;
  std::vector<sim::Lba> data_lbas;
  auto note_injection = [&](const std::string& line) {
    ++result.injected;
    result.injection_log.push_back(line);
  };

  // A targeted metadata sector under that guard: the primary (where 0) or
  // replica (1) home of one of the first `pids` name-table pages, or (2)
  // one root copy; nullopt when the guard refuses it.
  using Target = std::optional<std::pair<sim::Lba, const char*>>;
  auto pick_metadata = [&](int where, std::uint64_t pids) -> Target {
    if (where == 2) {
      if (root_hit) {
        return std::nullopt;
      }
      root_hit = true;
      return std::pair{layout.root_lba + (rng.Below(2) != 0 ? 2 : 0), "root"};
    }
    const auto pid = static_cast<std::uint32_t>(rng.Below(pids));
    if (!nt_pids_hit.insert(pid).second) {
      return std::nullopt;
    }
    return where == 0
               ? std::pair{layout.NtHome(core::FsdLayout::kPrimary, pid),
                           "nt-primary"}
               : std::pair{layout.NtHome(core::FsdLayout::kReplica, pid),
                           "nt-replica"};
  };
  // Two draws in five hit a primary home, two a replica, one a root copy.
  auto where_of = [](std::uint64_t draw) {
    return draw <= 1 ? 0 : draw <= 3 ? 1 : 2;
  };

  auto inject_persistent = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const std::uint64_t kind = rng.Below(6);
      sim::FaultMode mode =
          static_cast<sim::FaultMode>(1 + rng.Below(3));
      Target target;
      if (kind <= 2) {  // a name-table home (live pages are low pids)
        target = pick_metadata(kind <= 1 ? 0 : 1, 4);
      } else if (kind == 3) {  // a file sector (data or leader)
        const sim::Lba lba = live_data_[rng.Below(live_data_.size())];
        data_lbas.push_back(lba);
        target = std::pair{lba, "data"};
      } else if (kind == 4) {  // log record area (skip the pointer pair)
        target = std::pair{
            layout.log_base + 4 + rng.Below(config_.log_sectors - 4), "log"};
      } else {  // one root copy; read-fail only (the next root write heals)
        target = pick_metadata(2, 0);
        mode = sim::FaultMode::kReadFail;
      }
      if (!target) {
        continue;
      }
      disk_->InjectPersistentFault(target->first, mode);
      note_injection("persistent " + std::string(FaultModeName(mode)) +
                     " on " + target->second + " lba " +
                     std::to_string(target->first));
    }
  };

  auto inject_write_faults = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const sim::WriteFaultKind kind = rng.Below(2) != 0
                                           ? sim::WriteFaultKind::kTorn
                                           : sim::WriteFaultKind::kDropped;
      const Target target = pick_metadata(where_of(rng.Below(5)), 4);
      if (!target) {
        continue;
      }
      disk_->InjectWriteFault(target->first, kind);
      note_injection(std::string("write-fault ") +
                     (kind == sim::WriteFaultKind::kTorn ? "torn"
                                                         : "dropped") +
                     " on " + target->second + " lba " +
                     std::to_string(target->first));
    }
  };

  auto inject_corruption = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const Target target = pick_metadata(where_of(rng.Below(5)), 3);
      if (!target) {
        continue;
      }
      disk_->CorruptSector(target->first, rng.Next());
      note_injection("bit rot on " + std::string(target->second) + " lba " +
                     std::to_string(target->first));
    }
  };

  // ---- Pre-workload mount (no faults yet) and injection.
  auto fsd = std::make_unique<core::Fsd>(disk_.get(), config_);
  if (Status s = fsd->Mount(); !s.ok()) {
    fail("pre-fault mount failed: " + std::string(s.message()));
    return result;
  }
  switch (fault_class) {
    case FaultClass::kPersistent:
      inject_persistent(1 + static_cast<int>(rng.Below(3)));
      break;
    case FaultClass::kWriteFault:
      inject_write_faults(1 + static_cast<int>(rng.Below(3)));
      break;
    case FaultClass::kCorruption:
      break;  // planted after the clean shutdown below
    case FaultClass::kMixed: {
      inject_persistent(1);
      inject_write_faults(1);
      sim::FaultSchedule schedule;
      schedule.seed = seed;
      schedule.persistent_ppm = 3000;
      schedule.max_events = 2;
      disk_->SetFaultSchedule(schedule);
      result.injection_log.push_back(
          "schedule persistent_ppm=3000 max_events=2");
      break;
    }
  }

  // ---- The workload, with the durability oracle alongside. Steps may
  // fail under injected faults — that is the contract working (the client
  // was told) — but only with an attributed error code, and a failed step
  // marks its file "suspect": its on-disk bytes are whatever the partial
  // op left, so content checks don't apply until a later op succeeds.
  const std::vector<workload::TraceEntry> steps = StandardWorkload();
  History history;
  std::set<std::string> suspects;

  for (std::size_t s = 0; s < steps.size(); ++s) {
    const workload::TraceEntry& step = steps[s];
    Status st = ApplyStep(fsd.get(), step);
    if (!st.ok()) {
      // A failure on an already-suspect file is the cascade of an
      // attributed one: the History is unchanged and the file stays as
      // known. Anything else must carry attribution. (A write clamps to
      // the file's current size, so one on a surviving older version
      // lands, and the History records what it wrote.)
      if (suspects.contains(step.name)) {
        continue;
      }
      if (!AttributedCode(st.code())) {
        fail("step " + std::to_string(s) + " failed unattributed (" +
             std::string(st.message()) + ")");
        return result;
      }
      if (!step.name.empty()) {
        suspects.insert(step.name);
      }
      continue;
    }
    if (history.Apply(static_cast<int>(s), step)) {
      suspects.erase(step.name);
    }
  }
  result.data_faults = data_lbas.size();
  for (const sim::Lba lba : data_lbas) {
    result.data_faults_on_files += fsd->SectorInUse(lba) ? 1 : 0;
  }
  (void)fsd->Shutdown();  // no-op when the workload's shutdown succeeded
  // Healing done by THIS instance (e.g. a checkpoint write remapped to a
  // spare) lives in its counters; fold it into the case's health so the
  // campaign report sees repairs wherever they happened.
  const fs::HealthStats workload_health = fsd->Health();
  fsd.reset();
  if (disk_->crashed()) {
    fail("disk entered crashed state on a crashless campaign run");
    return result;
  }

  // ---- Post-shutdown bit rot: planted on quiescent home copies, so the
  // remount's preload election is what must catch it.
  if (fault_class == FaultClass::kCorruption) {
    inject_corruption(2 + static_cast<int>(rng.Below(3)));
  } else if (fault_class == FaultClass::kMixed) {
    inject_corruption(1 + static_cast<int>(rng.Below(2)));
  }
  result.fault_events = disk_->fault_events();

  // ---- Remount: normal mount, falling back to the degraded read-only
  // mount when damage defeats it (which must itself be attributed).
  auto after = std::make_unique<core::Fsd>(disk_.get(), config_);
  if (Status m = after->Mount(); !m.ok()) {
    if (!AttributedCode(m.code())) {
      fail("recovery mount failed unattributed: " +
           std::string(m.message()));
      return result;
    }
    if (Status dm = after->MountDegraded(); !dm.ok()) {
      fail("degraded mount failed: " + std::string(dm.message()));
      return result;
    }
    result.degraded = true;
  }

  // ---- Repair pass + invariant audit.
  if (!result.degraded) {
    auto scrub = after->Scrub();
    if (!scrub.ok()) {
      fail("scrub failed: " + std::string(scrub.status().message()));
      return result;
    }
    result.scrub = *scrub;
  }
  auto fsck = after->Fsck();
  if (!fsck.ok()) {
    fail("fsck failed to run: " + std::string(fsck.status().message()));
    return result;
  }
  std::string first_violation;
  for (const core::FsckIssue& issue : fsck->issues) {
    if (issue.severity == core::FsckIssue::Severity::kViolation) {
      ++result.fsck_violations;
      if (first_violation.empty()) {
        first_violation = issue.code + " (" + issue.detail + ")";
      }
    }
  }
  result.health = after->Health();
  result.health.repairs += workload_health.repairs;
  result.health.remaps += workload_health.remaps;
  result.health.corruption_detected += workload_health.corruption_detected;
  result.health.read_retry_exhausted += workload_health.read_retry_exhausted;
  result.health.nt_pages_lost += workload_health.nt_pages_lost;
  result.health.unrepairable += workload_health.unrepairable;
  result.health.notes.insert(result.health.notes.end(),
                             workload_health.notes.begin(),
                             workload_health.notes.end());
  if (result.fsck_violations > 0 && result.health.unrepairable == 0) {
    fail("fsck violation without health attribution: " + first_violation);
  }
  if (result.degraded) {
    if (!result.health.degraded || result.health.notes.empty()) {
      fail("degraded mount carries no attribution notes");
    }
    if (after->CreateFile("zz.blocked", {}).status().code() !=
        ErrorCode::kFailedPrecondition) {
      fail("degraded (read-only) volume accepted a write");
    }
  }

  // ---- The media contract, file by file.
  JudgeFiles(after.get(), history, static_cast<int>(steps.size()), suspects,
             &result);

  // ---- The volume still works (writable mounts only): create-force-read
  // a probe. Attributed write failures are tolerated (a dead log or spare
  // exhaustion is reported damage, not silence); a lying readback is not.
  if (!result.degraded) {
    Result<bool> probe = ProbeVolume(after.get());
    if (!probe.ok() && !AttributedCode(probe.status().code())) {
      fail(std::string(probe.status().message()) + " (unattributed)");
    } else if (probe.ok() && !*probe) {
      ++result.escapes;
      fail("probe readback corrupt");
    }
  }

  result.pass = result.failure.empty();
  return result;
}

void FaultCampaign::JudgeFiles(fs::FileSystem* file_system,
                               const History& history, int end,
                               const std::set<std::string>& suspects,
                               CampaignCase* result) {
  auto fail = [&](std::string why) {
    if (result->failure.empty()) {
      result->failure = std::move(why);
    }
  };
  // OK reads must match SOME content the workload actually wrote; errors
  // must be attributed; an acked file may be lost only with attribution.
  const ForcePoint acked = history.ForcedBefore(end);
  for (const auto& [name, versions] : history.contents()) {
    // A file the last force acked and no later step touched must hold
    // that content or a later one; a rollback is as silent as a bad byte.
    const bool acked_live = acked.files.contains(name) &&
                            !history.DeletedIn(name, acked.step, end) &&
                            !suspects.contains(name);
    auto got = ReadFileCrc(file_system, name);
    if (!got.ok()) {
      const ErrorCode code = got.status().code();
      if (!AttributedCode(code)) {
        fail("file '" + name + "' unreadable with unattributed error: " +
             std::string(got.status().message()));
        continue;
      }
      if (acked_live) {
        if (code == ErrorCode::kNotFound &&
            result->health.unrepairable == 0) {
          fail("acked file '" + name + "' vanished without attribution");
          continue;
        }
        ++result->attributed_losses;
      }
      continue;
    }
    const int from = acked_live ? acked.files.at(name).step : -1;
    if (!history.Wrote(name, *got, from, end) && !suspects.contains(name)) {
      ++result->escapes;
      fail("SILENT CORRUPTION: '" + name +
           "' reads OK with content never written or older than its ack "
           "(crc " + std::to_string(got->first) + ", size " +
           std::to_string(got->second) + ")");
    }
  }
}

void FaultCampaign::DumpFailure(const CampaignCase& result) {
  if (options_.dump_dir.empty()) {
    return;
  }
  const std::string stem =
      options_.dump_dir + "/fault" + std::to_string(dump_counter_++);
  (void)disk_->SaveImage(stem + ".img");
  std::ofstream txt(stem + ".txt");
  txt << "class: " << FaultClassName(result.fault_class) << "\n";
  txt << "seed: " << result.seed << "\n";
  txt << "failure: " << result.failure << "\n";
  txt << "injections (" << result.injection_log.size() << "):\n";
  for (const std::string& line : result.injection_log) {
    txt << "  " << line << "\n";
  }
  for (const std::string& note : result.health.notes) {
    txt << "health: " << note << "\n";
  }
}

}  // namespace cedar::crash
