#include "src/crash/faultcampaign.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <utility>

#include "src/crash/harness.h"
#include "src/util/check.h"
#include "src/util/crc32.h"
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
  {
    core::Fsd fsd(disk_.get(), config_);
    CEDAR_RETURN_IF_ERROR(fsd.Format());
    CEDAR_RETURN_IF_ERROR(
        fsd.CreateFile("base", Pattern(kBaselineBytes, kBaselineSeed))
            .status());
    CEDAR_RETURN_IF_ERROR(fsd.Shutdown());
  }
  base_ = disk_->Snapshot();
  {
    // On a private clock and disk, so the cases run exactly as they would
    // without this pass.
    sim::VirtualClock clock;
    sim::SimDisk disk(disk_->geometry(), sim::DiskTimingParams{}, &clock);
    disk.Restore(base_);
    core::Fsd fsd(&disk, config_);
    CEDAR_RETURN_IF_ERROR(fsd.Mount());
    for (const Step& step : StandardWorkload()) {
      CEDAR_RETURN_IF_ERROR(ExecuteStep(&fsd, step));
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
  const std::vector<Step> steps = StandardWorkload();
  FileModel model;
  model.files["base"] = Pattern(kBaselineBytes, kBaselineSeed);
  std::map<std::string, std::vector<ContentVersion>> history;
  history["base"].push_back(VersionOf(-1, model.files["base"]));
  std::map<std::string, ContentVersion> acked = {
      {"base", history["base"].back()}};
  int ack_step = -1;
  std::map<std::string, std::vector<int>> delete_steps;
  std::set<std::string> suspects;

  for (std::size_t s = 0; s < steps.size(); ++s) {
    const Step& step = steps[s];
    Status st = ExecuteStep(fsd.get(), step);
    if (!st.ok()) {
      // The workload script is written for the fault-free trajectory;
      // once an attributed failure dropped a version, later steps can fail
      // in ways the MODEL itself predicts (an overwrite running off the
      // end of the surviving older version, an op on a never-created
      // name). Such failures are consistent behavior, not damage. The
      // same goes for any failure on an already-suspect file — that
      // cascade was attributed when the first step failed. Anything else
      // must carry attribution.
      bool expected = !step.name.empty() && suspects.contains(step.name);
      if (!expected && step.kind == Step::Kind::kOverwrite) {
        auto it = model.files.find(step.name);
        expected = it == model.files.end() ||
                   step.offset + step.data.size() > it->second.size();
      }
      if (expected) {
        continue;  // model state unchanged; the file stays as known
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
    model.Apply(step);
    switch (step.kind) {
      case Step::Kind::kCreate:
      case Step::Kind::kOverwrite:
        history[step.name].push_back(
            VersionOf(static_cast<int>(s), model.files.at(step.name)));
        suspects.erase(step.name);
        break;
      case Step::Kind::kDelete:
        delete_steps[step.name].push_back(static_cast<int>(s));
        suspects.erase(step.name);
        break;
      case Step::Kind::kForce:
      case Step::Kind::kShutdown:
        ack_step = static_cast<int>(s);
        acked.clear();
        for (const auto& [name, bytes] : model.files) {
          acked[name] = history.at(name).back();
        }
        break;
      default:
        break;
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

  // ---- The media contract, file by file. OK reads must match SOME
  // content the workload actually wrote; errors must be attributed; an
  // acked file may be lost only with attribution.
  auto acceptable = [&](const std::string& name, std::uint32_t crc,
                        std::uint64_t size) {
    auto it = history.find(name);
    if (it == history.end()) {
      return false;
    }
    return std::any_of(it->second.begin(), it->second.end(),
                       [&](const ContentVersion& v) {
                         return v.crc == crc && v.size == size;
                       });
  };
  auto deleted_after_ack = [&](const std::string& name) {
    auto it = delete_steps.find(name);
    if (it == delete_steps.end()) {
      return false;
    }
    return std::any_of(it->second.begin(), it->second.end(),
                       [&](int d) { return d > ack_step; });
  };
  for (const auto& [name, versions] : history) {
    auto got = ReadFileCrc(after.get(), name);
    if (!got.ok()) {
      const ErrorCode code = got.status().code();
      if (!AttributedCode(code)) {
        fail("file '" + name + "' unreadable with unattributed error: " +
             std::string(got.status().message()));
        continue;
      }
      if (acked.contains(name) && !deleted_after_ack(name) &&
          !suspects.contains(name)) {
        if (code == ErrorCode::kNotFound &&
            result.health.unrepairable == 0) {
          fail("acked file '" + name + "' vanished without attribution");
          continue;
        }
        ++result.attributed_losses;
      }
      continue;
    }
    if (!acceptable(name, got->first, got->second) &&
        !suspects.contains(name)) {
      ++result.escapes;
      fail("SILENT CORRUPTION: '" + name +
           "' reads OK with content the workload never wrote (crc " +
           std::to_string(got->first) + ", size " +
           std::to_string(got->second) + ")");
    }
  }

  // ---- The volume still works (writable mounts only): create-force-read
  // a probe. Attributed write failures are tolerated (a dead log or spare
  // exhaustion is reported damage, not silence); a lying readback is not.
  if (!result.degraded) {
    const std::vector<std::uint8_t> probe = Pattern(1400, 77);
    Status created = after->CreateFile("zz.probe", probe).status();
    if (created.ok()) {
      created = after->Force();
    }
    if (created.ok()) {
      auto got = ReadFileCrc(after.get(), "zz.probe");
      if (!got.ok()) {
        if (!AttributedCode(got.status().code())) {
          fail("probe readback failed unattributed: " +
               std::string(got.status().message()));
        }
      } else if (got->first != Crc32(probe) ||
                 got->second != probe.size()) {
        ++result.escapes;
        fail("probe readback corrupt");
      }
    } else if (!AttributedCode(created.code())) {
      fail("probe create/force failed unattributed: " +
           std::string(created.message()));
    }
  }

  result.pass = result.failure.empty();
  return result;
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
