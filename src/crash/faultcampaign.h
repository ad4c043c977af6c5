// Seeded media-fault campaigns for FSD (DESIGN.md section 4h).
//
// The crash harness answers "does recovery survive a power cut at any
// write?"; this harness answers the sibling question: "does the volume
// survive a *lying or dying medium*?" Each campaign case restores a
// pristine volume, injects one fault class under a per-seed RNG, runs the
// standard workload, remounts, scrubs, and judges the outcome against the
// media contract:
//
//   every acked-and-forced byte SURVIVES (possibly healed from the replica
//   or remapped to a spare), or is REPORTED — an attributed error on the
//   access path, or degraded-mount attribution in Health().notes. A read
//   that returns OK with bytes matching no content the workload ever wrote
//   is a SILENT-CORRUPTION ESCAPE and fails the campaign.
//
// Fault classes (see sim::FaultMode / sim::WriteFaultKind):
//
//   persistent  — grown defects (read-fail / write-fail / dead) injected
//                 before the workload at seeded LBAs across the name-table
//                 homes, the sectors the workload's files occupy, and the
//                 log region.
//   write-fault — one-shot lying writes (acked but dropped or torn) armed
//                 on name-table home sectors; they fire during checkpoint
//                 or shutdown flushes and must be caught by the CRC/seq
//                 trailer on the next read or scrub.
//   corruption  — bit rot planted after a clean shutdown on name-table
//                 home copies and the volume-root replica; the remount's
//                 preload election must detect and heal every hit.
//   mixed       — all of the above at once, plus a background
//                 sim::FaultSchedule growing defects under the workload's
//                 own writes.
//
// Scope note (paper fidelity): file DATA pages carry no checksum, exactly
// like the 1987 system, so bit rot or torn lying writes aimed at data
// sectors are undetectable by design. The campaign therefore aims silent
// fault classes at the metadata FSD does protect (CRC-trailered name-table
// homes, cross-checked leaders, the CRC'd root); loud faults (persistent
// defects) are fair game anywhere because they surface as attributed
// errors. EXPERIMENTS.md discusses the boundary.

#ifndef CEDAR_CRASH_FAULTCAMPAIGN_H_
#define CEDAR_CRASH_FAULTCAMPAIGN_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/crash/workload.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/status.h"

namespace cedar::crash {

enum class FaultClass : std::uint8_t {
  kPersistent = 0,
  kWriteFault = 1,
  kCorruption = 2,
  kMixed = 3,
};

const char* FaultClassName(FaultClass c);

struct CampaignOptions {
  // Seeds per fault class; seed values are seed_base..seed_base+seeds-1.
  std::uint64_t seeds = 64;
  std::uint64_t seed_base = 1;
  // Classes to run; empty = all four.
  std::vector<FaultClass> classes;
  // When nonempty, each failing case dumps <dir>/faultN.img + faultN.txt.
  std::string dump_dir;
};

// Outcome of one (class, seed) case.
struct CampaignCase {
  FaultClass fault_class = FaultClass::kPersistent;
  std::uint64_t seed = 0;
  bool pass = false;
  std::string failure;  // first failed check, empty when pass

  // What the case observed.
  std::uint64_t injected = 0;           // targeted faults planted
  std::uint64_t fault_events = 0;       // schedule events fired (mixed)
  bool degraded = false;                // ended in a degraded mount
  std::uint64_t attributed_losses = 0;  // acked reads lost WITH attribution
  std::uint64_t escapes = 0;            // silent-corruption escapes (fatal)
  std::uint64_t fsck_violations = 0;
  // Persistent faults aimed at file sectors, and how many of them sit in
  // sectors allocated to a file when the workload ends.
  std::uint64_t data_faults = 0;
  std::uint64_t data_faults_on_files = 0;
  fs::HealthStats health;               // post-verification snapshot
  core::Fsd::ScrubReport scrub;         // zeros when the mount was degraded
  std::vector<std::string> injection_log;  // one line per planted fault
};

struct CampaignReport {
  std::vector<CampaignCase> results;

  std::uint64_t passed() const {
    std::uint64_t n = 0;
    for (const CampaignCase& r : results) n += r.pass ? 1 : 0;
    return n;
  }
  std::uint64_t failed() const { return results.size() - passed(); }
  bool AllPassed() const { return failed() == 0; }
};

class FaultCampaign {
 public:
  explicit FaultCampaign(CampaignOptions options);
  ~FaultCampaign();

  // Runs every (class, seed) case and returns the full report.
  // Deterministic for fixed options.
  Result<CampaignReport> Run();

  // The media contract, file by file, on the remounted volume of a case
  // whose workload ran `end` steps: a file the last force acked must hold
  // that content or a later one, or be lost with attribution; any other
  // file that reads must hold content the workload wrote; a file in
  // `suspects` (its last step failed attributed) may hold anything. Counts
  // attributed losses and escapes into `result` and keeps its first
  // failure.
  static void JudgeFiles(fs::FileSystem* file_system, const History& history,
                         int end, const std::set<std::string>& suspects,
                         CampaignCase* result);

 private:
  CampaignCase RunCase(FaultClass fault_class, std::uint64_t seed);
  void DumpFailure(const CampaignCase& result);

  CampaignOptions options_;
  core::FsdConfig config_;
  std::unique_ptr<sim::VirtualClock> clock_;
  std::unique_ptr<sim::SimDisk> disk_;
  sim::DiskSnapshot base_;
  // Sectors outside the metadata complex that the standard workload's
  // files occupy when it ends on a fault-free copy of base_: the "data"
  // target of the persistent fault class.
  std::vector<sim::Lba> live_data_;
  std::uint64_t dump_counter_ = 0;
};

}  // namespace cedar::crash

#endif  // CEDAR_CRASH_FAULTCAMPAIGN_H_
