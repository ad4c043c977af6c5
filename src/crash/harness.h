// Systematic crash-point exploration for FSD (paper sections 5.3/5.8/5.9).
//
// The paper argues FSD survives a crash at ANY instant because every
// metadata update is redone from the log and the disk's failure model is
// bounded (a torn write damages at most the last one or two transferred
// sectors). This harness checks that claim mechanically instead of
// anecdotally:
//
//   1. RECORD — run a scripted create/write/rename/delete workload once
//      against the device (a SimDisk, or a striped/mirrored DiskArray per
//      HarnessOptions::topology) with the DiskTracer attached, capturing the
//      complete write schedule: every write request's LBA, length, issuing
//      FS op, and IoScheduler batch, plus per-step write-count boundaries
//      and the History of every content, delete and completed Force().
//   2. ENUMERATE — for every write index W in the schedule, build crash
//      variants: a clean cut (write W vanishes entirely), torn prefixes
//      (1..n-1 sectors of W transferred, 0-2 damaged at the cut), and —
//      for writes inside an IoScheduler flush — batch reorders (earlier
//      same-batch writes acked but dropped, modeling device-internal
//      reordering across the power cut). Exhaustive when the variant count
//      is small; seeded deterministic sampling above max_cases.
//   3. REPLAY — per variant: restore the pristine snapshot (its clock and
//      head position included, so the replay's timestamps, and with them
//      the size of every name-table entry, match the recording), re-run the
//      workload with the crash armed, then Reopen() + Mount() recovery and
//      judge the result with Fsd::Fsck() plus the oracle: every op acked
//      by the last completed Force must be durable with acceptable
//      content; later ops may be absent but must never be corrupt; the
//      volume must still allocate correctly (probe create/read).
//      Clean-cut cases additionally re-crash DURING recovery at sampled
//      recovery-write indices (double-crash coverage).
//
// Failing cases dump the crashed disk image (SimDisk::SaveImage) and the
// recorded schedule, so a violation reproduces outside the harness.

#ifndef CEDAR_CRASH_HARNESS_H_
#define CEDAR_CRASH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/crash/workload.h"
#include "src/sim/array.h"
#include "src/sim/clock.h"
#include "src/sim/device.h"
#include "src/sim/disk.h"
#include "src/util/status.h"

namespace cedar::crash {

// What the volume sits on. Arrays extend the crash surface: member-level
// write indices let cuts land between the chunks of one striped logical
// write (torn stripe) or between the replica writes of one mirrored logical
// write (diverged replicas) — cuts a single spindle cannot produce.
enum class Topology : std::uint8_t {
  kSingle = 0,
  kStriped = 1,
  kMirrored = 2,
};

struct HarnessOptions {
  Topology topology = Topology::kSingle;
  // Array member count (ignored for kSingle).
  std::uint32_t spindles = 2;
  std::uint32_t chunk_sectors = 8;
  // Run FSD with the VAM-logging extension on (the fast-recovery path has
  // its own crash windows, so the harness covers both modes).
  bool vam_logging = false;
  // FSD page-cache frames. The default holds the whole name table; 8 (the
  // minimum) is below the standard workload's live table, so recording,
  // recovery and the VAM rebuild run under eviction.
  std::size_t cache_frames = 512;
  // Run the continuous checkpoint round (checkpoint.daemon) with the
  // smallest window Validate() allows for the harness's log and group
  // sizing, so rounds fire often. Commit stays inline, so the rounds step
  // at deterministic points and cuts land inside their batches and pointer
  // advances.
  bool checkpoint_daemon = false;
  // Cap on enumerated cases; 0 = run everything. When the cap bites, every
  // clean cut is kept and the torn/reorder variants are sampled.
  std::uint64_t max_cases = 0;
  // Every torn cut x damage combination instead of a per-write sample.
  bool exhaustive_torn = false;
  // Recovery-crash points per clean-cut case (0 disables double-crash).
  std::uint32_t double_crash_points = 2;
  std::uint64_t seed = 0x5EEDCA5Eu;
  // When nonempty, each failing case dumps <dir>/caseN.img + caseN.txt.
  std::string dump_dir;
};

// One write request of the recorded schedule.
struct ScheduleEntry {
  sim::Lba lba = 0;
  std::uint32_t sectors = 0;
  std::uint32_t batch = 0;  // IoScheduler batch id; 0 = direct issue
  std::string op;           // innermost FS op class at issue time
};

// [writes_before, writes_after) of one workload step, in schedule indices.
struct StepBound {
  std::uint64_t writes_before = 0;
  std::uint64_t writes_after = 0;
};

struct RecordedRun {
  std::vector<Step> steps;
  std::vector<ScheduleEntry> writes;
  std::vector<StepBound> bounds;  // parallel to steps
  History history;                // what the steps did: the oracle
  // FSD's metrics registry at the end of the recording (e.g. how many
  // checkpoint batches the schedule holds).
  obs::MetricsSnapshot metrics;
};

struct CrashCase {
  sim::CrashPlan plan;
  std::string variant;  // "clean", "torn c=3 d=1", "drop{12}", "+recrash@5"
};

struct CaseResult {
  CrashCase c;
  bool pass = false;
  std::string failure;  // first failed check, empty when pass
  std::uint64_t recovery_writes = 0;
};

struct HarnessReport {
  RecordedRun run;
  std::uint64_t enumerated = 0;  // variant count before the max_cases cap
  std::uint64_t double_crash_cases = 0;
  std::vector<CaseResult> results;

  std::uint64_t passed() const {
    std::uint64_t n = 0;
    for (const CaseResult& r : results) n += r.pass ? 1 : 0;
    return n;
  }
  std::uint64_t failed() const { return results.size() - passed(); }
  bool AllPassed() const { return failed() == 0; }
};

class CrashHarness {
 public:
  explicit CrashHarness(HarnessOptions options);
  ~CrashHarness();

  // Records the schedule, enumerates crash cases, replays each, and returns
  // the full report. Deterministic for fixed options.
  Result<HarnessReport> Run();

  // After Run(): re-runs the workload from the base snapshot with no crash
  // armed and returns the writes it issued. Every crash case relies on this
  // matching the recorded schedule entry for entry.
  Result<std::vector<ScheduleEntry>> ReplaySchedule() {
    CEDAR_ASSIGN_OR_RETURN(RecordedRun again, Record());
    return std::move(again.writes);
  }

  // The FSD configuration the harness uses (small log so the schedule
  // crosses log thirds; exposed for tests that pin schedules).
  static core::FsdConfig FsdConfigFor(bool vam_logging);

 private:
  // Restores the base image together with its clocks and head positions,
  // so every run from it (the recording and each case) stamps the same
  // times.
  void RestoreBase();
  Result<RecordedRun> Record();
  std::vector<CrashCase> Enumerate(const RecordedRun& run) const;
  // Replays one case (and, for clean cuts, its double-crash children),
  // appending results to `report`.
  void RunCase(const RecordedRun& run, const CrashCase& c,
               HarnessReport* report);
  // "" on pass, else the first failed check. `w` is the crash write index.
  std::string VerifyRecovered(core::Fsd& fsd, const RecordedRun& run,
                              std::uint64_t w);
  void DumpFailure(const sim::DeviceSnapshot& crashed, const RecordedRun& run,
                   const CaseResult& result);

  HarnessOptions options_;
  core::FsdConfig config_;
  std::unique_ptr<sim::VirtualClock> clock_;
  std::unique_ptr<sim::BlockDevice> disk_;
  // disk_ as its concrete type (exactly one is set): rewinding the clocks
  // is not part of the BlockDevice interface.
  sim::SimDisk* single_ = nullptr;
  sim::DiskArray* array_ = nullptr;
  sim::DeviceSnapshot base_;
  std::uint64_t dump_counter_ = 0;
};

}  // namespace cedar::crash

#endif  // CEDAR_CRASH_HARNESS_H_
