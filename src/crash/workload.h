// The scripted workload driven by the crash harness and the fault
// campaign, and the History both judge a recovered volume by.
//
// The harness needs a DETERMINISTIC op sequence: the recording run and
// every crash replay must issue bit-identical disk schedules, so the
// workload is a fixed list of steps rather than a random generator. The
// standard script exercises the paper's operation mix — create, in-place
// write, version replacement (Cedar's "rename": create version v+1 with
// keep=1 so the old version is pruned), delete, touch — with explicit
// Force() steps marking the durability boundaries the oracle reasons
// about, and a final orderly Shutdown whose home-flush batch gives the
// reorder enumerator a big IoScheduler batch to cut.

#ifndef CEDAR_CRASH_WORKLOAD_H_
#define CEDAR_CRASH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/layout.h"
#include "src/fsapi/file_system.h"
#include "src/sim/device.h"
#include "src/util/status.h"

namespace cedar::crash {

struct Step {
  enum class Kind : std::uint8_t {
    kCreate,     // CreateFile(name, data) — a new highest version
    kSetKeep,    // SetKeep(name, keep)
    kOverwrite,  // Open + Write(offset, data) + Close
    kDelete,     // DeleteFile(name)
    kTouch,      // Touch(name)
    kForce,       // Force() — a durability boundary for the oracle
    kCheckpoint,  // Checkpoint() — writes logged pages home and advances
                  // the recovery pointer; changes no file contents, so the
                  // oracle treats it like kForce minus the durability edge
    kShutdown,    // orderly Shutdown (final step only)
  };
  Kind kind = Kind::kForce;
  std::string name;
  std::uint16_t keep = 0;
  std::uint64_t offset = 0;
  std::vector<std::uint8_t> data;
};

// Deterministic content bytes (same pattern everywhere in the harness).
std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed);

// The standard create/write/rename/delete script described above.
std::vector<Step> StandardWorkload();

// Executes one step against a file system, returning the first error.
Status ExecuteStep(fs::FileSystem* fs, const Step& step);

// A pristine, cleanly shut down volume holding only the baseline file
// (1500 bytes named "base"): the image every crash case and every fault
// case starts from.
Status FormatBaseVolume(sim::BlockDevice* device,
                        const core::FsdConfig& config);

// A whole file read back: its CRC and size, what the oracle compares.
using FileCrc = std::pair<std::uint32_t, std::uint64_t>;
Result<FileCrc> ReadFileCrc(fs::FileSystem* file_system,
                            const std::string& name);

// The volume still works: create, force and read back a probe file. An
// error keeps the failing call's code and names the call; false means the
// probe read back with other bytes than were written.
Result<bool> ProbeVolume(fs::FileSystem* file_system);

// One content a file held, tagged with the step that wrote it (-1 = the
// baseline, written before the workload).
struct ContentVersion {
  int step = -1;
  std::uint32_t crc = 0;
  std::uint64_t size = 0;
};

// A completed Force() or Shutdown: every file it acked as durable, at the
// content it held then. History::ForcedBefore derives it when asked.
struct ForcePoint {
  int step = -1;
  std::map<std::string, ContentVersion> files;
};

// What the workload's successful steps did: the durability oracle the
// crash harness and the fault campaign both judge a volume by. Data writes
// are synchronous and metadata commits at forces, so after a crash inside
// step S any prefix of the steps is an acceptable world: a file must hold
// some content written by step <= S, and every file the last completed
// force covered must survive, at that content or a later one, unless a
// later delete explains its absence.
class History {
 public:
  // Starts with the baseline file, durable at step -1.
  History();

  // Records step `s`, which succeeded: mirrors what ExecuteStep did.
  // Returns whether the step changed a file (a create, overwrite or
  // delete).
  bool Apply(int s, const Step& step);

  // Whether an overwrite step lands inside its file's current content.
  bool Fits(const Step& step) const;

  // Was `content` a content of `name` written at a step in [from, upto]?
  bool Wrote(const std::string& name, const FileCrc& content, int from,
             int upto) const;
  // Did a delete of `name` run at a step in (after, upto]?
  bool DeletedIn(const std::string& name, int after, int upto) const;
  // Was `name` created by step <= upto?
  bool CreatedBy(const std::string& name, int upto) const;
  // The last force point completed before step `s` began: it covers every
  // write issued before step s (the baseline when no force did).
  ForcePoint ForcedBefore(int s) const;

  // Every name the workload wrote, with its contents in step order.
  const std::map<std::string, std::vector<ContentVersion>>& contents()
      const {
    return contents_;
  }

 private:
  std::map<std::string, std::vector<std::uint8_t>> files_;  // current bytes
  std::map<std::string, std::vector<ContentVersion>> contents_;
  std::map<std::string, std::vector<int>> deletes_;
  std::vector<int> forces_;  // steps of the completed forces
};

}  // namespace cedar::crash

#endif  // CEDAR_CRASH_WORKLOAD_H_
