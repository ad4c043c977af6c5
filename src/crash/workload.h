// The scripted workload driven by the crash harness and the fault
// campaign, and the History both judge a recovered volume by.
//
// The harness needs a DETERMINISTIC op sequence: the recording run and
// every crash replay must issue bit-identical disk schedules, so the
// workload is a fixed trace rather than a random generator. Each entry is
// one step, written in the workload engine's vocabulary
// (workload::TraceEntry) and run through workload::ApplyTraceOp. The
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
#include "src/workload/trace.h"

namespace cedar::crash {

// The standard create/write/rename/delete script described above. An
// in-place overwrite is a kWrite followed by a kClose of the same name:
// Fsd::Close drops the file's leader-verified bit, and without it the
// file's later leader writes would not be those of an open-write-close.
std::vector<workload::TraceEntry> StandardWorkload();

// Runs one step through workload::ApplyTraceOp. A kNotFound the replayer
// would tolerate (an open, write, delete or touch of an absent name) fails
// the step here with kNotFound: the oracle must see every miss. The
// scripts hold no think time, so kAdvance does nothing.
Status ApplyStep(fs::FileSystem* file_system,
                 const workload::TraceEntry& step);

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

  // Records step `s`, which succeeded: mirrors what ApplyStep did, a write
  // clamped to the file's current size included. Returns whether the step
  // changed a file (a create, a write that landed, or a delete).
  bool Apply(int s, const workload::TraceEntry& step);

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
