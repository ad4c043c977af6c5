// Operation traces: recorded or scripted file-system workloads, replayed
// against any fs::FileSystem implementation. TraceEntry is the one op
// vocabulary: benches record and replay it, and the crash harness and the
// fault campaign run their scripted workload in it.
//
// An entry is one operation with up to three numeric arguments:
//
//   create <name> <bytes> <seed>
//   open <name>
//   close <name>                  # drop the open-file state, if any
//   read <name> <offset> <length>
//   write <name> <offset> <length> <seed>
//   extend <name> <bytes>
//   delete <name>
//   list <prefix>
//   touch <name>
//   setkeep <name> <count>
//   force
//   advance <milliseconds>        # virtual think time (drives group commit)
//   checkpoint
//   shutdown
//
// plus the issuing tenant and the virtual time it was recorded at.
// Payloads are derived deterministically from <seed>, so replaying the same
// trace on two systems must produce byte-identical file contents — the
// property the cross-system tests and benchmark comparisons rely on.
//
// Traces live in host files in one binary format, "CEDWRK02"; see
// SerializeTraceBinary for the layout.

#ifndef CEDAR_WORKLOAD_TRACE_H_
#define CEDAR_WORKLOAD_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/fsapi/file_system.h"
#include "src/sim/clock.h"
#include "src/util/status.h"

namespace cedar::workload {

enum class TraceOp : std::uint8_t {
  kCreate,
  kOpen,
  kClose,
  kRead,
  kWrite,
  kExtend,
  kDelete,
  kList,
  kTouch,
  kSetKeep,
  kForce,
  kAdvance,
  // Appended after kAdvance so every CEDWRK02 file stays readable.
  kCheckpoint,
  kShutdown,
};

struct TraceEntry {
  TraceOp op = TraceOp::kForce;
  std::string name;  // or prefix for kList; empty for the volume-wide ops
  std::uint64_t arg0 = 0;  // bytes / offset / count / milliseconds
  std::uint64_t arg1 = 0;  // length / seed
  std::uint64_t arg2 = 0;  // seed (kWrite)
  std::uint16_t tenant = 0;    // issuing tenant (replay maps to a prefix)
  std::uint64_t vtime_us = 0;  // virtual time the op was recorded at;
                               // open-loop replay paces on the deltas

  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

// ---- CEDWRK02 binary trace format. ----
//
// Layout (little-endian): 8-byte magic "CEDWRK02", u32 entry count, then
// per entry u8 op, name (u16 length + bytes), u64 arg0, u64 arg1, u64 arg2,
// u16 tenant, u64 vtime_us. The parser rejects, with kCorruptMetadata, an
// unknown op code, a count the bytes cannot hold, a truncated entry and
// bytes after the last entry.
std::vector<std::uint8_t> SerializeTraceBinary(
    std::span<const TraceEntry> entries);
Result<std::vector<TraceEntry>> ParseTraceBinary(
    std::span<const std::uint8_t> bytes);
Status SaveTraceBinary(const std::string& path,
                       std::span<const TraceEntry> entries);
Result<std::vector<TraceEntry>> LoadTraceBinary(const std::string& path);

struct ReplayStats {
  std::uint64_t ops = 0;
  std::uint64_t not_found = 0;  // opens/deletes of absent files (tolerated)

  void Merge(const ReplayStats& other) {
    ops += other.ops;
    not_found += other.not_found;
  }
};

// Applies one trace entry to `file_system` (kAdvance goes through
// `advance`). kNotFound from open-like ops and deletes is tolerated and
// counted, so traces replay against partially recovered volumes;
// read/write ranges clamp to the file's current size. The replayer
// (src/workload/replay.h) drives this per op; the crash harness and the
// fault campaign run their script through it too.
Status ApplyTraceOp(fs::FileSystem* file_system, const TraceEntry& entry,
                    ReplayStats* stats,
                    const std::function<Status(sim::Micros)>& advance);

}  // namespace cedar::workload

#endif  // CEDAR_WORKLOAD_TRACE_H_
