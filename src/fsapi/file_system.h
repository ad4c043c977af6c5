// The common file-system interface implemented by all three systems in the
// reproduction (CFS, FSD, and the BSD FFS-like baseline), so workloads and
// benchmarks drive them uniformly.
//
// The operation set mirrors the paper's benchmarks: create, open, read page,
// write, delete, list (with properties), property touch (the last-used-time
// update of cached remote files, section 5.4), and an explicit client force.
//
// Cedar name semantics: files are versioned; Create makes version
// highest+1, Open/Delete address the highest version. Names sort
// lexicographically, so files of one "subdirectory" (a shared prefix) are
// adjacent in the name table — the locality both systems exploit.

#ifndef CEDAR_FSAPI_FILE_SYSTEM_H_
#define CEDAR_FSAPI_FILE_SYSTEM_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace cedar::fs {

using FileUid = std::uint64_t;

struct FileInfo {
  std::string name;
  std::uint32_t version = 0;
  FileUid uid = 0;
  std::uint64_t byte_size = 0;
  std::uint64_t create_time = 0;  // virtual microseconds
  std::uint64_t last_used = 0;
  std::uint16_t keep = 0;  // versions to retain; 0 = unlimited
};

// An open file. Handles are value types; the owning file system keeps any
// per-open state (e.g. "leader verified") keyed by uid.
struct FileHandle {
  FileUid uid = 0;
  std::uint32_t version = 0;
  std::uint64_t byte_size = 0;
};

// A point-in-time view of the maintenance state a log-structured (or
// otherwise deferred-write) file system carries between crashes: how much
// work a crash-now mount would redo, and how the background checkpointer is
// keeping that bounded. Synchronous-write systems (CFS, the FFS baseline)
// report zeros — they have no deferred state by construction.
struct MaintenanceStats {
  std::uint64_t log_live_bytes = 0;       // live log a crash-now mount replays
  std::uint64_t log_capacity_bytes = 0;   // total log record area
  std::uint64_t recovery_window_bytes = 0;  // configured bound (0 = none)
  std::uint64_t checkpoint_batches = 0;   // Checkpoint()/daemon rounds run
  std::uint64_t checkpoint_pages = 0;     // home pages written by checkpoints
                                          // (including third entry)
  std::uint64_t checkpoint_advances = 0;  // durable checkpoint-pointer moves
  // Third entries whose synchronous checkpoint still had pages to write
  // home: work the background checkpointer did not get to in time.
  std::uint64_t third_flush_fallbacks = 0;
};

// Media-health summary: what the file system has detected, healed, or given
// up on so far. `degraded` means the volume is mounted read-only because
// damage exceeded what the built-in redundancy could repair; mutating
// operations fail with kFailedPrecondition until the medium is replaced or
// repaired offline. `notes` attributes the damage (one human-readable line
// per unrepairable find) — the contract is that data is never silently
// wrong: every loss is either healed or listed here / surfaced as an error.
struct HealthStats {
  bool degraded = false;
  std::uint64_t repairs = 0;               // successful media repairs
  std::uint64_t remaps = 0;                // sectors remapped to spares
  std::uint64_t corruption_detected = 0;   // checksum mismatches caught
  std::uint64_t read_retry_exhausted = 0;  // soft-error retries that gave up
  std::uint64_t nt_pages_lost = 0;         // both home copies unusable
  std::uint64_t unrepairable = 0;          // damage no redundancy covered
  std::vector<std::string> notes;          // attribution, one line per find
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  // Creates version highest+1 of `name` holding `contents` (may be empty).
  virtual Result<FileUid> CreateFile(
      std::string_view name, std::span<const std::uint8_t> contents) = 0;

  // Opens the highest version. Does not read data.
  virtual Result<FileHandle> Open(std::string_view name) = 0;

  // Reads out.size() bytes at `offset`. Short reads are errors.
  virtual Status Read(const FileHandle& file, std::uint64_t offset,
                      std::span<std::uint8_t> out) = 0;

  // Overwrites bytes within the current size (Cedar files are typically
  // written once; in-place rewrite exists for completeness).
  virtual Status Write(const FileHandle& file, std::uint64_t offset,
                       std::span<const std::uint8_t> data) = 0;

  // Grows the file by `bytes` zero bytes (allocating new runs).
  virtual Status Extend(const FileHandle& file, std::uint64_t bytes) = 0;

  // Deletes the highest version of `name`.
  virtual Status DeleteFile(std::string_view name) = 0;

  // Lists all files whose name starts with `prefix`, with full properties
  // (for CFS this is the operation that must visit header pages).
  virtual Result<std::vector<FileInfo>> List(std::string_view prefix) = 0;

  // Updates the last-used time of the highest version (a pure metadata
  // hot-spot operation).
  virtual Status Touch(std::string_view name) = 0;

  // Renames the highest version of `from` to a new highest version of `to`
  // (properties travel with the file). Optional: systems that predate the
  // operation report kUnimplemented, and portable workloads fall back to
  // copy+delete. The sharded volume router implements cross-volume renames
  // on top of this via a logged two-step (see src/volume).
  virtual Status Rename(std::string_view from, std::string_view to) {
    (void)from;
    (void)to;
    return MakeError(ErrorCode::kUnimplemented, "rename not supported");
  }

  // Sets the version-retention count ("keep" in the Cedar name table):
  // after each create, only the newest `keep` versions survive. 0 means
  // unlimited. Applies to the highest version and is inherited by new
  // versions. Systems without versions treat this as a no-op.
  virtual Status SetKeep(std::string_view name, std::uint16_t keep) = 0;

  // Closes an open handle, releasing the per-open state kept by the file
  // system (FSD's "leader verified" bit, CFS/BSD open-table entries).
  // Closing a handle that is not open is not an error: handles are value
  // types and a crash/remount already invalidates them implicitly.
  virtual Status Close(const FileHandle& file) = 0;

  // Client force: make all completed operations durable before returning
  // (FSD forces the log; CFS and BSD are already synchronous). Paired with
  // Close() this lets portable workloads drive group commit: write, force,
  // close — regardless of which system is underneath.
  virtual Status Force() = 0;

  // Orderly unmount: persist volatile state (FSD saves the VAM).
  virtual Status Shutdown() = 0;

  // ---- Maintenance surface. Tools and benches drive checkpointing and
  // read recovery-exposure numbers through these instead of downcasting to
  // a concrete system. The defaults describe a synchronous-write system
  // with nothing to checkpoint; FSD overrides all three.

  // Runs one synchronous checkpoint: writes home the pages backing the
  // oldest portion of the deferred-write state and durably advances the
  // recovery starting point as far as currently safe. A no-op (OkStatus)
  // for systems with no deferred state.
  virtual Status Checkpoint() { return OkStatus(); }

  // Bytes of log a crash-at-this-instant mount would have to replay. 0 for
  // synchronous-write systems; kFailedPrecondition when not mounted.
  virtual Result<std::uint64_t> RecoveryWindow() { return std::uint64_t{0}; }

  // Snapshot of the maintenance counters above.
  virtual MaintenanceStats Maintenance() { return MaintenanceStats{}; }

  // Media-health snapshot (see HealthStats). Systems without media-fault
  // handling report the default: healthy, nothing detected.
  virtual HealthStats Health() { return HealthStats{}; }

  // The metrics registry this file system (and its attached disk) records
  // into. Benches and tests read counters/histograms through this instead
  // of reaching into per-system stats structs.
  virtual const obs::MetricsRegistry& Metrics() const = 0;

  // Convenience: a point-in-time copy of every registered metric.
  obs::MetricsSnapshot SnapshotMetrics() const { return Metrics().Snapshot(); }
};

}  // namespace cedar::fs

#endif  // CEDAR_FSAPI_FILE_SYSTEM_H_
