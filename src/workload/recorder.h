// RecordingFs: a fs::FileSystem decorator that captures every operation it
// forwards as a TraceEntry — the "record" half of the workload engine.
//
// Wrap any live file system (FSD under a bench, a test rig, the cedarfs
// CLI) and run the real workload through the wrapper; afterwards Trace()
// holds a replayable CEDWRK02 trace. Each entry is stamped with:
//   - the virtual timestamp at issue (open-loop replay paces on the deltas),
//   - the calling thread's current tenant (set with ScopedTenant).
//
// Handle-based operations (Read/Write/Extend/Close) are recorded by name:
// the recorder remembers the name behind every uid it has seen pass
// through CreateFile/Open. Payload identity is captured as a CRC32 seed, so
// recording the same deterministic run twice produces identical traces,
// and replaying writes payloads of the exact recorded sizes.
//
// Thread safety: the trace buffer is mutex-guarded; the tenant context is
// genuinely thread-local, so concurrent client threads each record under
// their own tenant. Recording adds one lock + append per op — fine for
// trace capture, not meant to be free.

#ifndef CEDAR_WORKLOAD_RECORDER_H_
#define CEDAR_WORKLOAD_RECORDER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/fsapi/file_system.h"
#include "src/sim/clock.h"
#include "src/workload/trace.h"

namespace cedar::workload {

class RecordingFs : public fs::FileSystem {
 public:
  // Both pointers are borrowed and must outlive the recorder. `clock` may
  // be null (vtime_us stays 0 — closed-loop replay only).
  RecordingFs(fs::FileSystem* inner, const sim::VirtualClock* clock)
      : inner_(inner), clock_(clock) {}

  // The captured trace so far (copy; safe while recording continues).
  std::vector<TraceEntry> Trace() const;

  // Tenant context for the calling thread; used by ScopedTenant.
  static void SetThreadTenant(std::uint16_t tenant);
  static std::uint16_t ThreadTenant();

  // fs::FileSystem:
  Result<fs::FileUid> CreateFile(
      std::string_view name, std::span<const std::uint8_t> contents) override;
  Result<fs::FileHandle> Open(std::string_view name) override;
  Status Read(const fs::FileHandle& file, std::uint64_t offset,
              std::span<std::uint8_t> out) override;
  Status Write(const fs::FileHandle& file, std::uint64_t offset,
               std::span<const std::uint8_t> data) override;
  Status Extend(const fs::FileHandle& file, std::uint64_t bytes) override;
  Status DeleteFile(std::string_view name) override;
  Result<std::vector<fs::FileInfo>> List(std::string_view prefix) override;
  Status Touch(std::string_view name) override;
  Status SetKeep(std::string_view name, std::uint16_t keep) override;
  Status Close(const fs::FileHandle& file) override;
  Status Force() override;
  Status Shutdown() override;
  Status Checkpoint() override;
  Result<std::uint64_t> RecoveryWindow() override {
    return inner_->RecoveryWindow();
  }
  fs::MaintenanceStats Maintenance() override { return inner_->Maintenance(); }
  fs::HealthStats Health() override { return inner_->Health(); }
  const obs::MetricsRegistry& Metrics() const override {
    return inner_->Metrics();
  }

 private:
  void Record(TraceOp op, std::string name, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0, std::uint64_t arg2 = 0);
  // Records a volume-wide op (no name) that succeeded; returns `status`.
  Status RecordVolumeOp(TraceOp op, const Status& status);
  // Name behind a uid, or empty when the handle never passed through us.
  std::string NameOf(fs::FileUid uid) const;

  fs::FileSystem* inner_;
  const sim::VirtualClock* clock_;

  mutable std::mutex mu_;
  std::vector<TraceEntry> trace_;
  std::map<fs::FileUid, std::string> uid_names_;
};

// RAII tenant context for the calling thread (nesting restores the outer
// tenant). Recording without any ScopedTenant tags ops tenant 0.
class ScopedTenant {
 public:
  explicit ScopedTenant(std::uint16_t tenant)
      : saved_(RecordingFs::ThreadTenant()) {
    RecordingFs::SetThreadTenant(tenant);
  }
  ~ScopedTenant() { RecordingFs::SetThreadTenant(saved_); }
  ScopedTenant(const ScopedTenant&) = delete;
  ScopedTenant& operator=(const ScopedTenant&) = delete;

 private:
  std::uint16_t saved_;
};

}  // namespace cedar::workload

#endif  // CEDAR_WORKLOAD_RECORDER_H_
