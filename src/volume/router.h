// VolumeRouter: a sharded namespace over N independent FSD volumes.
//
// One FSD volume is bounded (2^31 sectors, one log, one commit daemon), and
// its 16-way name-shard parallel commit saturates once every shard is hot.
// The router scales past that by hashing each file name's shard key (the
// same 16-way hash FSD uses internally, core::Fsd::ShardOf) onto one of N
// volumes. Each volume is a complete FSD rig — its own device (disk or
// array), log, group-commit and checkpoint daemons, and virtual clock — so
// volumes commit, checkpoint, and recover fully independently; the router
// adds no shared lock on the operation path.
//
// Handles: the router returns fs::FileHandle values whose uid carries the
// owning volume index in the low 4 bits (uid' = uid << 4 | volume), so
// handle-addressed operations (Read/Write/Extend/Close) route statelessly.
// At most 16 volumes; FSD uids are small counters, so the shift cannot
// overflow in practice (checked).
//
// Cross-volume Rename is the one operation that spans two volumes. It runs
// as a logged two-step (the AsyncFS recipe):
//
//   step 1: copy the file to the destination volume (create + keep) and
//           FORCE the destination log — the new name is durable;
//   step 2: delete the source name and force the source log.
//
// A crash between the steps leaves both names present — duplicate, never
// lost — and each volume's own recovery makes its step atomic, so the
// durability oracle and Fsck stay clean on both volumes (the crash harness
// exercises exactly this cut). The two-step runs on the caller's thread, so
// Rename returns its status and every later operation sees its result.

#ifndef CEDAR_VOLUME_ROUTER_H_
#define CEDAR_VOLUME_ROUTER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/fsd.h"
#include "src/fsapi/file_system.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace cedar::vol {

class VolumeRouter : public fs::FileSystem {
 public:
  static constexpr std::size_t kMaxVolumes = 16;  // 4 uid bits

  // `volumes` are borrowed, fully mounted file systems (normally core::Fsd
  // instances — each with its own device and daemons); the router adds the
  // namespace partition on top. Count must be in [1, kMaxVolumes].
  explicit VolumeRouter(std::vector<fs::FileSystem*> volumes);

  // Which volume owns `name`: FSD's 16-way shard key folded onto N volumes,
  // so the name -> shard -> volume map is stable as N varies over the
  // divisors of 16 (a file stays on the same volume when N doubles only for
  // the shards that move — the usual static-shard growth story).
  static std::size_t VolumeOf(std::string_view name, std::size_t volumes) {
    return core::Fsd::ShardOf(name) % volumes;
  }
  std::size_t volume_count() const { return volumes_.size(); }
  fs::FileSystem& volume(std::size_t index) { return *volumes_[index]; }

  // ---- fs::FileSystem.
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
  Status Rename(std::string_view from, std::string_view to) override;
  Status SetKeep(std::string_view name, std::uint16_t keep) override;
  Status Close(const fs::FileHandle& file) override;
  Status Force() override;
  Status Shutdown() override;
  Status Checkpoint() override;
  Result<std::uint64_t> RecoveryWindow() override;
  fs::MaintenanceStats Maintenance() override;
  fs::HealthStats Health() override;
  const obs::MetricsRegistry& Metrics() const override { return metrics_; }

 private:
  fs::FileSystem& Route(std::string_view name) {
    return *volumes_[VolumeOf(name, volumes_.size())];
  }
  // Decodes a router handle into (volume, volume-local handle).
  fs::FileSystem& Unwrap(const fs::FileHandle& file,
                         fs::FileHandle* local) const;

  // The two-step copy+delete of one cross-volume rename.
  static Status MoveAcrossVolumes(fs::FileSystem& src, std::string_view from,
                                  fs::FileSystem& dst, std::string_view to);

  std::vector<fs::FileSystem*> volumes_;

  obs::MetricsRegistry metrics_;
  obs::Counter* c_local_renames_ = nullptr;
  obs::Counter* c_cross_renames_ = nullptr;
};

}  // namespace cedar::vol

#endif  // CEDAR_VOLUME_ROUTER_H_
