#include "src/volume/router.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace cedar::vol {

VolumeRouter::VolumeRouter(std::vector<fs::FileSystem*> volumes)
    : volumes_(std::move(volumes)) {
  CEDAR_CHECK(!volumes_.empty() && volumes_.size() <= kMaxVolumes);
  for (fs::FileSystem* volume : volumes_) {
    CEDAR_CHECK(volume != nullptr);
  }
  c_local_renames_ = metrics_.GetCounter("router.local_renames");
  c_cross_renames_ = metrics_.GetCounter("router.cross_renames");
}

fs::FileSystem& VolumeRouter::Unwrap(const fs::FileHandle& file,
                                     fs::FileHandle* local) const {
  const std::size_t index =
      static_cast<std::size_t>(file.uid & (kMaxVolumes - 1));
  CEDAR_CHECK(index < volumes_.size());
  *local = file;
  local->uid = file.uid >> 4;
  return *volumes_[index];
}

Result<fs::FileUid> VolumeRouter::CreateFile(
    std::string_view name, std::span<const std::uint8_t> contents) {
  return Route(name).CreateFile(name, contents);
}

Result<fs::FileHandle> VolumeRouter::Open(std::string_view name) {
  const std::size_t index = VolumeOf(name, volumes_.size());
  Result<fs::FileHandle> opened = volumes_[index]->Open(name);
  if (!opened.ok()) {
    return opened;
  }
  fs::FileHandle handle = *opened;
  // Tag the handle with its volume; FSD uids are small counters, so the
  // four-bit shift cannot reach the top of the 64-bit uid space.
  CEDAR_CHECK(handle.uid < (std::uint64_t{1} << 60));
  handle.uid = (handle.uid << 4) | static_cast<fs::FileUid>(index);
  return handle;
}

Status VolumeRouter::Read(const fs::FileHandle& file, std::uint64_t offset,
                          std::span<std::uint8_t> out) {
  fs::FileHandle local;
  return Unwrap(file, &local).Read(local, offset, out);
}

Status VolumeRouter::Write(const fs::FileHandle& file, std::uint64_t offset,
                           std::span<const std::uint8_t> data) {
  fs::FileHandle local;
  return Unwrap(file, &local).Write(local, offset, data);
}

Status VolumeRouter::Extend(const fs::FileHandle& file, std::uint64_t bytes) {
  fs::FileHandle local;
  return Unwrap(file, &local).Extend(local, bytes);
}

Status VolumeRouter::DeleteFile(std::string_view name) {
  return Route(name).DeleteFile(name);
}

Result<std::vector<fs::FileInfo>> VolumeRouter::List(std::string_view prefix) {
  std::vector<fs::FileInfo> merged;
  for (fs::FileSystem* volume : volumes_) {
    Result<std::vector<fs::FileInfo>> part = volume->List(prefix);
    if (!part.ok()) {
      return part;
    }
    merged.insert(merged.end(), part->begin(), part->end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const fs::FileInfo& a, const fs::FileInfo& b) {
              return a.name != b.name ? a.name < b.name
                                      : a.version < b.version;
            });
  return merged;
}

Status VolumeRouter::Touch(std::string_view name) {
  return Route(name).Touch(name);
}

Status VolumeRouter::SetKeep(std::string_view name, std::uint16_t keep) {
  return Route(name).SetKeep(name, keep);
}

Status VolumeRouter::Close(const fs::FileHandle& file) {
  fs::FileHandle local;
  return Unwrap(file, &local).Close(local);
}

Status VolumeRouter::Rename(std::string_view from, std::string_view to) {
  const std::size_t src = VolumeOf(from, volumes_.size());
  const std::size_t dst = VolumeOf(to, volumes_.size());
  if (src == dst) {
    c_local_renames_->Increment();
    return volumes_[src]->Rename(from, to);
  }
  c_cross_renames_->Increment();
  return MoveAcrossVolumes(*volumes_[src], from, *volumes_[dst], to);
}

Status VolumeRouter::MoveAcrossVolumes(fs::FileSystem& src,
                                       std::string_view from,
                                       fs::FileSystem& dst,
                                       std::string_view to) {
  // Step 1: copy to the destination and force its log. Properties (keep)
  // travel with the file; create/setkeep are one committed group from the
  // destination volume's point of view once the force returns.
  Result<fs::FileHandle> opened = src.Open(from);
  if (!opened.ok()) {
    return opened.status();
  }
  std::vector<std::uint8_t> contents(opened->byte_size);
  if (!contents.empty()) {
    Status read = src.Read(*opened, 0, contents);
    if (!read.ok()) {
      (void)src.Close(*opened);
      return read;
    }
  }
  std::uint16_t keep = 0;
  if (Result<std::vector<fs::FileInfo>> infos = src.List(from);
      infos.ok()) {
    for (const fs::FileInfo& info : *infos) {
      if (info.name == from) {
        keep = info.keep;
      }
    }
  }
  (void)src.Close(*opened);
  Result<fs::FileUid> created = dst.CreateFile(to, contents);
  if (!created.ok()) {
    return created.status();
  }
  if (keep != 0) {
    CEDAR_RETURN_IF_ERROR(dst.SetKeep(to, keep));
  }
  CEDAR_RETURN_IF_ERROR(dst.Force());

  // Step 2: delete the source name and force. A crash before this point
  // leaves the file under both names — duplicated, never lost; recovery on
  // each volume is local and ordinary.
  CEDAR_RETURN_IF_ERROR(src.DeleteFile(from));
  return src.Force();
}

Status VolumeRouter::Force() {
  Status result;
  for (fs::FileSystem* volume : volumes_) {
    const Status status = volume->Force();
    if (!status.ok() && result.ok()) {
      result = status;
    }
  }
  return result;
}

Status VolumeRouter::Shutdown() {
  Status result;
  for (fs::FileSystem* volume : volumes_) {
    const Status status = volume->Shutdown();
    if (!status.ok() && result.ok()) {
      result = status;
    }
  }
  return result;
}

Status VolumeRouter::Checkpoint() {
  for (fs::FileSystem* volume : volumes_) {
    CEDAR_RETURN_IF_ERROR(volume->Checkpoint());
  }
  return OkStatus();
}

Result<std::uint64_t> VolumeRouter::RecoveryWindow() {
  std::uint64_t total = 0;
  for (fs::FileSystem* volume : volumes_) {
    Result<std::uint64_t> window = volume->RecoveryWindow();
    if (!window.ok()) {
      return window;
    }
    total += *window;
  }
  return total;
}

fs::MaintenanceStats VolumeRouter::Maintenance() {
  fs::MaintenanceStats total;
  for (fs::FileSystem* volume : volumes_) {
    const fs::MaintenanceStats m = volume->Maintenance();
    total.log_live_bytes += m.log_live_bytes;
    total.log_capacity_bytes += m.log_capacity_bytes;
    total.recovery_window_bytes += m.recovery_window_bytes;
    total.checkpoint_batches += m.checkpoint_batches;
    total.checkpoint_pages += m.checkpoint_pages;
    total.checkpoint_advances += m.checkpoint_advances;
    total.third_flush_fallbacks += m.third_flush_fallbacks;
  }
  return total;
}

fs::HealthStats VolumeRouter::Health() {
  fs::HealthStats total;
  for (std::size_t i = 0; i < volumes_.size(); ++i) {
    fs::HealthStats h = volumes_[i]->Health();
    total.degraded = total.degraded || h.degraded;
    total.repairs += h.repairs;
    total.remaps += h.remaps;
    total.corruption_detected += h.corruption_detected;
    total.read_retry_exhausted += h.read_retry_exhausted;
    total.nt_pages_lost += h.nt_pages_lost;
    total.unrepairable += h.unrepairable;
    for (std::string& note : h.notes) {
      total.notes.push_back("vol" + std::to_string(i) + ": " +
                            std::move(note));
    }
  }
  return total;
}

}  // namespace cedar::vol
