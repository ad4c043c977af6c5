#include "src/workload/recorder.h"

#include <utility>

#include "src/util/crc32.h"

namespace cedar::workload {
namespace {

// One tenant context per thread. A plain thread_local (not per-instance)
// is deliberate: a rig records through one RecordingFs at a time, and the
// tenant is a property of the driving thread, not of the wrapper.
thread_local std::uint16_t g_thread_tenant = 0;

}  // namespace

void RecordingFs::SetThreadTenant(std::uint16_t tenant) {
  g_thread_tenant = tenant;
}

std::uint16_t RecordingFs::ThreadTenant() { return g_thread_tenant; }

std::vector<TraceEntry> RecordingFs::Trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_;
}

void RecordingFs::Record(TraceOp op, std::string name, std::uint64_t arg0,
                         std::uint64_t arg1, std::uint64_t arg2) {
  // Handle-based ops on a handle we never saw open resolve to an empty
  // name; dropping them keeps the trace replayable (an empty name is not a
  // kNotFound miss at replay time, it is an invalid argument).
  const bool volume_wide = op == TraceOp::kForce || op == TraceOp::kList ||
                           op == TraceOp::kCheckpoint ||
                           op == TraceOp::kShutdown;
  if (name.empty() && !volume_wide) {
    return;
  }
  TraceEntry entry;
  entry.op = op;
  entry.name = std::move(name);
  entry.arg0 = arg0;
  entry.arg1 = arg1;
  entry.arg2 = arg2;
  entry.tenant = g_thread_tenant;
  entry.vtime_us = clock_ != nullptr ? clock_->now() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  trace_.push_back(std::move(entry));
}

std::string RecordingFs::NameOf(fs::FileUid uid) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = uid_names_.find(uid);
  return it == uid_names_.end() ? std::string() : it->second;
}

Result<fs::FileUid> RecordingFs::CreateFile(
    std::string_view name, std::span<const std::uint8_t> contents) {
  auto uid = inner_->CreateFile(name, contents);
  if (uid.ok()) {
    Record(TraceOp::kCreate, std::string(name), contents.size(),
           Crc32(contents));
    std::lock_guard<std::mutex> lock(mu_);
    uid_names_[*uid] = std::string(name);
  }
  return uid;
}

Result<fs::FileHandle> RecordingFs::Open(std::string_view name) {
  auto handle = inner_->Open(name);
  // Absent files are recorded too: the miss is part of the workload (the
  // replayer tolerates kNotFound the same way).
  Record(TraceOp::kOpen, std::string(name));
  if (handle.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    uid_names_[handle->uid] = std::string(name);
  }
  return handle;
}

Status RecordingFs::Read(const fs::FileHandle& file, std::uint64_t offset,
                         std::span<std::uint8_t> out) {
  const Status status = inner_->Read(file, offset, out);
  if (status.ok()) {
    Record(TraceOp::kRead, NameOf(file.uid), offset, out.size());
  }
  return status;
}

Status RecordingFs::Write(const fs::FileHandle& file, std::uint64_t offset,
                          std::span<const std::uint8_t> data) {
  const Status status = inner_->Write(file, offset, data);
  if (status.ok()) {
    Record(TraceOp::kWrite, NameOf(file.uid), offset, data.size(),
           Crc32(data));
  }
  return status;
}

Status RecordingFs::Extend(const fs::FileHandle& file, std::uint64_t bytes) {
  const Status status = inner_->Extend(file, bytes);
  if (status.ok()) {
    Record(TraceOp::kExtend, NameOf(file.uid), bytes);
  }
  return status;
}

Status RecordingFs::DeleteFile(std::string_view name) {
  const Status status = inner_->DeleteFile(name);
  if (status.ok() || status.code() == ErrorCode::kNotFound) {
    Record(TraceOp::kDelete, std::string(name));
  }
  return status;
}

Result<std::vector<fs::FileInfo>> RecordingFs::List(std::string_view prefix) {
  auto infos = inner_->List(prefix);
  if (infos.ok()) {
    Record(TraceOp::kList, std::string(prefix));
  }
  return infos;
}

Status RecordingFs::Touch(std::string_view name) {
  const Status status = inner_->Touch(name);
  if (status.ok() || status.code() == ErrorCode::kNotFound) {
    Record(TraceOp::kTouch, std::string(name));
  }
  return status;
}

Status RecordingFs::SetKeep(std::string_view name, std::uint16_t keep) {
  const Status status = inner_->SetKeep(name, keep);
  if (status.ok() || status.code() == ErrorCode::kNotFound) {
    Record(TraceOp::kSetKeep, std::string(name), keep);
  }
  return status;
}

Status RecordingFs::Close(const fs::FileHandle& file) {
  const Status status = inner_->Close(file);
  if (status.ok()) {
    Record(TraceOp::kClose, NameOf(file.uid));
  }
  return status;
}

Status RecordingFs::RecordVolumeOp(TraceOp op, const Status& status) {
  if (status.ok()) {
    Record(op, std::string());
  }
  return status;
}

Status RecordingFs::Force() {
  return RecordVolumeOp(TraceOp::kForce, inner_->Force());
}

Status RecordingFs::Checkpoint() {
  return RecordVolumeOp(TraceOp::kCheckpoint, inner_->Checkpoint());
}

Status RecordingFs::Shutdown() {
  return RecordVolumeOp(TraceOp::kShutdown, inner_->Shutdown());
}

}  // namespace cedar::workload
