#include "src/workload/trace.h"

#include <algorithm>

#include "src/util/file.h"
#include "src/util/serial.h"
#include "src/workload/workload.h"

namespace cedar::workload {
namespace {

constexpr std::string_view kMagic = "CEDWRK02";
// u8 op, u16 name length, three u64 args, u16 tenant, u64 vtime.
constexpr std::size_t kMinEntryBytes = 1 + 2 + 3 * 8 + 2 + 8;

}  // namespace

std::vector<std::uint8_t> SerializeTraceBinary(
    std::span<const TraceEntry> entries) {
  ByteWriter w;
  w.Magic(kMagic);
  w.U32(static_cast<std::uint32_t>(entries.size()));
  for (const TraceEntry& entry : entries) {
    w.U8(static_cast<std::uint8_t>(entry.op));
    w.Str(entry.name);
    w.U64(entry.arg0);
    w.U64(entry.arg1);
    w.U64(entry.arg2);
    w.U16(entry.tenant);
    w.U64(entry.vtime_us);
  }
  return w.Take();
}

Result<std::vector<TraceEntry>> ParseTraceBinary(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (!r.Magic(kMagic)) {
    return MakeError(ErrorCode::kCorruptMetadata, "bad workload trace magic");
  }
  std::vector<TraceEntry> entries(r.Count(kMinEntryBytes));
  for (TraceEntry& entry : entries) {
    const std::uint8_t op = r.U8();
    if (op > static_cast<std::uint8_t>(TraceOp::kShutdown)) {
      return MakeError(ErrorCode::kCorruptMetadata,
                       "workload trace entry " +
                           std::to_string(&entry - entries.data()) +
                           ": bad op code");
    }
    entry.op = static_cast<TraceOp>(op);
    entry.name = r.Str();
    entry.arg0 = r.U64();
    entry.arg1 = r.U64();
    entry.arg2 = r.U64();
    entry.tenant = r.U16();
    entry.vtime_us = r.U64();
  }
  if (!r.done()) {
    return MakeError(ErrorCode::kCorruptMetadata,
                     "workload trace truncated or followed by extra bytes");
  }
  return entries;
}

Status SaveTraceBinary(const std::string& path,
                       std::span<const TraceEntry> entries) {
  return WriteFileBytes(path, SerializeTraceBinary(entries), "trace file");
}

Result<std::vector<TraceEntry>> LoadTraceBinary(const std::string& path) {
  CEDAR_ASSIGN_OR_RETURN(const std::vector<std::uint8_t> bytes,
                         ReadFileBytes(path, "trace file"));
  return ParseTraceBinary(bytes);
}

Status ApplyTraceOp(fs::FileSystem* file_system, const TraceEntry& entry,
                    ReplayStats* stats,
                    const std::function<Status(sim::Micros)>& advance) {
  ++stats->ops;
  auto tolerate = [stats](const Status& status) {
    if (status.code() == ErrorCode::kNotFound) {
      ++stats->not_found;
      return OkStatus();
    }
    return status;
  };

  switch (entry.op) {
    case TraceOp::kCreate:
      CEDAR_RETURN_IF_ERROR(
          file_system->CreateFile(entry.name, Payload(entry.arg0, entry.arg1))
              .status());
      break;
    case TraceOp::kOpen:
      CEDAR_RETURN_IF_ERROR(tolerate(file_system->Open(entry.name).status()));
      break;
    case TraceOp::kClose: {
      auto handle = file_system->Open(entry.name);
      CEDAR_RETURN_IF_ERROR(tolerate(handle.status()));
      if (handle.ok()) {
        CEDAR_RETURN_IF_ERROR(file_system->Close(*handle));
      }
      break;
    }
    case TraceOp::kRead: {
      auto handle = file_system->Open(entry.name);
      CEDAR_RETURN_IF_ERROR(tolerate(handle.status()));
      if (handle.ok()) {
        const std::uint64_t end =
            std::min(handle->byte_size, entry.arg0 + entry.arg1);
        if (end > entry.arg0) {
          std::vector<std::uint8_t> out(end - entry.arg0);
          CEDAR_RETURN_IF_ERROR(file_system->Read(*handle, entry.arg0, out));
        }
      }
      break;
    }
    case TraceOp::kWrite: {
      auto handle = file_system->Open(entry.name);
      CEDAR_RETURN_IF_ERROR(tolerate(handle.status()));
      if (handle.ok()) {
        const std::uint64_t end =
            std::min(handle->byte_size, entry.arg0 + entry.arg1);
        if (end > entry.arg0) {
          CEDAR_RETURN_IF_ERROR(file_system->Write(
              *handle, entry.arg0, Payload(end - entry.arg0, entry.arg2)));
        }
      }
      break;
    }
    case TraceOp::kExtend: {
      auto handle = file_system->Open(entry.name);
      CEDAR_RETURN_IF_ERROR(tolerate(handle.status()));
      if (handle.ok()) {
        CEDAR_RETURN_IF_ERROR(file_system->Extend(*handle, entry.arg0));
      }
      break;
    }
    case TraceOp::kDelete:
      CEDAR_RETURN_IF_ERROR(tolerate(file_system->DeleteFile(entry.name)));
      break;
    case TraceOp::kList:
      CEDAR_RETURN_IF_ERROR(file_system->List(entry.name).status());
      break;
    case TraceOp::kTouch:
      CEDAR_RETURN_IF_ERROR(tolerate(file_system->Touch(entry.name)));
      break;
    case TraceOp::kSetKeep:
      CEDAR_RETURN_IF_ERROR(tolerate(file_system->SetKeep(
          entry.name, static_cast<std::uint16_t>(entry.arg0))));
      break;
    case TraceOp::kForce:
      CEDAR_RETURN_IF_ERROR(file_system->Force());
      break;
    case TraceOp::kAdvance:
      CEDAR_RETURN_IF_ERROR(advance(entry.arg0 * sim::kMillisecond));
      break;
    case TraceOp::kCheckpoint:
      CEDAR_RETURN_IF_ERROR(file_system->Checkpoint());
      break;
    case TraceOp::kShutdown:
      CEDAR_RETURN_IF_ERROR(file_system->Shutdown());
      break;
  }
  return OkStatus();
}

}  // namespace cedar::workload
