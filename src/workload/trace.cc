#include "src/workload/trace.h"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "src/util/file.h"
#include "src/util/serial.h"
#include "src/workload/workload.h"

namespace cedar::workload {
namespace {

constexpr char kBinaryMagic[8] = {'C', 'E', 'D', 'W', 'R', 'K', '0', '1'};

// CEDWRK01 wire types (low 3 bits of a tag byte).
enum WireType : std::uint8_t {
  kWireU8 = 0,
  kWireU16 = 1,
  kWireU32 = 2,
  kWireU64 = 3,
  kWireStr = 4,
};

// CEDWRK01 field ids (tag >> 3).
enum FieldId : std::uint8_t {
  kFieldOp = 1,      // u8
  kFieldName = 2,    // str
  kFieldArg0 = 3,    // u64
  kFieldArg1 = 4,    // u64
  kFieldArg2 = 5,    // u64
  kFieldTenant = 6,  // u16
  kFieldVtime = 7,   // u64
};

constexpr std::uint8_t Tag(FieldId id, WireType type) {
  return static_cast<std::uint8_t>((id << 3) | type);
}

const char* OpName(TraceOp op) {
  switch (op) {
    case TraceOp::kCreate:
      return "create";
    case TraceOp::kOpen:
      return "open";
    case TraceOp::kClose:
      return "close";
    case TraceOp::kRead:
      return "read";
    case TraceOp::kWrite:
      return "write";
    case TraceOp::kExtend:
      return "extend";
    case TraceOp::kDelete:
      return "delete";
    case TraceOp::kList:
      return "list";
    case TraceOp::kTouch:
      return "touch";
    case TraceOp::kSetKeep:
      return "setkeep";
    case TraceOp::kForce:
      return "force";
    case TraceOp::kAdvance:
      return "advance";
  }
  return "?";
}

// How many of (name, arg0, arg1, arg2) each op uses.
struct Arity {
  bool name = false;
  int args = 0;
};

Arity OpArity(TraceOp op) {
  switch (op) {
    case TraceOp::kCreate:
      return {true, 2};
    case TraceOp::kOpen:
    case TraceOp::kClose:
    case TraceOp::kDelete:
    case TraceOp::kTouch:
      return {true, 0};
    case TraceOp::kRead:
      return {true, 2};
    case TraceOp::kWrite:
      return {true, 3};
    case TraceOp::kExtend:
    case TraceOp::kSetKeep:
      return {true, 1};
    case TraceOp::kList:
      return {true, 0};
    case TraceOp::kForce:
      return {false, 0};
    case TraceOp::kAdvance:
      return {false, 1};
  }
  return {false, 0};
}

}  // namespace

std::string FormatTrace(std::span<const TraceEntry> entries) {
  std::ostringstream out;
  for (const TraceEntry& entry : entries) {
    const Arity arity = OpArity(entry.op);
    out << OpName(entry.op);
    if (arity.name) {
      out << ' ' << entry.name;
    }
    if (arity.args >= 1) {
      out << ' ' << entry.arg0;
    }
    if (arity.args >= 2) {
      out << ' ' << entry.arg1;
    }
    if (arity.args >= 3) {
      out << ' ' << entry.arg2;
    }
    out << '\n';
  }
  return out.str();
}

Result<std::vector<TraceEntry>> ParseTrace(std::string_view text) {
  std::vector<TraceEntry> entries;
  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    ++line_number;
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;

    // Tokenize.
    std::vector<std::string_view> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && line[i] == ' ') {
        ++i;
      }
      const std::size_t start = i;
      while (i < line.size() && line[i] != ' ') {
        ++i;
      }
      if (i > start) {
        tokens.push_back(line.substr(start, i - start));
      }
    }
    if (tokens.empty() || tokens[0].front() == '#') {
      continue;
    }

    auto fail = [&](const char* what) {
      return MakeError(ErrorCode::kInvalidArgument,
                       "trace line " + std::to_string(line_number) + ": " +
                           what);
    };

    TraceEntry entry;
    bool known = false;
    for (TraceOp op :
         {TraceOp::kCreate, TraceOp::kOpen, TraceOp::kClose, TraceOp::kRead,
          TraceOp::kWrite, TraceOp::kExtend, TraceOp::kDelete, TraceOp::kList,
          TraceOp::kTouch, TraceOp::kSetKeep, TraceOp::kForce,
          TraceOp::kAdvance}) {
      if (tokens[0] == OpName(op)) {
        entry.op = op;
        known = true;
        break;
      }
    }
    if (!known) {
      return fail("unknown operation");
    }
    const Arity arity = OpArity(entry.op);
    std::size_t next = 1;
    if (arity.name) {
      if (next >= tokens.size()) {
        return fail("missing name");
      }
      entry.name = std::string(tokens[next++]);
    }
    std::uint64_t* slots[3] = {&entry.arg0, &entry.arg1, &entry.arg2};
    for (int a = 0; a < arity.args; ++a) {
      if (next >= tokens.size()) {
        return fail("missing argument");
      }
      const std::string_view token = tokens[next++];
      auto [ptr, ec] = std::from_chars(token.data(),
                                       token.data() + token.size(), *slots[a]);
      if (ec != std::errc() || ptr != token.data() + token.size()) {
        return fail("malformed number");
      }
    }
    if (next != tokens.size()) {
      return fail("trailing tokens");
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::vector<std::uint8_t> SerializeTraceBinary(
    std::span<const TraceEntry> entries) {
  ByteWriter w;
  w.Bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kBinaryMagic),
      sizeof(kBinaryMagic)));
  w.U32(static_cast<std::uint32_t>(entries.size()));
  for (const TraceEntry& entry : entries) {
    w.U8(7);  // field count
    w.U8(Tag(kFieldOp, kWireU8));
    w.U8(static_cast<std::uint8_t>(entry.op));
    w.U8(Tag(kFieldName, kWireStr));
    w.Str(entry.name);
    w.U8(Tag(kFieldArg0, kWireU64));
    w.U64(entry.arg0);
    w.U8(Tag(kFieldArg1, kWireU64));
    w.U64(entry.arg1);
    w.U8(Tag(kFieldArg2, kWireU64));
    w.U64(entry.arg2);
    w.U8(Tag(kFieldTenant, kWireU16));
    w.U16(entry.tenant);
    w.U8(Tag(kFieldVtime, kWireU64));
    w.U64(entry.vtime_us);
  }
  return w.Take();
}

Result<std::vector<TraceEntry>> ParseTraceBinary(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const std::vector<std::uint8_t> magic = r.Bytes(sizeof(kBinaryMagic));
  if (!r.ok() ||
      !std::equal(magic.begin(), magic.end(),
                  reinterpret_cast<const std::uint8_t*>(kBinaryMagic))) {
    return MakeError(ErrorCode::kCorruptMetadata, "bad workload trace magic");
  }
  const std::uint32_t count = r.U32();
  std::vector<TraceEntry> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TraceEntry entry;
    const std::uint8_t nfields = r.U8();
    for (std::uint8_t f = 0; f < nfields && r.ok(); ++f) {
      const std::uint8_t tag = r.U8();
      const auto wire = static_cast<WireType>(tag & 0x7);
      const std::uint8_t field = tag >> 3;
      // Read the value by wire type first, so unknown fields are skipped
      // correctly regardless of what they mean.
      std::uint64_t scalar = 0;
      std::string str;
      switch (wire) {
        case kWireU8:
          scalar = r.U8();
          break;
        case kWireU16:
          scalar = r.U16();
          break;
        case kWireU32:
          scalar = r.U32();
          break;
        case kWireU64:
          scalar = r.U64();
          break;
        case kWireStr:
          str = r.Str();
          break;
        default:
          return MakeError(ErrorCode::kCorruptMetadata,
                           "workload trace entry " + std::to_string(i) +
                               ": unknown wire type " +
                               std::to_string(tag & 0x7));
      }
      switch (field) {
        case kFieldOp:
          if (scalar > static_cast<std::uint64_t>(TraceOp::kAdvance)) {
            return MakeError(ErrorCode::kCorruptMetadata,
                             "workload trace entry " + std::to_string(i) +
                                 ": bad op code");
          }
          entry.op = static_cast<TraceOp>(scalar);
          break;
        case kFieldName:
          entry.name = std::move(str);
          break;
        case kFieldArg0:
          entry.arg0 = scalar;
          break;
        case kFieldArg1:
          entry.arg1 = scalar;
          break;
        case kFieldArg2:
          entry.arg2 = scalar;
          break;
        case kFieldTenant:
          entry.tenant = static_cast<std::uint16_t>(scalar);
          break;
        case kFieldVtime:
          entry.vtime_us = scalar;
          break;
        default:
          break;  // unknown field from a newer writer: already skipped
      }
    }
    if (!r.ok()) {
      return MakeError(ErrorCode::kCorruptMetadata,
                       "truncated workload trace at entry " +
                           std::to_string(i));
    }
    entries.push_back(std::move(entry));
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
  }
  return OkStatus();
}

Result<ReplayStats> ReplayTrace(
    fs::FileSystem* file_system, std::span<const TraceEntry> entries,
    const std::function<Status(sim::Micros)>& advance) {
  ReplayStats stats;
  for (const TraceEntry& entry : entries) {
    CEDAR_RETURN_IF_ERROR(ApplyTraceOp(file_system, entry, &stats, advance));
  }
  return stats;
}

std::vector<TraceEntry> GenerateTrace(const TraceGenConfig& config, Rng& rng) {
  std::vector<TraceEntry> entries;
  for (std::uint32_t i = 0; i < config.operations; ++i) {
    const std::string name =
        "t/f" + std::to_string(rng.Below(config.name_space));
    TraceEntry entry;
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
        entry = {TraceOp::kCreate, name, rng.Between(1, config.max_bytes),
                 rng.Next(), 0};
        break;
      case 4:
      case 5:
        entry = {TraceOp::kRead, name, rng.Below(config.max_bytes / 2),
                 rng.Between(1, 2048), 0};
        break;
      case 6:
        entry = {TraceOp::kDelete, name, 0, 0, 0};
        break;
      case 7:
        entry = {TraceOp::kTouch, name, 0, 0, 0};
        break;
      case 8:
        entry = {TraceOp::kList, "t/", 0, 0, 0};
        break;
      case 9:
        entry = {TraceOp::kAdvance, "",
                 config.think_time / sim::kMillisecond, 0, 0};
        break;
    }
    entries.push_back(std::move(entry));
  }
  entries.push_back(TraceEntry{TraceOp::kForce, "", 0, 0, 0});
  return entries;
}

}  // namespace cedar::workload
