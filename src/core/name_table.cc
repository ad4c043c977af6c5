#include "src/core/name_table.h"

#include <algorithm>

#include "src/core/allocator.h"
#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/serial.h"

namespace cedar::core {
namespace {

constexpr std::uint32_t kLeaderMagic = 0x4653444C;  // "FSDL"

}  // namespace

std::vector<std::uint8_t> SerializeEntry(const FsdEntry& entry) {
  CEDAR_CHECK(entry.runs.size() <= RunAllocator::kMaxRuns);
  ByteWriter w;
  w.Var(entry.uid);
  w.Var(entry.keep);
  w.Var(entry.byte_size);
  w.Var(entry.create_time);
  w.Var(entry.last_used);
  w.Var(entry.leader_lba);
  w.Var(entry.runs.size());
  for (const fs::Extent& run : entry.runs) {
    w.Var(run.start);
    w.Var(run.count);
  }
  return w.Take();
}

Status ParseEntry(std::span<const std::uint8_t> buf, FsdEntry* out) {
  constexpr std::uint64_t kU32Limit = std::uint64_t{1} << 32;
  auto malformed = [] {
    return MakeError(ErrorCode::kCorruptMetadata, "malformed name entry");
  };
  ByteReader r(buf);
  out->uid = r.Var();
  const std::uint64_t keep = r.Var();
  out->byte_size = r.Var();
  out->create_time = r.Var();
  out->last_used = r.Var();
  const std::uint64_t leader_lba = r.Var();
  const std::uint64_t nruns = r.Var();
  if (!r.ok() || keep > 0xFFFF || leader_lba >= kU32Limit ||
      nruns > RunAllocator::kMaxRuns) {
    return malformed();
  }
  out->keep = static_cast<std::uint16_t>(keep);
  out->leader_lba = static_cast<std::uint32_t>(leader_lba);
  out->runs.clear();
  for (std::uint64_t i = 0; i < nruns; ++i) {
    const std::uint64_t start = r.Var();
    const std::uint64_t count = r.Var();
    // A run must end inside the 32-bit sector space it is addressed in.
    if (!r.ok() || start >= kU32Limit || count > kU32Limit - start) {
      return malformed();
    }
    out->runs.push_back({.start = static_cast<std::uint32_t>(start),
                         .count = static_cast<std::uint32_t>(count)});
  }
  if (r.remaining() != 0) {
    return malformed();
  }
  return OkStatus();
}

std::uint32_t RunTableCrc(const std::vector<fs::Extent>& runs) {
  ByteWriter w;
  for (const fs::Extent& run : runs) {
    w.U32(run.start);
    w.U32(run.count);
  }
  return Crc32(w.buffer());
}

std::vector<std::uint8_t> SerializeLeader(const LeaderPage& leader) {
  ByteWriter w;
  w.U32(kLeaderMagic);
  w.U64(leader.uid);
  w.U32(leader.version);
  w.U32(leader.run_crc);
  w.U16(static_cast<std::uint16_t>(leader.preamble.size()));
  for (const fs::Extent& run : leader.preamble) {
    w.U32(run.start);
    w.U32(run.count);
  }
  return SealSector(std::move(w));
}

Status ParseLeader(std::span<const std::uint8_t> sector, LeaderPage* out) {
  ByteReader r(sector);
  if (r.U32() != kLeaderMagic) {
    return MakeError(ErrorCode::kCorruptMetadata, "bad leader magic");
  }
  out->uid = r.U64();
  out->version = r.U32();
  out->run_crc = r.U32();
  const std::uint16_t n = r.U16();
  out->preamble.clear();
  for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
    fs::Extent run;
    run.start = r.U32();
    run.count = r.U32();
    out->preamble.push_back(run);
  }
  if (!r.ok()) {
    return MakeError(ErrorCode::kCorruptMetadata, "truncated leader");
  }
  if (!CheckSeal(sector, r.position())) {
    return MakeError(ErrorCode::kCorruptMetadata, "leader crc mismatch");
  }
  // SerializeLeader zero-pads the sector after the CRC; anything else there
  // is not a leader it wrote.
  const auto padding = sector.subspan(r.position() + 4);
  if (std::any_of(padding.begin(), padding.end(),
                  [](std::uint8_t b) { return b != 0; })) {
    return MakeError(ErrorCode::kCorruptMetadata, "leader padding not zero");
  }
  return OkStatus();
}

LeaderPage MakeLeader(const FsdEntry& entry, std::uint32_t version) {
  LeaderPage leader;
  leader.uid = entry.uid;
  leader.version = version;
  leader.run_crc = RunTableCrc(entry.runs);
  const std::size_t n = std::min<std::size_t>(entry.runs.size(), 4);
  leader.preamble.assign(entry.runs.begin(), entry.runs.begin() + n);
  return leader;
}

Status VerifyLeader(std::span<const std::uint8_t> sector,
                    const FsdEntry& entry, std::uint32_t version) {
  LeaderPage leader;
  CEDAR_RETURN_IF_ERROR(ParseLeader(sector, &leader));
  if (leader.uid != entry.uid) {
    return MakeError(ErrorCode::kCorruptMetadata, "leader uid mismatch");
  }
  if (leader.version != version) {
    return MakeError(ErrorCode::kCorruptMetadata, "leader version mismatch");
  }
  if (leader.run_crc != RunTableCrc(entry.runs)) {
    return MakeError(ErrorCode::kCorruptMetadata,
                     "leader run-table checksum mismatch");
  }
  return OkStatus();
}

}  // namespace cedar::core
