// The FSD file name table entry and the leader page (paper sections 5.1,
// 5.2, Table 1).
//
// FSD moves everything that CFS kept in per-file header sectors into the
// name-table entry itself: uid, run table, byte size, create time, keep.
// This gives "list" and "open" their speedups — the properties arrive with
// the name — and works because a file has at most one name.
//
// The leader page is the single sector preceding data page 0. It carries a
// preamble of the run table and a checksum of the full run table, and is
// used ONLY as a software cross-check (a different data structure that must
// agree with the name table); it is not needed for recovery.

#ifndef CEDAR_CORE_NAME_TABLE_H_
#define CEDAR_CORE_NAME_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fsapi/extent.h"
#include "src/fsapi/file_system.h"
#include "src/util/status.h"

namespace cedar::core {

struct FsdEntry {
  fs::FileUid uid = 0;
  std::uint16_t keep = 0;  // versions retained after a create; 0 = unlimited
  std::uint64_t byte_size = 0;
  std::uint64_t create_time = 0;
  std::uint64_t last_used = 0;
  std::uint32_t leader_lba = 0;
  std::vector<fs::Extent> runs;  // data extents (leader NOT included)
};

// The entry is one LEB128 varint per field, in declaration order, the run
// count before the runs (DESIGN.md section 5). ParseEntry accepts exactly
// the bytes SerializeEntry writes: anything else, including a field out of
// its type's range or more than RunAllocator::kMaxRuns runs, is
// kCorruptMetadata.
std::vector<std::uint8_t> SerializeEntry(const FsdEntry& entry);
Status ParseEntry(std::span<const std::uint8_t> buf, FsdEntry* out);

// CRC over the serialized run table, stored in both the entry's leader page
// and recomputed from the entry for verification.
std::uint32_t RunTableCrc(const std::vector<fs::Extent>& runs);

// ---- Leader page (one sector).

struct LeaderPage {
  fs::FileUid uid = 0;
  std::uint32_t version = 0;
  std::uint32_t run_crc = 0;  // checksum of the full run table
  std::vector<fs::Extent> preamble;  // first few runs (<= 4)
};

std::vector<std::uint8_t> SerializeLeader(const LeaderPage& leader);
Status ParseLeader(std::span<const std::uint8_t> sector, LeaderPage* out);

// Builds the leader for a file entry.
LeaderPage MakeLeader(const FsdEntry& entry, std::uint32_t version);

// Verifies a leader sector against the authoritative entry; any mismatch is
// a software bug or corruption caught by the mutual-checking design.
Status VerifyLeader(std::span<const std::uint8_t> sector,
                    const FsdEntry& entry, std::uint32_t version);

}  // namespace cedar::core

#endif  // CEDAR_CORE_NAME_TABLE_H_
