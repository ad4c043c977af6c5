// The FSD redo log (paper section 5.3).
//
// A circular region of the disk, placed near the central cylinder, holding
// physical page images of file-name-table pages and leader pages. Layout:
//
//   base+0   pointer page: offset, lsn and boot of the first valid record
//            in the oldest third (replicated at base+2 with a blank page
//            between — the same data is never written to adjacent sectors)
//   base+1   blank
//   base+2   pointer copy
//   base+3   blank
//   base+4.. record area, divided into three equal "thirds"
//
// A record with n pages occupies 2n+5 sectors, written in ONE disk request:
//
//   [header][blank][header'][D1..Dn][end][D1'..Dn'][end']
//
// so a one-page record is seven 512-byte sectors (the paper's number), and
// any one- or two-sector failure inside the record is repairable from the
// copies and detectable by matching the header and end pairs.
//
// Records never straddle a third boundary (or the end of the area): a skip
// marker sector is written and the record starts at the boundary. Entering
// a new third first invokes the owner's third-entry callback — a
// synchronous checkpoint that writes home every page whose only durable
// copy lives in that third — then durably advances the oldest-third
// pointer. This simple scheme keeps an average of 5/6 of the log in use.

#ifndef CEDAR_CORE_LOG_H_
#define CEDAR_CORE_LOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/device.h"
#include "src/util/status.h"

namespace cedar::core {

inline constexpr sim::Lba kNoLba = 0xFFFFFFFFu;

// One logged page: its image and where it lives on disk (secondary is
// kNoLba for leader pages, which have a single home).
//
// kTombstone cancels any earlier in-log image of the same primary LBA
// during replay. Deletes log one for the leader page: without it, a crash
// after the freed sector was reallocated would let replay write the dead
// file's leader over the new owner's data.
//
// kVamDelta pages carry serialized allocation-map changes (the paper's
// considered-but-deferred "VAM logging" extension, section 5.3); they have
// no home sectors and are interpreted by the owner at recovery.
enum class PageKind : std::uint8_t {
  kPage = 0,
  kTombstone = 1,
  kVamDelta = 2,
};

struct PageImage {
  sim::Lba primary = kNoLba;
  sim::Lba secondary = kNoLba;
  PageKind kind = PageKind::kPage;
  std::vector<std::uint8_t> data;  // exactly one sector
};

// Thread safety: FsdLog's append/recover paths run under the owning file
// system's force lock (there is exactly one log writer at a time — the
// group-commit discipline demands it).
//
// Counters (registered in the owner's metrics registry):
//   log.pages_logged     page images written in records
//   log.sectors_written  record, skip-marker and pointer sectors
//   log.markers          skip markers
//   log.third_entries    thirds entered (each one a third-entry checkpoint)
//   log.record_sectors   histogram of record sizes in sectors: its count is
//                        the records written, its sum and max the section
//                        5.4 size figures
// They count from the registry's last reset, which the owner does at
// Format only: they keep counting across a clean Shutdown + Mount, although
// the clean Mount re-formats the log itself.
class FsdLog {
 public:
  // Third-entry callback: the third about to be overwritten holds exactly
  // the live records with lsn < `target_lsn` (the oldest live record
  // outside it, or next_lsn() when there is none). The owner must write
  // home every page whose latest logged image is in one of them.
  using ThirdEntryFn = std::function<Status(std::uint64_t target_lsn)>;

  static constexpr std::uint32_t kMaxPagesPerRecord = 52;

  FsdLog(sim::BlockDevice* disk, sim::Lba base, std::uint32_t size_sectors,
         obs::MetricsRegistry* metrics);

  // Initializes an empty log (pointer at offset 0).
  Status Format(std::uint32_t boot_count);

  // Appends one whole commit group, handling skip markers, third entry
  // (callback + pointer update), and wrap. The images are chunked into
  // records of at most kMaxPagesPerRecord — each one disk write — tagged
  // with group start/end flags: recovery replays a group only when its
  // final record survived, so a multi-record force stays atomic. The
  // load-bearing part: space for the ENTIRE group is reserved up front, so
  // a group never straddles a third boundary. That guarantees
  // recovery sees all of the group's records or none (no orphaned tails
  // whose start third was reclaimed mid-group), which is what makes a
  // multi-record force atomic. pages.size() must be <= MaxGroupPages().
  // Returns the LSN of the group's first record (never that of a skip
  // marker written ahead of it) — the tag the owner's checkpoint selects on.
  Result<std::uint64_t> AppendGroup(std::span<const PageImage> pages,
                                    const ThirdEntryFn& enter_third);

  // Largest page count AppendGroup accepts: the biggest group whose total
  // sectors still fit strictly inside one third (of `third_sectors`).
  std::uint32_t MaxGroupPages() const {
    return MaxGroupPagesIn(third_sectors());
  }
  static std::uint32_t MaxGroupPagesIn(std::uint32_t third_sectors);

  // Total sectors a group of n pages occupies once chunked into records.
  static std::uint32_t GroupSectors(std::uint32_t n) {
    const std::uint32_t records =
        (n + kMaxPagesPerRecord - 1) / kMaxPagesPerRecord;
    return 2 * n + 5 * records;
  }

  // Re-reads and validates the on-disk oldest-record pointer (both copies);
  // the structural well-formedness probe used by Fsck.
  Status ValidatePointer();

  // Replays the log after a crash: scans records from the oldest-third
  // pointer, repairs single-sector damage from the duplicate copies, and
  // calls `visit(lsn, pages)` for each complete record in order. The chain
  // starts at the record the pointer names — its lsn, stamped by the
  // pointer's boot or a later one (a crash mount that found no record
  // appends there under its own boot) — and continues through consecutive
  // lsns whose boot never decreases; it stops at the first record that
  // breaks either rule or is invalid/torn, so a record an earlier boot left
  // behind is never replayed. Afterwards the log is positioned to continue
  // appending (with `boot_count` stamped on new records).
  Status Recover(const std::function<Status(
                     std::uint64_t, const std::vector<PageImage>&)>& visit,
                 std::uint32_t boot_count);

  // ---- Continuous checkpoint interface. Like the append path, these run
  // under the owner's force lock: there is one log writer at a time, and
  // the checkpointer counts as a writer (it moves the durable pointer).

  // Sectors of log between the oldest live record and the append position —
  // exactly what a crash-now mount would scan. 0 when the log is empty.
  std::uint32_t LiveSectors() const;

  // Picks an advance target for a checkpoint: the first group-start
  // boundary whose remaining live span is <= `goal_sectors` (0 asks for the
  // maximal safe advance). Targets are always commit-group boundaries —
  // advancing into the middle of a group would make recovery start at a
  // groupless tail — and always leave at least one live record, so the
  // persisted pointer keeps naming a real record. Returns 0 when there is
  // nothing to drop (fewer than two records, or no boundary).
  std::uint64_t CheckpointTarget(std::uint32_t goal_sectors) const;

  // Durably advances the oldest-record pointer past every record with
  // lsn < target_lsn. `target_lsn` must come from CheckpointTarget(). The
  // caller must already have written home (and flushed) every page whose
  // only durable copy lives in the dropped records. Returns the number of
  // records dropped from the replay window.
  Result<std::uint32_t> AdvanceCheckpoint(std::uint64_t target_lsn);

  std::uint32_t record_area_sectors() const { return size_sectors_ - 4; }
  std::uint32_t third_sectors() const { return record_area_sectors() / 3; }
  int current_third() const { return current_third_; }
  std::uint64_t next_lsn() const { return next_lsn_; }

  // Sectors a record with n pages occupies (for capacity planning/tests).
  static std::uint32_t RecordSectors(std::uint32_t n) { return 2 * n + 5; }

 private:
  static constexpr std::uint32_t kNoOffset = 0xFFFFFFFFu;

  // One element of the live-record index: every record (and skip marker)
  // between the persisted oldest pointer and pos_, in LSN order. The front
  // is what the on-disk pointer names; checkpoints pop from the front,
  // third reclamation pops whole thirds, appends push at the back.
  struct LiveRecord {
    std::uint64_t lsn = 0;
    std::uint32_t offset = 0;      // within the record area
    bool group_boundary = true;    // group-start record or standalone marker
    std::uint32_t boot = 0;        // the boot that wrote it
  };

  int ThirdOf(std::uint32_t offset) const {
    const std::uint32_t t = offset / third_sectors();
    return static_cast<int>(t > 2 ? 2 : t);
  }
  std::uint32_t ThirdStart(int third) const {
    return static_cast<std::uint32_t>(third) * third_sectors();
  }
  sim::Lba AreaLba(std::uint32_t offset) const { return base_ + 4 + offset; }

  // The pointer pair names oldest_; ReadPointer returns the record it names
  // (group_boundary unset).
  Status WritePointer();
  Result<LiveRecord> ReadPointer();
  // Skip-marker + third-entry handling for an append of `len` sectors:
  // ensures [pos_, pos_+len) lies inside one third, invoking `enter_third`
  // and advancing the oldest pointer when a new third is entered.
  Status PrepareSpace(std::uint32_t len, const ThirdEntryFn& enter_third);
  // Appends one already-prepared record at pos_ (no boundary handling).
  Status AppendPrepared(std::span<const PageImage> pages, bool group_start,
                        bool group_end);

  std::vector<std::uint8_t> BuildHeaderSector(std::span<const PageImage> pages,
                                              bool group_start,
                                              bool group_end) const;
  // An end or skip-marker sector: {magic, next lsn, boot, crc}.
  std::vector<std::uint8_t> BuildStamp(std::uint32_t magic) const;

  sim::BlockDevice* disk_;
  sim::Lba base_;
  std::uint32_t size_sectors_;

  std::uint64_t next_lsn_ = 1;
  std::uint32_t boot_count_ = 0;
  std::uint32_t pos_ = 0;  // next write offset within the record area
  int current_third_ = 0;
  LiveRecord oldest_;  // the record the on-disk pointer names
  std::deque<LiveRecord> live_;

  obs::Counter* pages_logged_;
  obs::Counter* sectors_written_;
  obs::Counter* markers_;
  obs::Counter* third_entries_;
  obs::Histogram* record_sectors_;
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_LOG_H_
