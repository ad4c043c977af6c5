// The FSD Volume Allocation Map (paper section 5.5).
//
// Entirely volatile during normal operation: no disk writes at all. Pages of
// deleted files — and name-table pages the B-tree frees — go to a *shadow*
// bitmap first, because they are not really free until the change is
// committed (logged); CommitShadow() folds them into the free maps at each
// group commit. So a saved map (the VAM-logging base) never shows a page
// free that a crash could bring back into use.
//
// The map is saved to its disk region only on orderly shutdown, stamped with
// the boot count; at mount a stamp mismatch means the save is stale and the
// map must be reconstructed from the name table (the caller does the scan).
//
// Thread safety: none of its own. FSD guards all four maps with its
// allocation lock (alloc_mu_), the same lock that covers the allocator scans
// and the queues a log capture swaps; mount recovery, Scrub and Fsck use the
// map quiesced.

#ifndef CEDAR_CORE_VAM_H_
#define CEDAR_CORE_VAM_H_

#include <cstdint>

#include "src/fsapi/extent.h"
#include "src/sim/device.h"
#include "src/util/bitmap.h"
#include "src/util/status.h"

namespace cedar::core {

// One allocation-map change, for the VAM-logging extension (the paper's
// section 5.3 "YAM logging ... would greatly decrease worst case crash
// recovery time from about twenty five seconds to about two seconds").
// Deltas ride in the log's kVamDelta pages; recovery applies them over the
// last base snapshot instead of scanning the whole name table.
struct VamDelta {
  enum class Op : std::uint8_t {
    kAlloc = 0,    // data sectors became used
    kFree = 1,     // data sectors became free (at commit)
    kNtAlloc = 2,  // a name-table page was allocated
    kNtFree = 3,
  };
  Op op = Op::kAlloc;
  std::uint32_t start = 0;
  std::uint32_t count = 0;
};

// Packs deltas into 512-byte log pages (kVamDeltasPerPage per page) and
// back. The constant is exported so FSD's log-space accounting can predict
// how many pages a pending delta queue will occupy. ParseDeltas fails
// kCorruptMetadata on a page that is not exactly what SerializeDeltas
// writes, or whose deltas reach past a volume of `total_sectors` sectors
// and `nt_pages` name-table pages.
inline constexpr std::size_t kVamDeltasPerPage = 56;
std::vector<std::vector<std::uint8_t>> SerializeDeltas(
    std::span<const VamDelta> deltas);
Status ParseDeltas(std::span<const std::uint8_t> page,
                   std::uint32_t total_sectors, std::uint32_t nt_pages,
                   std::vector<VamDelta>* out);

class Vam {
 public:
  // A volume of these dimensions with every sector and page in use.
  Vam(std::uint32_t total_sectors, std::uint32_t nt_pages)
      : free_(total_sectors, false),
        shadow_(total_sectors, false),
        nt_free_(nt_pages, false),
        nt_shadow_(nt_pages, false) {}

  // ---- Free map.
  Bitmap& free() { return free_; }
  const Bitmap& free() const { return free_; }
  bool IsFree(std::uint32_t lba) const { return free_.Get(lba); }
  void MarkUsed(const fs::Extent& run) {
    free_.SetRange(run.start, run.count, false);
  }
  void MarkFree(const fs::Extent& run) {
    free_.SetRange(run.start, run.count, true);
  }
  std::uint32_t FreeCount() const { return free_.Count(); }

  // ---- Shadow map for uncommitted deletes.
  void MarkFreeShadow(const fs::Extent& run) {
    shadow_.SetRange(run.start, run.count, true);
  }
  void MarkNtFreeShadow(std::uint32_t pid) { nt_shadow_.Set(pid, true); }
  void CommitShadow() { FoldShadow(TakeShadow()); }
  std::uint32_t ShadowCount() const { return shadow_.Count(); }

  // ---- Shadow handoff for the parallel commit path. The log capture phase
  // *takes* the accumulated shadow (new deletes keep shadowing into a fresh
  // map while the append runs), then folds it into the free maps once the
  // group is durable — or merges it back if the append fails.
  struct Shadow {
    Bitmap sectors;
    Bitmap nt_pages;
  };
  Shadow TakeShadow() {
    Shadow taken{std::move(shadow_), std::move(nt_shadow_)};
    shadow_ = Bitmap(taken.sectors.size(), false);
    nt_shadow_ = Bitmap(taken.nt_pages.size(), false);
    return taken;
  }
  void FoldShadow(const Shadow& taken) {
    free_.OrWith(taken.sectors);
    nt_free_.OrWith(taken.nt_pages);
  }
  void MergeShadow(const Shadow& taken) {
    shadow_.OrWith(taken.sectors);
    nt_shadow_.OrWith(taken.nt_pages);
  }

  // ---- Name-table page allocation map (piggybacks on the VAM save).
  Bitmap& nt_free() { return nt_free_; }
  const Bitmap& nt_free() const { return nt_free_; }

  // ---- Persistence (shutdown save / mount load / VAM-logging base).

  static constexpr std::uint32_t kAnyBoot = 0xFFFFFFFFu;

  // Writes the map (free bits + name-table bits) stamped with `boot_count`
  // and the log position `lsn` to `base`, as one request.
  Status Save(sim::BlockDevice* disk, sim::Lba base, std::uint32_t sectors,
              std::uint32_t boot_count, std::uint64_t lsn = 0) const;

  // Loads a saved map. `expected_boot` of kAnyBoot accepts any stamp (the
  // VAM-logging recovery path, which trusts the lsn instead); otherwise a
  // stale stamp fails with kFailedPrecondition (caller reconstructs). The
  // save's lsn is returned through `lsn` when non-null.
  Status Load(sim::BlockDevice* disk, sim::Lba base, std::uint32_t sectors,
              std::uint32_t expected_boot, std::uint64_t* lsn = nullptr);

  // Applies one delta (used by recovery).
  void Apply(const VamDelta& delta);

 private:
  Bitmap free_;
  Bitmap shadow_;
  Bitmap nt_free_;
  Bitmap nt_shadow_;
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_VAM_H_
