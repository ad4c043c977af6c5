// Mount-time recovery (paper section 5.5; DESIGN.md sections 4h and 5): the
// volume root, the redo log's replay to the home copies, the allocation map
// (VAM) — loaded, rebuilt from the log's deltas, or rebuilt by scanning the
// name table — and the one walk of the name table that the rebuild, Scrub
// and Fsck share (the mutual checking of section 5.8). Restart is REDO only:
// collect the committed images, write them home, rebuild what is volatile.
//
// It needs no Fsd: it is built from the device, the layout, the config, the
// log, the name-table store and the media-health sink, so tests run it on a
// bare disk. Fsd's Mount and MountDegraded are short sequences over it.

#ifndef CEDAR_CORE_RECOVERY_H_
#define CEDAR_CORE_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/btree/btree.h"
#include "src/core/layout.h"
#include "src/core/log.h"
#include "src/core/name_table.h"
#include "src/core/nt_store.h"
#include "src/core/vam.h"
#include "src/obs/metrics.h"
#include "src/sim/device.h"
#include "src/util/bitmap.h"
#include "src/util/status.h"

namespace cedar::core {

// The volume root: one sealed sector, written as [root][blank][copy] in one
// request so the two copies are never adjacent. Decode fails
// kCorruptMetadata on a sector that is not exactly what Encode writes for
// `geometry` (magic, geometry, a 0/1 clean flag, CRC).
struct VolumeRoot {
  std::uint32_t log_sectors = 0;
  std::uint32_t nt_pages = 0;
  // FsdLayout::nt_band at format: it follows the read-ahead cluster, so a
  // mount whose config plans another band would look for every page's
  // copies in the wrong sectors.
  std::uint32_t nt_band = 0;
  std::uint32_t boot_count = 0;
  // Name-table write-sequence high-water mark: a clean shutdown persists
  // the exact clock, every other root write a floor, so the next mount can
  // never stamp new home sectors below ones already on disk.
  std::uint32_t nt_seq = 0;
  bool clean = false;

  static std::vector<std::uint8_t> Encode(const VolumeRoot& root,
                                          const sim::DiskGeometry& geometry);
  static Result<VolumeRoot> Decode(std::span<const std::uint8_t> sector,
                                   const sim::DiskGeometry& geometry);
};

// What a crash mount redoes: the surviving page images keyed on their
// (remapped) primary home, and the VAM deltas with their record LSNs.
struct Replay {
  std::map<sim::Lba, PageImage> pages;
  std::vector<std::pair<std::uint64_t, VamDelta>> deltas;
};

// ---- The one name-table walk.

// What a walk found: every page reachable from the root, every data sector
// an entry claims, the entries that parsed, and what was wrong.
struct NtWalk {
  enum class Problem : std::uint8_t {
    kKeyUnparsable,    // the key is not a name!version
    kEntryUnparsable,  // the value is not an entry
    kOutOfBounds,      // an extent outside the file data region: not marked
    kDoubleReferenced  // one sector claimed twice (one finding per sector)
  };
  struct Finding {
    Problem problem = Problem::kKeyUnparsable;
    std::string detail;  // names the entry, the extent and the fault
  };
  std::vector<btree::PageId> live;
  Bitmap referenced;
  std::uint64_t entries = 0;
  std::vector<Finding> findings;
};

// Walks `tree`: CollectPages, then `on_pages(live)` when set, then one Scan
// of every entry. Each extent of a parsed entry is checked against the file
// data region and against the extents before it; only in-bounds sectors
// are marked in `referenced`. `on_entry` sees each parsed entry whose
// leader lies in the data region.
using NtPagesFn = std::function<Status(std::span<const btree::PageId>)>;
using NtEntryFn = std::function<void(const std::string& name,
                                     std::uint32_t version,
                                     const FsdEntry& entry)>;
Status WalkNameTable(btree::BTree& tree, const FsdLayout& layout,
                     const NtPagesFn& on_pages, const NtEntryFn& on_entry,
                     NtWalk* walk);

// The one comparison of the allocation map with a walk's result: each
// disagreement as the one-unit delta that would settle it, in ascending
// order — kFree for a data sector used but unreferenced (a leak), kAlloc
// for one referenced but free, then kNtFree for a name-table page used but
// not live, kNtAlloc for a live page marked free. Scrub applies the fixes;
// Fsck reports them.
void CompareAllocation(const Vam& vam, const FsdLayout& layout,
                       const Bitmap& referenced,
                       std::span<const btree::PageId> live,
                       const std::function<void(const VamDelta&)>& fix);

// Every file-data sector and every name-table page free, the system
// regions used: what Format starts from and the rebuild marks into.
void MarkAllFree(const FsdLayout& layout, Vam* vam);

class Recovery {
 public:
  // Reads log_sectors, nt_pages, durability.vam_logging and
  // cpu.per_rebuild_entry from `config`.
  Recovery(sim::BlockDevice* disk, const FsdLayout& layout,
           const FsdConfig& config, FsdLog* log, NtStore* nt,
           MediaHealth* health, obs::MetricsRegistry* metrics);

  // Reads both root copies and elects one: the higher boot of the copies
  // that decode. Fails when neither decodes, and kInvalidArgument (naming
  // both values, writing nothing) when the elected root's log or name-table
  // size is not the config's. Otherwise merges its sequence floor into the
  // name-table clock and rewrites a lost or stale copy from the elected
  // one, unless degraded.
  Result<VolumeRoot> ReadRoot();
  Status WriteRoot(bool clean, std::uint32_t boot_count);

  // The one log-replay collector of both mounts: the committed images,
  // keyed on their remapped home so a record captured before a remap and
  // one captured after collapse to one page (LSN order keeps the newest);
  // a tombstone cancels its leader's image, and every name-table image's
  // trailer sequence is merged into the clock. VAM delta pages are parsed
  // only when `keep_deltas`: the degraded mount passes false, so a damaged
  // delta page cannot void its replay. A page or tombstone whose homes are
  // neither a name-table page's two copies nor one file-data sector fails
  // the collection kCorruptMetadata.
  Status CollectReplay(std::uint32_t boot_count, bool keep_deltas,
                       Replay* replay);
  // A clean volume starts a fresh log; an unclean one collects the replay,
  // writes its images home (primaries before replicas) and hands back its
  // VAM deltas.
  Status Redo(bool clean, std::uint32_t boot_count,
              std::vector<std::pair<std::uint64_t, VamDelta>>* deltas);
  // The VAM without a name-table scan: a clean volume's save stamped with
  // its boot, or under VAM logging the last base plus the replayed deltas.
  // False when the caller must rebuild.
  bool LoadVam(const VolumeRoot& root,
               std::span<const std::pair<std::uint64_t, VamDelta>> deltas,
               Vam* vam);
  // Rebuilds the VAM from the images the mount sweep elected, charging
  // cpu.per_rebuild_entry per entry; an extent outside the data region is
  // left unmarked and noted unrepairable.
  Status RebuildVam(const NtImages& images, btree::PageId root, Vam* vam);

  // Runs `phase` and adds the virtual time it took to `us`.
  Status Timed(obs::Counter* us, const std::function<Status()>& phase);

  // Pages replayed from the log (the degraded mount counts the images it
  // overlays), and mounts that took the VAM-logging fast path.
  //
  // The virtual time of each mount phase, summed over mounts, in us; a
  // Mount's five phases add up to its whole time. root: the volume root
  // and remap directory reads, and the closing VAM save and root write;
  // replay read: collecting the log's images; replay write: writing them
  // home (on a clean volume, starting a fresh log); sweep: the name-table
  // sweep (Fsd::PreloadNameTable, either mount); rebuild: the allocation
  // map, loaded or rebuilt by the walk. sweep_sectors counts the home
  // sectors the sweeps read.
  struct Counters {
    obs::MetricsRegistry& m;
    obs::Counter* pages_replayed = m.GetCounter("fsd.recovery_pages_replayed");
    obs::Counter* fast_recoveries = m.GetCounter("fsd.fast_recoveries");
    obs::Counter* root_us = m.GetCounter("fsd.mount_root_us");
    obs::Counter* replay_read_us = m.GetCounter("fsd.mount_replay_read_us");
    obs::Counter* replay_write_us = m.GetCounter("fsd.mount_replay_write_us");
    obs::Counter* sweep_us = m.GetCounter("fsd.mount_sweep_us");
    obs::Counter* rebuild_us = m.GetCounter("fsd.mount_rebuild_us");
    obs::Counter* sweep_sectors = m.GetCounter("fsd.mount_sweep_sectors");
  } c;

 private:
  sim::BlockDevice* disk_;
  FsdLayout layout_;
  FsdConfig config_;
  FsdLog* log_;
  NtStore* nt_;
  MediaHealth* health_;
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_RECOVERY_H_
