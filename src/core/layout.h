// FSD volume layout and configuration.
//
// Placement follows the paper's locality principle (section 5): the log and
// both name-table copies sit on the central cylinders to minimize head
// motion. The name table is a band of cylinders after the log; each band
// cylinder holds a run of primaries on its lower tracks and the replicas of
// the same pages on its upper tracks, so a miss reads both copies without a
// seek while no track holds both copies of a page. Small files are
// allocated next to that complex and big files at the volume's edges
// (src/core/allocator.h); boot-critical pages are replicated with a blank
// sector between the copies.

#ifndef CEDAR_CORE_LAYOUT_H_
#define CEDAR_CORE_LAYOUT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/sim/clock.h"
#include "src/sim/geometry.h"
#include "src/util/check.h"
#include "src/util/status.h"

namespace cedar::core {

// FSD volume configuration, grouped by concern:
//
//   - top level: on-disk geometry knobs (these are parsed back out of the
//     volume root at mount, so they must stay flat and stable)
//   - commit:     group-commit policy (interval, executor, group size)
//   - checkpoint: continuous checkpoint policy (recovery window)
//   - durability: read/write hardening and recovery ablations
//   - cpu:        the virtual CPU cost model
//
// Validate(geometry) rejects inconsistent combinations and a config that
// does not fit the disk; Format() and Mount() return its kInvalidArgument
// instead of misbehaving later.
struct FsdConfig {
  // ---- On-disk geometry (persisted in the volume root).

  // Log region size in sectors (4 pointer/blank sectors + three thirds).
  std::uint32_t log_sectors = 1540;
  // Name table size, in 512-byte tree pages (= sectors); two full replicas
  // of this size are preallocated.
  std::uint32_t nt_pages = 4096;
  // Files at least this many sectors long allocate inward from the volume's
  // edges; shorter ones outward from the central metadata complex (section
  // 5.6, src/core/allocator.h).
  std::uint32_t big_file_threshold_sectors = 64;
  // Buffer pool frames (name-table pages + pending leader pages).
  std::size_t cache_frames = 8192;

  // ---- Group-commit policy.
  struct Commit {
    // Group commit: the log is forced when this much virtual time has
    // passed since the last force ("FSD forces its log twice a second").
    sim::Micros interval = 500 * sim::kMillisecond;
    // Which executor runs the commit and checkpoint rounds
    // (src/core/rounds.h). On: each runs on a background daemon thread;
    // Force() and the half-second deadline request a round and block until
    // it covers them, so concurrent clients share one log write (paper
    // section 3.2). Off (the default): the rounds are stepped on the
    // calling thread — a commit round where the op asks for it, a
    // checkpoint round at the op's lock-free tail — so single-threaded
    // tests, benches and the crash harness are deterministic. Stepped
    // rounds serve one client thread at a time; concurrent clients want on.
    bool daemon = false;
    // Records per atomic commit group. Forces larger than one record are
    // split into records tagged with group start/end flags; recovery
    // discards incomplete groups, so a multi-record force stays atomic. A
    // group must stay well under a log third; 4 records (~436 sectors) is
    // safe for the default sizing. 1 disables group atomicity (ablation).
    std::uint32_t group_records = 4;
  };
  Commit commit;

  // ---- Continuous checkpoint policy.
  struct Checkpoint {
    // Run the continuous checkpoint round: it incrementally writes home
    // pages for the oldest log region and advances the persisted checkpoint
    // pointer, keeping the live log (the recovery window) bounded by
    // `window_sectors` instead of letting it grow until a stop-the-world
    // third flush. A force requests a round when the live log exceeds the
    // window; commit.daemon picks where it runs (a thread, or stepped at
    // the forcing op's tail).
    bool daemon = false;
    // Recovery-window bound in log sectors: a round starts checkpointing
    // when the live log exceeds this and drains it back to about half. 0
    // means "one log third" — what the third-entry checkpoint alone bounds.
    std::uint32_t window_sectors = 0;
  };
  Checkpoint checkpoint;

  // ---- Durability / hardening knobs.
  struct Durability {
    // Read both name-table copies on a cache miss and cross-check, per
    // section 5.1; turning this off is an ablation.
    bool double_read_check = true;
    // Pages fetched per name-table miss (aligned cluster, one request per
    // region). Our tree pages are one sector; the original's were larger,
    // so clustered fetch reproduces its entries-per-read.
    std::uint32_t nt_read_ahead_pages = 8;
    // VAM logging (the extension sketched in section 5.3): allocation-map
    // deltas ride in every log record and a VAM snapshot is saved at each
    // checkpoint, so crash recovery skips the name-table scan — "about two
    // seconds" instead of ~25. Off by default, like the original system.
    bool vam_logging = false;
    // Elevator-order and coalesce home writebacks (checkpoints, third
    // flush, shutdown, recovery replay, repairs) through the
    // sim::IoScheduler. Off reproduces the historical one-write-per-page
    // behavior in hash-map order — the unbatched baseline bench_paper's
    // writeback section measures against.
    bool batched_writeback = true;
  };
  Durability durability;

  // ---- CPU cost model (virtual microseconds); calibration in
  // EXPERIMENTS.md.
  struct CpuModel {
    std::uint64_t per_op = 1200;
    std::uint64_t per_sector_io = 80;
    // Data-path copy cost (buffer moves per 512-byte sector); dominates the
    // CPU column of Table 5.
    std::uint64_t per_data_sector = 200;
    std::uint64_t per_list_entry = 150;
    // Per name-table entry processed when reconstructing the VAM (the bulk
    // of the paper's ~20 second rebuild on a Dorado).
    std::uint64_t per_rebuild_entry = 1800;
  };
  CpuModel cpu;

  // The smallest checkpoint.window_sectors Validate() accepts: one commit
  // group, as clamped to this log's thirds.
  std::uint32_t MinCheckpointWindowSectors() const;

  // Checks the configuration for internal consistency and its fit to
  // `geometry`: the name-table band must hold a whole read-ahead cluster
  // and put a page's copies at least a track apart, and the metadata
  // complex must fit (FsdLayout::Plan). Returns kInvalidArgument naming the
  // offending field(s) otherwise. An Fsd keeps this status from its
  // construction, and Format() and Mount() return it on a bad pair (the
  // log's size invariant alone is a hard CHECK at construction).
  Status Validate(const sim::DiskGeometry& geometry) const;
};

struct FsdLayout {
  // Bad-sector remap region (DESIGN.md section 4h): a tiny directory
  // (duplicated, non-adjacent) mapping permanently bad name-table home
  // sectors to spare sectors, plus the spare pool itself. Only name-table
  // home LBAs are ever remapped — leaders are reconstructible from their
  // entries, the root is triple-written, and the VAM is rebuildable.
  static constexpr std::uint32_t kRemapDirCopies = 2;
  static constexpr std::uint32_t kRemapSpares = 14;

  // The two home copies of a name-table page (NtHome's `copy`).
  static constexpr int kPrimary = 0;
  static constexpr int kReplica = 1;

  sim::Lba root_lba = 0;  // volume root, copy at root_lba + 2
  sim::Lba vam_base = 0;
  std::uint32_t vam_sectors = 0;
  sim::Lba remap_base = 0;  // [dir][dir'][spares...]
  std::uint32_t remap_sectors = 0;
  sim::Lba log_base = 0;  // central cylinders; the bands follow it
  sim::Lba nt_base = 0;   // the first name-table band cylinder
  sim::Lba nt_end = 0;    // one past the last page's replica: complex's end
  std::uint32_t nt_pages = 0;
  // Pages per band: each band cylinder holds nt_band primaries on its
  // lower tracks and their replicas nt_band sectors later, on its upper
  // tracks. nt_cylinder is the band stride (sectors per cylinder). The
  // band depends on the read-ahead cluster, so the volume root records it
  // and Mount refuses a config that would look for the pages elsewhere.
  std::uint32_t nt_band = 0;
  std::uint32_t nt_cylinder = 0;
  sim::Lba data_low = 0;  // first sector eligible for file data
  sim::Lba data_high = 0; // one past the last data sector

  // The central metadata complex, [complex_begin(), complex_end()): the
  // log, then the name-table bands. It is never file space.
  sim::Lba complex_begin() const { return log_base; }
  sim::Lba complex_end() const { return nt_end; }
  bool InMetadataComplex(sim::Lba start, std::uint32_t count = 1) const {
    return start + count > complex_begin() && start < complex_end();
  }

  // The one page-to-sector mapping of the name table: the home of page
  // `pid`'s primary (copy kPrimary) or replica (kReplica), before any
  // bad-sector remap. A page's replica sits nt_band sectors after its
  // primary, on the same cylinder but at least a track later.
  sim::Lba NtHome(int copy, std::uint32_t pid) const {
    return nt_base + static_cast<sim::Lba>(pid / nt_band) * nt_cylinder +
           pid % nt_band + (copy == kReplica ? nt_band : 0);
  }
  // NtHome's inverse: the copy whose home is `lba`, or nullopt for any
  // other sector (outside the bands, a band cylinder's spare tail, or past
  // the last page).
  struct NtCopyRef {
    std::uint32_t pid = 0;
    bool replica = false;
  };
  std::optional<NtCopyRef> NtCopyAt(sim::Lba lba) const {
    if (lba < nt_base || lba >= nt_end) {
      return std::nullopt;
    }
    const sim::Lba off = lba - nt_base;
    const auto within = static_cast<std::uint32_t>(off % nt_cylinder);
    if (within >= 2 * nt_band) {
      return std::nullopt;
    }
    const bool replica = within >= nt_band;
    const auto pid = static_cast<std::uint32_t>(
        off / nt_cylinder * nt_band + within - (replica ? nt_band : 0));
    if (pid >= nt_pages) {
      return std::nullopt;
    }
    return NtCopyRef{.pid = pid, .replica = replica};
  }
  // Pages `first` and `last` share a band, so the run between them is
  // contiguous in each copy.
  bool SameNtBand(std::uint32_t first, std::uint32_t last) const {
    return first / nt_band == last / nt_band;
  }

  // Pages per band on `geometry`: the largest multiple of the read-ahead
  // cluster that fits in half a cylinder (0 when no cluster fits).
  static std::uint32_t NtBandPages(const sim::DiskGeometry& geometry,
                                   const FsdConfig& config) {
    const std::uint32_t cluster = config.durability.nt_read_ahead_pages;
    return cluster == 0
               ? 0
               : geometry.SectorsPerCylinder() / 2 / cluster * cluster;
  }

  // The whole metadata complex — the log, then the name-table bands —
  // sits on the central cylinders (paper sections 5.1/5.3: log and name
  // table are "allocated to sectors near the central cylinder"). Both
  // copies of a page share one band cylinder, so the miss path's
  // double-read (section 5.1) reaches the replica with no seek. They sit
  // at least a track apart, so neither a 1-2 sector failure (the paper's
  // model) nor the loss of a whole track hits both. Page 0, where page
  // allocation starts, is on the cylinder next to the log. `config` must
  // have nt_pages > 0 (Validate checks it first). Fails kInvalidArgument
  // when a band cannot hold one read-ahead cluster, when the copies would
  // sit less than a track (or two sectors) apart, or when the complex does
  // not fit between the boot area and the volume's end.
  static Result<FsdLayout> Plan(const sim::DiskGeometry& geometry,
                                const FsdConfig& config) {
    auto invalid = [](const std::string& why) {
      return MakeError(ErrorCode::kInvalidArgument, why);
    };
    // Leader cache keys reserve bit 31 (Fsd::kLeaderKeyBit), so one FSD
    // volume is bounded to 2^31 sectors (1 TiB). Larger devices are sharded
    // across volumes by the router in src/volume.
    if (geometry.TotalSectors() > (std::uint64_t{1} << 31)) {
      return invalid("volume larger than 2^31 sectors");
    }
    CEDAR_CHECK(config.nt_pages > 0);
    FsdLayout layout;
    layout.nt_pages = config.nt_pages;
    layout.nt_band = NtBandPages(geometry, config);
    layout.nt_cylinder = geometry.SectorsPerCylinder();
    if (layout.nt_band == 0) {
      return invalid("a name-table band (half a cylinder) cannot hold one "
                     "durability.nt_read_ahead_pages cluster");
    }
    if (layout.nt_band < geometry.sectors_per_track || layout.nt_band < 2) {
      return invalid("name-table copies would sit less than a track apart: "
                     "band of " + std::to_string(layout.nt_band) +
                     " pages, track of " +
                     std::to_string(geometry.sectors_per_track));
    }
    layout.root_lba = 0;
    layout.vam_base = 4;
    // Header sector + free bitmap + name-table page bitmap.
    const std::uint64_t vam_bits = geometry.TotalSectors();
    const std::uint64_t nt_bits = config.nt_pages;
    layout.vam_sectors = static_cast<std::uint32_t>(
        1 + (vam_bits + 4095) / 4096 + (nt_bits + 4095) / 4096);
    layout.remap_base = layout.vam_base + layout.vam_sectors;
    layout.remap_sectors = kRemapDirCopies + kRemapSpares;
    layout.data_low = layout.remap_base + layout.remap_sectors;
    layout.data_high = geometry.TotalSectors();

    const std::uint32_t spc = layout.nt_cylinder;
    const std::uint32_t log_cyls = (config.log_sectors + spc - 1) / spc;
    const std::uint32_t band_cyls =
        (config.nt_pages + layout.nt_band - 1) / layout.nt_band;
    const std::uint32_t central_cyls = log_cyls + band_cyls;
    const std::uint32_t first_cyl =
        geometry.CenterCylinder() >= central_cyls / 2
            ? geometry.CenterCylinder() - central_cyls / 2
            : 0;
    // Both start on a cylinder boundary, so the complex shares no track
    // with file data; the log's last cylinder may end in a few idle sectors.
    layout.log_base = geometry.CylinderStart(first_cyl);
    layout.nt_base = geometry.CylinderStart(first_cyl + log_cyls);
    layout.nt_end = layout.NtHome(kReplica, config.nt_pages - 1) + 1;
    if (layout.data_low >= layout.complex_begin() ||
        layout.complex_end() >= layout.data_high) {
      return invalid("the log and name table do not fit on this geometry");
    }
    return layout;
  }

  // Plan for a geometry and config that pass FsdConfig::Validate(geometry);
  // a bad pair is a CHECK failure.
  static FsdLayout Compute(const sim::DiskGeometry& geometry,
                           const FsdConfig& config) {
    Result<FsdLayout> layout = Plan(geometry, config);
    CEDAR_CHECK(layout.ok());
    return *layout;
  }
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_LAYOUT_H_
