// FSD volume layout and configuration.
//
// Placement follows the paper's locality principle (section 5): the log and
// both name-table copies sit on the central cylinders to minimize head
// motion, with the full log region between the copies so a 1-2 sector
// failure never hits both; small files are allocated next to that complex
// and big files at the volume's edges (src/core/allocator.h); boot-critical
// pages are replicated with a blank sector between the copies.

#ifndef CEDAR_CORE_LAYOUT_H_
#define CEDAR_CORE_LAYOUT_H_

#include <cstdint>

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
// Validate() rejects inconsistent combinations; Format() and Mount() call
// it and fail fast with kInvalidArgument instead of misbehaving later.
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
    // behavior in hash-map order — the unbatched baseline bench_flush
    // measures against.
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

  // Checks the configuration for internal consistency. Returns
  // kInvalidArgument naming the offending field(s) otherwise. Format() and
  // Mount() call this and refuse to run on a bad config; callers building
  // configs programmatically should call it before constructing an Fsd
  // (the log's size invariant is a hard CHECK at construction).
  Status Validate() const;
};

struct FsdLayout {
  // Bad-sector remap region (DESIGN.md section 4h): a tiny directory
  // (duplicated, non-adjacent) mapping permanently bad name-table home
  // sectors to spare sectors, plus the spare pool itself. Only name-table
  // home LBAs are ever remapped — leaders are reconstructible from their
  // entries, the root is triple-written, and the VAM is rebuildable.
  static constexpr std::uint32_t kRemapDirCopies = 2;
  static constexpr std::uint32_t kRemapSpares = 14;

  sim::Lba root_lba = 0;  // volume root, copy at root_lba + 2
  sim::Lba vam_base = 0;
  std::uint32_t vam_sectors = 0;
  sim::Lba remap_base = 0;  // [dir][dir'][spares...]
  std::uint32_t remap_sectors = 0;
  sim::Lba ntb_base = 0;  // name-table replica: central, below the log
  sim::Lba log_base = 0;  // central cylinders
  sim::Lba nta_base = 0;  // name-table primary, right after the log
  sim::Lba nta_end = 0;   // one past the primary: the complex's end
  sim::Lba data_low = 0;  // first sector eligible for file data
  sim::Lba data_high = 0; // one past the last data sector

  // The central metadata complex, [complex_begin(), nta_end): replica B,
  // the log and primary A. It is never file space.
  sim::Lba complex_begin() const { return ntb_base; }
  bool InMetadataComplex(sim::Lba start, std::uint32_t count = 1) const {
    return start + count > ntb_base && start < nta_end;
  }

  // The whole metadata complex — replica B, log, primary A — sits on the
  // central cylinders (paper sections 5.1/5.3: log and name table are
  // "allocated to sectors near the central cylinder"). The two name-table
  // copies are separated by the full log region, i.e. several cylinders, so
  // a 1-2 sector failure (the paper's model) can never hit both, while
  // double-reads cost only a short seek.
  static FsdLayout Compute(const sim::DiskGeometry& geometry,
                           const FsdConfig& config) {
    FsdLayout layout;
    // Leader cache keys reserve bit 31 (Fsd::kLeaderKeyBit), so one FSD
    // volume is bounded to 2^31 sectors (1 TiB). Larger devices are sharded
    // across volumes by the router in src/volume.
    CEDAR_CHECK(geometry.TotalSectors() <= (std::uint64_t{1} << 31));
    layout.root_lba = 0;
    layout.vam_base = 4;
    // Header sector + free bitmap + name-table page bitmap.
    const std::uint64_t vam_bits = geometry.TotalSectors();
    const std::uint64_t nt_bits = config.nt_pages;
    layout.vam_sectors = static_cast<std::uint32_t>(
        1 + (vam_bits + 4095) / 4096 + (nt_bits + 4095) / 4096);

    const std::uint32_t central_span =
        2 * config.nt_pages + config.log_sectors;
    const std::uint32_t spc = geometry.SectorsPerCylinder();
    const std::uint32_t central_cyls = (central_span + spc - 1) / spc;
    const std::uint32_t first_cyl =
        geometry.CenterCylinder() >= central_cyls / 2
            ? geometry.CenterCylinder() - central_cyls / 2
            : 0;
    layout.ntb_base = geometry.CylinderStart(first_cyl);
    layout.log_base = layout.ntb_base + config.nt_pages;
    layout.nta_base = layout.log_base + config.log_sectors;
    layout.nta_end = layout.nta_base + config.nt_pages;

    layout.remap_base = layout.vam_base + layout.vam_sectors;
    layout.remap_sectors = kRemapDirCopies + kRemapSpares;
    layout.data_low = layout.remap_base + layout.remap_sectors;
    layout.data_high = geometry.TotalSectors();

    CEDAR_CHECK(layout.data_low < layout.ntb_base);
    CEDAR_CHECK(layout.nta_end < layout.data_high);
    return layout;
  }
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_LAYOUT_H_
