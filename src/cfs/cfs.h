// CFS: the pre-FSD Cedar file system (paper sections 2 and 4), used as the
// baseline in Tables 2 and 3.
//
// Characteristics reproduced faithfully:
//  - Every sector carries a hardware label {file uid, page number, type}
//    verified in "microcode" before data moves; wild writes and stale
//    pointers are caught at the device.
//  - A file is 2 header sectors (name, properties, run table — the inode
//    analogue) plus data sectors. Most metadata is duplicated between the
//    name table, the headers, and the labels.
//  - The file name table is a B-tree of 2048-byte pages (4 sectors) mapping
//    name!version -> (uid, header address). Updates are written through,
//    non-atomically: a crash mid-write can corrupt a page, and multi-page
//    splits can be torn. Consistency is re-established by scavenging.
//  - Creating a 1-byte file costs >= 6 I/Os: verify free labels, write
//    header labels, write data label, write header, update name table,
//    write the byte, rewrite the header (section 4 / the section 6 script).
//  - The VAM (free map) is an on-disk hint with no invariants: it is loaded
//    at mount even if stale; wrong "free" hints are caught by label
//    verification and repaired, wrong "used" hints lose free space until a
//    scavenge.
//  - Scavenge() rebuilds the name table and VAM by scanning every label on
//    the volume — correct but extremely slow (Table 2's 3600+ seconds).

#ifndef CEDAR_CFS_CFS_H_
#define CEDAR_CFS_CFS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/btree/btree.h"
#include "src/btree/page_store.h"
#include "src/cache/page_cache.h"
#include "src/fsapi/file_system.h"
#include "src/obs/trace.h"
#include "src/sim/disk.h"
#include "src/util/bitmap.h"

namespace cedar::cfs {

struct CfsConfig {
  // Name table region, in 2048-byte tree pages (4 sectors each).
  std::uint32_t nt_page_count = 1024;
  std::size_t nt_cache_frames = 256;

  // CPU cost model (virtual microseconds). Calibrated so Table 2 / recovery
  // shapes land near the paper's Dorado measurements; see EXPERIMENTS.md.
  std::uint64_t cpu_per_op = 1500;
  std::uint64_t cpu_per_sector_io = 100;
  std::uint64_t cpu_per_list_entry = 300;
  std::uint64_t cpu_per_scavenge_sector = 4000;
};

struct Extent {
  sim::Lba start = 0;
  std::uint32_t count = 0;
};

// The on-disk file header (2 sectors). Serves the role of a UNIX inode.
struct FileHeader {
  fs::FileUid uid = 0;
  std::string name;
  std::uint32_t version = 0;
  std::uint16_t keep = 0;  // versions retained; 0 = unlimited
  std::uint64_t byte_size = 0;
  std::uint64_t create_time = 0;
  std::uint64_t last_used = 0;
  std::vector<Extent> runs;  // data extents, in file-page order
};

class Cfs : public fs::FileSystem {
 public:
  explicit Cfs(sim::SimDisk* disk, CfsConfig config = {});
  ~Cfs() override;

  // Initializes an empty volume (labels all free, empty name table).
  Status Format();

  // Attaches to a formatted volume; loads the VAM hint and name-table
  // allocation map. Does NOT repair corruption — that is Scavenge().
  Status Mount();

  // fs::FileSystem:
  Result<fs::FileUid> CreateFile(
      std::string_view name, std::span<const std::uint8_t> contents) override;
  Result<fs::FileHandle> Open(std::string_view name) override;
  Status Read(const fs::FileHandle& file, std::uint64_t offset,
              std::span<std::uint8_t> out) override;
  Status Write(const fs::FileHandle& file, std::uint64_t offset,
               std::span<const std::uint8_t> data) override;
  Status Extend(const fs::FileHandle& file, std::uint64_t bytes) override;
  Status DeleteFile(std::string_view name) override;
  Result<std::vector<fs::FileInfo>> List(std::string_view prefix) override;
  Status Touch(std::string_view name) override;
  Status SetKeep(std::string_view name, std::uint16_t keep) override;
  Status Close(const fs::FileHandle& file) override;
  Status Force() override;     // no-op: CFS is synchronous
  Status Shutdown() override;  // writes the VAM hint and volume root
  // Maintenance surface: the fs::FileSystem defaults. CFS writes
  // everything through synchronously, so there is nothing to checkpoint and
  // a crash-now mount replays nothing (the label scavenge is a repair).
  const obs::MetricsRegistry& Metrics() const override { return metrics_; }

  // Full recovery: scans every label on the volume, rebuilds the name table
  // from the headers it finds, validates run tables against labels, and
  // rebuilds the VAM. The Table 2 "crash recovery" row for CFS.
  Status Scavenge();

  // Properties of the highest version without opening (reads the header).
  Result<fs::FileInfo> Stat(std::string_view name);

  // Free data sectors according to the (possibly stale) VAM hint.
  std::uint32_t FreeSectorsHint() const { return vam_.Count(); }

  const CfsConfig& config() const { return config_; }

 private:
  class NtStore;  // write-through PageStore for the name-table B-tree

  struct NtEntry {
    fs::FileUid uid = 0;
    sim::Lba header_lba = 0;
    std::uint16_t keep = 0;
  };

  // Layout.
  sim::Lba VamBase() const { return 4; }
  std::uint32_t VamSectors() const;
  sim::Lba NtBase() const { return VamBase() + VamSectors(); }
  std::uint32_t NtSectors() const { return config_.nt_page_count * 4; }
  sim::Lba DataBase() const { return NtBase() + NtSectors(); }

  void ChargeOp() const;
  // A public operation's op context and latency, its CPU charged.
  obs::TimedOp Op(std::string_view name, obs::Histogram* latency);
  void ChargeSectors(std::uint64_t n) const;
  // File uids start at boot_count+1 in the high word so they never collide
  // with the small system-structure label uids.
  fs::FileUid NextUid() {
    return (static_cast<std::uint64_t>(boot_count_ + 1) << 32) |
           ++uid_counter_;
  }

  Status WriteVolumeRoot();
  Status ReadVolumeRoot();
  Status WriteVam();
  Status LoadVam();

  // Highest existing version of `name`, with its entry.
  Result<std::pair<std::uint32_t, NtEntry>> HighestVersion(
      std::string_view name);
  // All versions, ascending.
  Result<std::vector<std::pair<std::uint32_t, NtEntry>>> ListVersions(
      std::string_view name);
  // Removes one version: frees labels, VAM, and the name-table entry.
  Status DeleteVersion(std::string_view name, std::uint32_t version,
                       const NtEntry& entry);
  Status PruneVersions(std::string_view name, std::uint16_t keep);

  // Allocates `count` sectors from the VAM hint and verifies their labels
  // really are free (repairing the hint and retrying on a stale hint).
  Result<std::vector<Extent>> AllocateVerified(std::uint32_t count);

  Status ReadHeader(sim::Lba header_lba, fs::FileUid uid, FileHeader* out);
  // A file's header: the open copy when the file is open, else read home.
  Status LoadHeader(const NtEntry& entry, FileHeader* header);
  // LoadHeader, `change`, then the open copy and the home sector updated.
  Status UpdateHeader(const NtEntry& entry,
                      const std::function<void(FileHeader*)>& change);
  Status WriteHeader(const FileHeader& header, sim::Lba header_lba,
                     bool claim_labels);
  Status WriteData(const FileHeader& header,
                   std::span<const std::uint8_t> contents);

  std::vector<std::uint8_t> SerializeHeader(const FileHeader& header) const;
  Status ParseHeader(std::span<const std::uint8_t> buf, FileHeader* out) const;

  Status EraseNameEntry(std::string_view name, std::uint32_t version);

  sim::SimDisk* disk_;
  CfsConfig config_;

  std::unique_ptr<NtStore> nt_store_;
  std::unique_ptr<btree::BTree> name_table_;

  Bitmap vam_;         // free = set; a hint, possibly stale
  Bitmap nt_bitmap_;   // free name-table pages (rebuilt at mount)
  std::uint32_t boot_count_ = 0;
  std::uint32_t uid_counter_ = 0;
  bool mounted_ = false;

  // Counters and per-op latency histograms (fs::FileSystem::Metrics()).
  obs::MetricsRegistry metrics_;
  struct CounterSet {
    obs::Counter* scavenges = nullptr;
    obs::Counter* stale_hint_repairs = nullptr;
  } c_;
  struct HistogramSet {
    obs::Histogram* create = nullptr;
    obs::Histogram* open = nullptr;
    obs::Histogram* read = nullptr;
    obs::Histogram* write = nullptr;
    obs::Histogram* extend = nullptr;
    obs::Histogram* del = nullptr;
    obs::Histogram* list = nullptr;
    obs::Histogram* touch = nullptr;
    obs::Histogram* setkeep = nullptr;
  } h_;

  // Open-file table: uid -> header (+ its disk address).
  struct OpenState {
    FileHeader header;
    sim::Lba header_lba = 0;
  };
  std::map<fs::FileUid, OpenState> open_files_;
};

}  // namespace cedar::cfs

#endif  // CEDAR_CFS_CFS_H_
