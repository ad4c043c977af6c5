// An FFS-like baseline ("4.3 BSD" in Tables 4 and 5 of the paper).
//
// This is a deliberately classic Berkeley Fast File System shape:
//   - 4 KB blocks (8 sectors), no fragments;
//   - cylinder groups, each with a header block (inode + block bitmaps), an
//     inode region (128-byte inodes), and data blocks;
//   - inodes of files in one directory are clustered in the directory's
//     cylinder group, so one block read fetches 32 inodes (the effect the
//     paper credits for BSD's decent list/read numbers);
//   - directories are files of fixed-size entries;
//   - SYNCHRONOUS metadata writes: a create writes the inode and the
//     directory block to disk before returning (Bach sections 5.16.1-2),
//     which is exactly the ordering discipline FSD's log replaces;
//   - rotational interleave: logically consecutive blocks of a file are
//     allocated `rotdelay_blocks` apart so the next block is reachable
//     after per-request overhead (the 4.2 BSD "rotdelay" tuning behind
//     Table 5's ~50% bandwidth ceiling);
//   - fsck: full inode and directory scan that rebuilds the bitmaps
//     (minutes, vs FSD's seconds).
//
// No versions: CreateFile over an existing name replaces its contents
// (version reported as 1).

#ifndef CEDAR_BSD_FFS_H_
#define CEDAR_BSD_FFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fsapi/file_system.h"
#include "src/obs/trace.h"
#include "src/sim/disk.h"
#include "src/util/bitmap.h"

namespace cedar::bsd {

struct FfsConfig {
  std::uint32_t sectors_per_block = 8;     // 4 KB blocks
  std::uint32_t cylinders_per_group = 70;
  std::uint32_t inodes_per_group = 2048;
  // Gap between consecutive logical blocks of a file, in blocks ("rotdelay").
  std::uint32_t rotdelay_blocks = 1;
  std::size_t block_cache_frames = 64;

  // CPU cost model (virtual microseconds). The VAX path lengths are charged
  // per operation and per block moved; fsck interprets every inode.
  std::uint64_t cpu_per_op = 2000;
  std::uint64_t cpu_per_block_io = 1800;   // buffer-cache copy costs
  std::uint64_t cpu_per_fsck_inode = 8000;
};

using InodeNum = std::uint32_t;
using BlockNum = std::uint32_t;

inline constexpr InodeNum kRootInode = 1;
inline constexpr BlockNum kNoBlock = 0;  // block 0 is the superblock

struct Inode {
  enum class Type : std::uint8_t { kFree = 0, kFile = 1, kDir = 2 };
  Type type = Type::kFree;
  std::uint64_t size = 0;
  std::uint64_t mtime = 0;
  std::uint32_t direct[12] = {};
  std::uint32_t indirect = kNoBlock;
};

class Ffs : public fs::FileSystem {
 public:
  explicit Ffs(sim::SimDisk* disk, FfsConfig config = {});
  ~Ffs() override;

  Status Format();
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
  Status SetKeep(std::string_view, std::uint16_t) override {
    return OkStatus();  // BSD has no versions; keep is meaningless
  }
  Status Close(const fs::FileHandle& file) override;
  Status Force() override;     // no-op: metadata writes are synchronous
  Status Shutdown() override;  // writes back cached bitmaps
  // Maintenance surface: the fs::FileSystem defaults. Metadata writes are
  // synchronous and there is no log, so a crash-now mount replays nothing
  // (fsck is a scan, not a replay).
  const obs::MetricsRegistry& Metrics() const override { return metrics_; }

  // Full consistency check and bitmap rebuild — the recovery path after an
  // unclean shutdown (Table 2 / section 7: "about seven minutes").
  Status Fsck();

  std::uint32_t FreeBlocks() const;
  const FfsConfig& config() const { return config_; }
  std::uint32_t block_bytes() const { return config_.sectors_per_block * 512; }

 private:
  struct Group {
    Bitmap inode_free;  // set = free
    Bitmap block_free;
    bool dirty = false;
  };

  struct DirEntry {
    std::string name;
    InodeNum inode = 0;
  };

  // Layout helpers.
  std::uint32_t GroupCount() const { return group_count_; }
  BlockNum GroupHeaderBlock(std::uint32_t group) const;
  BlockNum GroupInodeBase(std::uint32_t group) const;  // first inode block
  std::uint32_t InodeBlocks() const;  // inode blocks per group
  BlockNum GroupDataBase(std::uint32_t group) const;
  BlockNum GroupEnd(std::uint32_t group) const;
  std::uint32_t BlocksPerGroup() const { return blocks_per_group_; }
  sim::Lba BlockLba(BlockNum block) const {
    return block * config_.sectors_per_block;
  }

  void ChargeOp() const;
  // A public operation's op context and latency, its CPU charged.
  obs::TimedOp Op(std::string_view name, obs::Histogram* latency);
  void ChargeBlocks(std::uint64_t n) const;

  // Block I/O through a small buffer cache; metadata writes are
  // synchronous (write-through), data writes go straight to disk.
  Status ReadBlock(BlockNum block, std::vector<std::uint8_t>* out);
  Status WriteBlockSync(BlockNum block, std::span<const std::uint8_t> data);

  // Inode I/O: reading an inode reads (and caches) its whole inode block.
  Status ReadInode(InodeNum inum, Inode* out);
  Status WriteInodeSync(InodeNum inum, const Inode& inode);

  Result<InodeNum> AllocInode(std::uint32_t preferred_group);
  Result<BlockNum> AllocBlock(std::uint32_t preferred_group,
                              std::optional<BlockNum> after);
  Status FreeInode(InodeNum inum);
  Status FreeBlock(BlockNum block);

  // File block mapping (direct + one indirect level).
  Result<BlockNum> GetFileBlock(const Inode& inode, std::uint32_t index);
  // Updates the block map; indirect-block changes are buffered and must be
  // made durable with SyncIndirect before the inode is written.
  Status SetFileBlock(Inode* inode, std::uint32_t index, BlockNum block);
  Status SyncIndirect(const Inode& inode);
  Result<std::vector<BlockNum>> AllFileBlocks(const Inode& inode);

  // Directory operations (single root directory holding all names;
  // "dir/name" prefixes provide grouping like the Cedar name table).
  Result<std::vector<DirEntry>> ReadDir(InodeNum dir);
  Result<std::optional<InodeNum>> DirLookup(InodeNum dir,
                                            std::string_view name);
  Status DirAdd(InodeNum dir, std::string_view name, InodeNum inode);
  // The inode `name` names in the root directory, or the one `file` has
  // open, and its contents; kNotFound or kFailedPrecondition otherwise.
  Result<std::pair<InodeNum, Inode>> FindInode(std::string_view name);
  Result<std::pair<InodeNum, Inode>> OpenInode(const fs::FileHandle& file);
  Status DirRemove(InodeNum dir, std::string_view name);

  Status WriteSuperblock();
  Status ReadSuperblock();
  Status WriteGroupHeader(std::uint32_t group);
  Status LoadGroupHeader(std::uint32_t group);

  Status WriteFileData(Inode* inode, std::uint64_t offset,
                       std::span<const std::uint8_t> data,
                       std::uint32_t preferred_group);

  std::uint32_t GroupOfInode(InodeNum inum) const {
    return inum / config_.inodes_per_group;
  }

  sim::SimDisk* disk_;
  FfsConfig config_;
  std::uint32_t total_blocks_ = 0;
  std::uint32_t blocks_per_group_ = 0;
  std::uint32_t group_count_ = 0;

  std::vector<Group> groups_;
  bool mounted_ = false;
  std::uint64_t next_uid_ = 1;

  // Tiny write-through block cache (the "buffer cache").
  class BlockCache;
  std::unique_ptr<BlockCache> cache_;

  // Open table: uid -> inode number.
  std::map<fs::FileUid, InodeNum> open_files_;
  std::map<InodeNum, fs::FileUid> inode_uid_;

  // Counters and per-op latency histograms (fs::FileSystem::Metrics()).
  obs::MetricsRegistry metrics_;
  struct CounterSet {
    obs::Counter* fscks = nullptr;
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
  } h_;
};

}  // namespace cedar::bsd

#endif  // CEDAR_BSD_FFS_H_
