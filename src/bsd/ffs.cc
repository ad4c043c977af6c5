#include "src/bsd/ffs.h"

#include "src/obs/trace.h"

#include <algorithm>
#include <cstring>

#include "src/cache/page_cache.h"
#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/serial.h"

namespace cedar::bsd {
namespace {

constexpr std::uint32_t kSuperMagic = 0x42534446;  // "BSDF"
constexpr std::uint32_t kInodeBytes = 128;
constexpr std::uint32_t kDirEntryBytes = 64;
constexpr std::uint32_t kDirNameMax = 59;

void PutU32At(std::span<std::uint8_t> buf, std::size_t off, std::uint32_t v) {
  buf[off] = static_cast<std::uint8_t>(v & 0xFF);
  buf[off + 1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  buf[off + 2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  buf[off + 3] = static_cast<std::uint8_t>((v >> 24) & 0xFF);
}
std::uint32_t GetU32At(std::span<const std::uint8_t> buf, std::size_t off) {
  return static_cast<std::uint32_t>(buf[off]) |
         (static_cast<std::uint32_t>(buf[off + 1]) << 8) |
         (static_cast<std::uint32_t>(buf[off + 2]) << 16) |
         (static_cast<std::uint32_t>(buf[off + 3]) << 24);
}

void SerializeInode(const Inode& inode, std::span<std::uint8_t> out) {
  CEDAR_CHECK(out.size() == kInodeBytes);
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  ByteWriter w;
  w.U8(static_cast<std::uint8_t>(inode.type));
  w.U64(inode.size);
  w.U64(inode.mtime);
  for (std::uint32_t block : inode.direct) {
    w.U32(block);
  }
  w.U32(inode.indirect);
  std::copy(w.buffer().begin(), w.buffer().end(), out.begin());
}

Inode ParseInode(std::span<const std::uint8_t> in) {
  ByteReader r(in);
  Inode inode;
  inode.type = static_cast<Inode::Type>(r.U8());
  inode.size = r.U64();
  inode.mtime = r.U64();
  for (std::uint32_t& block : inode.direct) {
    block = r.U32();
  }
  inode.indirect = r.U32();
  return inode;
}

}  // namespace

class Ffs::BlockCache {
 public:
  explicit BlockCache(std::size_t frames) : cache_(frames) {}

  // Returns cached block data or nullptr.
  const std::vector<std::uint8_t>* Find(BlockNum block) {
    cache::Frame* frame = cache_.Find(block);
    return frame ? &frame->data : nullptr;
  }
  void Put(BlockNum block, std::vector<std::uint8_t> data) {
    cache_.Insert(block, std::move(data));
  }
  void Drop(BlockNum block) { cache_.Erase(block); }
  void Clear() { cache_.Clear(); }

 private:
  cache::PageCache cache_;
};

Ffs::Ffs(sim::SimDisk* disk, FfsConfig config)
    : disk_(disk), config_(config) {
  CEDAR_CHECK(disk != nullptr);
  const sim::DiskGeometry& g = disk_->geometry();
  blocks_per_group_ = config_.cylinders_per_group * g.SectorsPerCylinder() /
                      config_.sectors_per_block;
  const auto all_blocks =
      static_cast<std::uint32_t>(g.TotalSectors() / config_.sectors_per_block);
  group_count_ = all_blocks / blocks_per_group_;
  CEDAR_CHECK(group_count_ >= 2);
  total_blocks_ = group_count_ * blocks_per_group_;
  cache_ = std::make_unique<BlockCache>(config_.block_cache_frames);

  c_.fscks = metrics_.GetCounter("bsd.fscks");
  h_.create = metrics_.GetHistogram("op.bsd.create.us");
  h_.open = metrics_.GetHistogram("op.bsd.open.us");
  h_.read = metrics_.GetHistogram("op.bsd.read.us");
  h_.write = metrics_.GetHistogram("op.bsd.write.us");
  h_.extend = metrics_.GetHistogram("op.bsd.extend.us");
  h_.del = metrics_.GetHistogram("op.bsd.delete.us");
  h_.list = metrics_.GetHistogram("op.bsd.list.us");
  h_.touch = metrics_.GetHistogram("op.bsd.touch.us");
  disk_->AttachMetrics(&metrics_);
}

Ffs::~Ffs() = default;

void Ffs::ChargeOp() const { disk_->clock().AdvanceCpu(config_.cpu_per_op); }

obs::TimedOp Ffs::Op(std::string_view name, obs::Histogram* latency) {
  return obs::TimedOp(disk_->tracer(), name, latency, &disk_->clock(),
                      config_.cpu_per_op);
}
void Ffs::ChargeBlocks(std::uint64_t n) const {
  disk_->clock().AdvanceCpu(config_.cpu_per_block_io * n);
}

BlockNum Ffs::GroupHeaderBlock(std::uint32_t group) const {
  return group * blocks_per_group_ + (group == 0 ? 1 : 0);
}
std::uint32_t Ffs::InodeBlocks() const {
  return config_.inodes_per_group * kInodeBytes / block_bytes();
}
BlockNum Ffs::GroupInodeBase(std::uint32_t group) const {
  return GroupHeaderBlock(group) + 1;
}
BlockNum Ffs::GroupDataBase(std::uint32_t group) const {
  return GroupInodeBase(group) + InodeBlocks();
}
BlockNum Ffs::GroupEnd(std::uint32_t group) const {
  return (group + 1) * blocks_per_group_;
}

Status Ffs::ReadBlock(BlockNum block, std::vector<std::uint8_t>* out) {
  if (const std::vector<std::uint8_t>* hit = cache_->Find(block)) {
    *out = *hit;
    return OkStatus();
  }
  out->assign(block_bytes(), 0);
  CEDAR_RETURN_IF_ERROR(disk_->Read(BlockLba(block), *out));
  ChargeBlocks(1);
  cache_->Put(block, *out);
  return OkStatus();
}

Status Ffs::WriteBlockSync(BlockNum block, std::span<const std::uint8_t> data) {
  CEDAR_CHECK(data.size() == block_bytes());
  CEDAR_RETURN_IF_ERROR(disk_->Write(BlockLba(block), data));
  ChargeBlocks(1);
  cache_->Put(block, std::vector<std::uint8_t>(data.begin(), data.end()));
  return OkStatus();
}

Status Ffs::ReadInode(InodeNum inum, Inode* out) {
  const std::uint32_t group = GroupOfInode(inum);
  const std::uint32_t index = inum % config_.inodes_per_group;
  const std::uint32_t per_block = block_bytes() / kInodeBytes;
  const BlockNum block = GroupInodeBase(group) + index / per_block;
  std::vector<std::uint8_t> buf;
  CEDAR_RETURN_IF_ERROR(ReadBlock(block, &buf));
  *out = ParseInode(std::span<const std::uint8_t>(buf).subspan(
      static_cast<std::size_t>(index % per_block) * kInodeBytes,
      kInodeBytes));
  return OkStatus();
}

Status Ffs::WriteInodeSync(InodeNum inum, const Inode& inode) {
  const std::uint32_t group = GroupOfInode(inum);
  const std::uint32_t index = inum % config_.inodes_per_group;
  const std::uint32_t per_block = block_bytes() / kInodeBytes;
  const BlockNum block = GroupInodeBase(group) + index / per_block;
  std::vector<std::uint8_t> buf;
  CEDAR_RETURN_IF_ERROR(ReadBlock(block, &buf));
  SerializeInode(inode, std::span<std::uint8_t>(buf).subspan(
                            static_cast<std::size_t>(index % per_block) *
                                kInodeBytes,
                            kInodeBytes));
  return WriteBlockSync(block, buf);
}

Result<InodeNum> Ffs::AllocInode(std::uint32_t preferred_group) {
  for (std::uint32_t k = 0; k < group_count_; ++k) {
    const std::uint32_t group = (preferred_group + k) % group_count_;
    if (auto idx = groups_[group].inode_free.FindRunForward(0, 1)) {
      groups_[group].inode_free.Set(*idx, false);
      groups_[group].dirty = true;
      return group * config_.inodes_per_group + *idx;
    }
  }
  return MakeError(ErrorCode::kNoFreeSpace, "out of inodes");
}

Result<BlockNum> Ffs::AllocBlock(std::uint32_t preferred_group,
                                 std::optional<BlockNum> after) {
  // Rotational interleave: place the next logical block rotdelay blocks
  // past the previous one so a block-at-a-time reader doesn't miss a whole
  // revolution per block.
  if (after.has_value()) {
    const BlockNum want = *after + 1 + config_.rotdelay_blocks;
    const std::uint32_t group = *after / blocks_per_group_;
    if (want < GroupEnd(group) && want >= GroupDataBase(group)) {
      const std::uint32_t rel = want - group * blocks_per_group_;
      if (groups_[group].block_free.Get(rel)) {
        groups_[group].block_free.Set(rel, false);
        groups_[group].dirty = true;
        return want;
      }
    }
  }
  for (std::uint32_t k = 0; k < group_count_; ++k) {
    const std::uint32_t group = (preferred_group + k) % group_count_;
    const std::uint32_t data_rel =
        GroupDataBase(group) - group * blocks_per_group_;
    if (auto rel = groups_[group].block_free.FindRunForward(data_rel, 1)) {
      groups_[group].block_free.Set(*rel, false);
      groups_[group].dirty = true;
      return group * blocks_per_group_ + *rel;
    }
  }
  return MakeError(ErrorCode::kNoFreeSpace, "out of blocks");
}

Status Ffs::FreeInode(InodeNum inum) {
  const std::uint32_t group = GroupOfInode(inum);
  groups_[group].inode_free.Set(inum % config_.inodes_per_group, true);
  groups_[group].dirty = true;
  return OkStatus();
}

Status Ffs::FreeBlock(BlockNum block) {
  const std::uint32_t group = block / blocks_per_group_;
  groups_[group].block_free.Set(block % blocks_per_group_, true);
  groups_[group].dirty = true;
  cache_->Drop(block);
  return OkStatus();
}

Result<BlockNum> Ffs::GetFileBlock(const Inode& inode, std::uint32_t index) {
  if (index < 12) {
    return inode.direct[index];
  }
  const std::uint32_t indirect_index = index - 12;
  if (inode.indirect == kNoBlock ||
      indirect_index >= block_bytes() / 4) {
    return MakeError(ErrorCode::kOutOfRange, "block index beyond file");
  }
  std::vector<std::uint8_t> buf;
  CEDAR_RETURN_IF_ERROR(ReadBlock(inode.indirect, &buf));
  return GetU32At(buf, static_cast<std::size_t>(indirect_index) * 4);
}

Status Ffs::SetFileBlock(Inode* inode, std::uint32_t index, BlockNum block) {
  if (index < 12) {
    inode->direct[index] = block;
    return OkStatus();
  }
  const std::uint32_t indirect_index = index - 12;
  if (indirect_index >= block_bytes() / 4) {
    return MakeError(ErrorCode::kOutOfRange, "file too large");
  }
  if (inode->indirect == kNoBlock) {
    const std::uint32_t group =
        inode->direct[0] != kNoBlock ? inode->direct[0] / blocks_per_group_
                                     : 0;
    CEDAR_ASSIGN_OR_RETURN(BlockNum indirect,
                           AllocBlock(group, std::nullopt));
    std::vector<std::uint8_t> zeros(block_bytes(), 0);
    CEDAR_RETURN_IF_ERROR(WriteBlockSync(indirect, zeros));
    inode->indirect = indirect;
  }
  std::vector<std::uint8_t> buf;
  CEDAR_RETURN_IF_ERROR(ReadBlock(inode->indirect, &buf));
  PutU32At(buf, static_cast<std::size_t>(indirect_index) * 4, block);
  // Delayed write through the buffer cache (classic FFS behaviour); the
  // caller syncs the indirect block once per operation.
  cache_->Put(inode->indirect, std::move(buf));
  return OkStatus();
}

Status Ffs::SyncIndirect(const Inode& inode) {
  if (inode.indirect == kNoBlock) {
    return OkStatus();
  }
  std::vector<std::uint8_t> buf;
  CEDAR_RETURN_IF_ERROR(ReadBlock(inode.indirect, &buf));
  return WriteBlockSync(inode.indirect, buf);
}

Result<std::vector<BlockNum>> Ffs::AllFileBlocks(const Inode& inode) {
  std::vector<BlockNum> blocks;
  const std::uint64_t n =
      (inode.size + block_bytes() - 1) / block_bytes();
  for (std::uint32_t i = 0; i < n; ++i) {
    CEDAR_ASSIGN_OR_RETURN(BlockNum block, GetFileBlock(inode, i));
    blocks.push_back(block);
  }
  return blocks;
}

Result<std::vector<Ffs::DirEntry>> Ffs::ReadDir(InodeNum dirnum) {
  Inode dir;
  CEDAR_RETURN_IF_ERROR(ReadInode(dirnum, &dir));
  if (dir.type != Inode::Type::kDir) {
    return MakeError(ErrorCode::kCorruptMetadata, "not a directory");
  }
  std::vector<DirEntry> entries;
  CEDAR_ASSIGN_OR_RETURN(std::vector<BlockNum> blocks, AllFileBlocks(dir));
  for (BlockNum block : blocks) {
    std::vector<std::uint8_t> buf;
    CEDAR_RETURN_IF_ERROR(ReadBlock(block, &buf));
    for (std::size_t off = 0; off + kDirEntryBytes <= buf.size();
         off += kDirEntryBytes) {
      const std::uint32_t inum = GetU32At(buf, off);
      if (inum == 0) {
        continue;
      }
      const std::uint8_t len = buf[off + 4];
      if (len > kDirNameMax) {
        continue;
      }
      entries.push_back(DirEntry{
          .name = std::string(reinterpret_cast<const char*>(buf.data()) +
                                  off + 5,
                              len),
          .inode = inum});
    }
  }
  return entries;
}

Result<std::optional<InodeNum>> Ffs::DirLookup(InodeNum dirnum,
                                               std::string_view name) {
  CEDAR_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDir(dirnum));
  for (const DirEntry& entry : entries) {
    if (entry.name == name) {
      return std::optional<InodeNum>(entry.inode);
    }
  }
  return std::optional<InodeNum>(std::nullopt);
}

Status Ffs::DirAdd(InodeNum dirnum, std::string_view name, InodeNum inode) {
  if (name.size() > kDirNameMax) {
    return MakeError(ErrorCode::kInvalidArgument, "name too long");
  }
  Inode dir;
  CEDAR_RETURN_IF_ERROR(ReadInode(dirnum, &dir));
  CEDAR_ASSIGN_OR_RETURN(std::vector<BlockNum> blocks, AllFileBlocks(dir));

  auto fill_entry = [&](std::vector<std::uint8_t>& buf, std::size_t off) {
    for (std::size_t i = 0; i < kDirEntryBytes; ++i) {
      buf[off + i] = 0;
    }
    PutU32At(buf, off, inode);
    buf[off + 4] = static_cast<std::uint8_t>(name.size());
    std::copy(name.begin(), name.end(), buf.begin() + off + 5);
  };

  // Find a free slot in the existing blocks.
  for (BlockNum block : blocks) {
    std::vector<std::uint8_t> buf;
    CEDAR_RETURN_IF_ERROR(ReadBlock(block, &buf));
    for (std::size_t off = 0; off + kDirEntryBytes <= buf.size();
         off += kDirEntryBytes) {
      if (GetU32At(buf, off) == 0) {
        fill_entry(buf, off);
        // The synchronous directory write of the classic create path.
        return WriteBlockSync(block, buf);
      }
    }
  }
  // Grow the directory by one block.
  CEDAR_ASSIGN_OR_RETURN(
      BlockNum block,
      AllocBlock(GroupOfInode(dirnum), std::nullopt));
  std::vector<std::uint8_t> buf(block_bytes(), 0);
  fill_entry(buf, 0);
  CEDAR_RETURN_IF_ERROR(WriteBlockSync(block, buf));
  const auto index = static_cast<std::uint32_t>(blocks.size());
  CEDAR_RETURN_IF_ERROR(SetFileBlock(&dir, index, block));
  CEDAR_RETURN_IF_ERROR(SyncIndirect(dir));
  dir.size += block_bytes();
  return WriteInodeSync(dirnum, dir);
}

Status Ffs::DirRemove(InodeNum dirnum, std::string_view name) {
  Inode dir;
  CEDAR_RETURN_IF_ERROR(ReadInode(dirnum, &dir));
  CEDAR_ASSIGN_OR_RETURN(std::vector<BlockNum> blocks, AllFileBlocks(dir));
  for (BlockNum block : blocks) {
    std::vector<std::uint8_t> buf;
    CEDAR_RETURN_IF_ERROR(ReadBlock(block, &buf));
    for (std::size_t off = 0; off + kDirEntryBytes <= buf.size();
         off += kDirEntryBytes) {
      const std::uint32_t inum = GetU32At(buf, off);
      const std::uint8_t len = buf[off + 4];
      if (inum != 0 && len == name.size() &&
          std::equal(name.begin(), name.end(),
                     buf.begin() + off + 5)) {
        PutU32At(buf, off, 0);
        return WriteBlockSync(block, buf);
      }
    }
  }
  return MakeError(ErrorCode::kNotFound, "no directory entry");
}

Status Ffs::WriteSuperblock() {
  ByteWriter w;
  w.U32(kSuperMagic);
  w.U32(total_blocks_);
  w.U32(blocks_per_group_);
  w.U32(group_count_);
  w.U32(config_.sectors_per_block);
  w.U32(config_.inodes_per_group);
  return disk_->Write(0, SealSector(std::move(w), block_bytes()));
}

Status Ffs::ReadSuperblock() {
  std::vector<std::uint8_t> buf(block_bytes());
  CEDAR_RETURN_IF_ERROR(disk_->Read(0, buf));
  ByteReader r(buf);
  if (r.U32() != kSuperMagic) {
    return MakeError(ErrorCode::kCorruptMetadata, "bad superblock magic");
  }
  total_blocks_ = r.U32();
  blocks_per_group_ = r.U32();
  group_count_ = r.U32();
  config_.sectors_per_block = r.U32();
  config_.inodes_per_group = r.U32();
  if (!CheckSeal(buf, r.position())) {
    return MakeError(ErrorCode::kCorruptMetadata, "superblock crc");
  }
  return OkStatus();
}

Status Ffs::WriteGroupHeader(std::uint32_t group) {
  ByteWriter w;
  w.U32(config_.inodes_per_group);
  w.U32(blocks_per_group_);
  std::vector<std::uint8_t> payload;
  ByteWriter pw(&payload);
  for (std::uint64_t word : groups_[group].inode_free.words()) {
    pw.U64(word);
  }
  for (std::uint64_t word : groups_[group].block_free.words()) {
    pw.U64(word);
  }
  w.U32(Crc32(payload));
  std::vector<std::uint8_t> buf(block_bytes(), 0);
  CEDAR_CHECK(w.size() + payload.size() <= buf.size());
  std::copy(w.buffer().begin(), w.buffer().end(), buf.begin());
  std::copy(payload.begin(), payload.end(), buf.begin() + w.size());
  CEDAR_RETURN_IF_ERROR(WriteBlockSync(GroupHeaderBlock(group), buf));
  groups_[group].dirty = false;
  return OkStatus();
}

Status Ffs::LoadGroupHeader(std::uint32_t group) {
  std::vector<std::uint8_t> buf;
  CEDAR_RETURN_IF_ERROR(ReadBlock(GroupHeaderBlock(group), &buf));
  ByteReader r(buf);
  if (r.U32() != config_.inodes_per_group || r.U32() != blocks_per_group_) {
    return MakeError(ErrorCode::kCorruptMetadata, "group header mismatch");
  }
  const std::uint32_t crc = r.U32();
  Group& g = groups_[group];
  g.inode_free = Bitmap(config_.inodes_per_group);
  g.block_free = Bitmap(blocks_per_group_);
  const std::size_t payload_len =
      (g.inode_free.words().size() + g.block_free.words().size()) * 8;
  std::span<const std::uint8_t> payload(buf.data() + r.position(),
                                        payload_len);
  if (Crc32(payload) != crc) {
    return MakeError(ErrorCode::kCorruptMetadata, "group header crc");
  }
  ByteReader pr(payload);
  for (std::uint64_t& word : g.inode_free.mutable_words()) {
    word = pr.U64();
  }
  for (std::uint64_t& word : g.block_free.mutable_words()) {
    word = pr.U64();
  }
  g.dirty = false;
  return OkStatus();
}

Status Ffs::Format() {
  obs::ScopedOp op_scope(disk_->tracer(), "bsd.format");
  cache_->Clear();
  groups_.assign(group_count_, Group{});
  for (std::uint32_t g = 0; g < group_count_; ++g) {
    groups_[g].inode_free = Bitmap(config_.inodes_per_group, true);
    groups_[g].block_free = Bitmap(blocks_per_group_, true);
    // Header + inode blocks are not allocatable; neither is block 0.
    const std::uint32_t meta_rel =
        GroupDataBase(g) - g * blocks_per_group_;
    groups_[g].block_free.SetRange(0, meta_rel, false);
  }
  groups_[0].inode_free.Set(0, false);  // inode 0 reserved
  groups_[0].inode_free.Set(kRootInode, false);

  // Root directory: empty, no blocks yet.
  Inode root;
  root.type = Inode::Type::kDir;
  root.size = 0;
  CEDAR_RETURN_IF_ERROR(WriteInodeSync(kRootInode, root));

  for (std::uint32_t g = 0; g < group_count_; ++g) {
    CEDAR_RETURN_IF_ERROR(WriteGroupHeader(g));
  }
  CEDAR_RETURN_IF_ERROR(WriteSuperblock());
  open_files_.clear();
  inode_uid_.clear();
  mounted_ = true;
  return OkStatus();
}

Status Ffs::Mount() {
  obs::ScopedOp op_scope(disk_->tracer(), "bsd.mount");
  cache_->Clear();
  CEDAR_RETURN_IF_ERROR(ReadSuperblock());
  groups_.assign(group_count_, Group{});
  for (std::uint32_t g = 0; g < group_count_; ++g) {
    CEDAR_RETURN_IF_ERROR(LoadGroupHeader(g));
  }
  open_files_.clear();
  inode_uid_.clear();
  mounted_ = true;
  return OkStatus();
}

Result<fs::FileUid> Ffs::CreateFile(std::string_view name,
                                    std::span<const std::uint8_t> contents) {
  const obs::TimedOp op = Op("bsd.create", h_.create);
  if (!mounted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not mounted");
  }
  CEDAR_ASSIGN_OR_RETURN(std::optional<InodeNum> existing,
                         DirLookup(kRootInode, name));
  if (existing.has_value()) {
    // No versions in BSD: replace contents in place.
    CEDAR_RETURN_IF_ERROR(DeleteFile(name));
  }

  // Cluster the inode with its directory (prefix before the last '/').
  const std::size_t slash = name.rfind('/');
  const std::string_view dir_prefix =
      slash == std::string_view::npos ? "" : name.substr(0, slash);
  const std::uint32_t preferred =
      static_cast<std::uint32_t>(
          Crc32(std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(dir_prefix.data()),
              dir_prefix.size()))) %
      group_count_;

  CEDAR_ASSIGN_OR_RETURN(InodeNum inum, AllocInode(preferred));
  Inode inode;
  inode.type = Inode::Type::kFile;
  inode.size = 0;
  inode.mtime = disk_->clock().now();

  if (!contents.empty()) {
    CEDAR_RETURN_IF_ERROR(
        WriteFileData(&inode, 0, contents, GroupOfInode(inum)));
    inode.size = contents.size();
  }
  // Classic ordering: the inode reaches disk before the name does.
  CEDAR_RETURN_IF_ERROR(WriteInodeSync(inum, inode));
  CEDAR_RETURN_IF_ERROR(DirAdd(kRootInode, name, inum));

  const fs::FileUid uid = next_uid_++;
  inode_uid_[inum] = uid;
  open_files_[uid] = inum;
  return uid;
}

Status Ffs::WriteFileData(Inode* inode, std::uint64_t offset,
                          std::span<const std::uint8_t> data,
                          std::uint32_t preferred_group) {
  const std::uint32_t bb = block_bytes();
  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  std::optional<BlockNum> previous;
  while (consumed < data.size()) {
    const auto index = static_cast<std::uint32_t>(pos / bb);
    const std::uint32_t in_block = static_cast<std::uint32_t>(pos % bb);
    const std::size_t n =
        std::min<std::size_t>(bb - in_block, data.size() - consumed);

    BlockNum block = kNoBlock;
    const std::uint64_t existing_blocks =
        (inode->size + bb - 1) / bb;
    if (index < existing_blocks) {
      CEDAR_ASSIGN_OR_RETURN(block, GetFileBlock(*inode, index));
    }
    std::vector<std::uint8_t> buf;
    if (block == kNoBlock) {
      CEDAR_ASSIGN_OR_RETURN(block, AllocBlock(preferred_group, previous));
      CEDAR_RETURN_IF_ERROR(SetFileBlock(inode, index, block));
      buf.assign(bb, 0);
    } else if (in_block != 0 || n != bb) {
      CEDAR_RETURN_IF_ERROR(ReadBlock(block, &buf));
    } else {
      buf.assign(bb, 0);
    }
    std::copy(data.begin() + consumed, data.begin() + consumed + n,
              buf.begin() + in_block);
    CEDAR_RETURN_IF_ERROR(WriteBlockSync(block, buf));
    previous = block;
    consumed += n;
    pos += n;
  }
  return SyncIndirect(*inode);
}

Result<std::pair<InodeNum, Inode>> Ffs::FindInode(
    std::string_view name) {
  CEDAR_ASSIGN_OR_RETURN(std::optional<InodeNum> inum,
                         DirLookup(kRootInode, name));
  if (!inum.has_value()) {
    return MakeError(ErrorCode::kNotFound, "no such file");
  }
  std::pair<InodeNum, Inode> found{*inum, Inode{}};
  CEDAR_RETURN_IF_ERROR(ReadInode(*inum, &found.second));
  return found;
}

Result<std::pair<InodeNum, Inode>> Ffs::OpenInode(
    const fs::FileHandle& file) {
  auto it = open_files_.find(file.uid);
  if (it == open_files_.end()) {
    return MakeError(ErrorCode::kFailedPrecondition, "file not open");
  }
  std::pair<InodeNum, Inode> found{it->second, Inode{}};
  CEDAR_RETURN_IF_ERROR(ReadInode(it->second, &found.second));
  return found;
}

Result<fs::FileHandle> Ffs::Open(std::string_view name) {
  const obs::TimedOp op = Op("bsd.open", h_.open);
  if (!mounted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not mounted");
  }
  CEDAR_ASSIGN_OR_RETURN(auto found, FindInode(name));
  auto& [inum, inode] = found;
  fs::FileUid uid;
  auto it = inode_uid_.find(inum);
  if (it != inode_uid_.end()) {
    uid = it->second;
  } else {
    uid = next_uid_++;
    inode_uid_[inum] = uid;
  }
  open_files_[uid] = inum;
  return fs::FileHandle{.uid = uid, .version = 1, .byte_size = inode.size};
}

Status Ffs::Close(const fs::FileHandle& file) {
  ChargeOp();
  auto it = open_files_.find(file.uid);
  if (it != open_files_.end()) {
    inode_uid_.erase(it->second);
    open_files_.erase(it);
  }
  return OkStatus();
}

Status Ffs::Read(const fs::FileHandle& file, std::uint64_t offset,
                 std::span<std::uint8_t> out) {
  const obs::TimedOp op = Op("bsd.read", h_.read);
  CEDAR_ASSIGN_OR_RETURN(auto found, OpenInode(file));
  auto& [inum, inode] = found;
  if (out.empty()) {
    return OkStatus();
  }
  if (offset + out.size() > inode.size) {
    return MakeError(ErrorCode::kOutOfRange, "read beyond end of file");
  }
  // Block at a time through the buffer cache — the BSD access pattern.
  const std::uint32_t bb = block_bytes();
  std::size_t produced = 0;
  std::uint64_t pos = offset;
  while (produced < out.size()) {
    const auto index = static_cast<std::uint32_t>(pos / bb);
    const std::uint32_t in_block = static_cast<std::uint32_t>(pos % bb);
    const std::size_t n =
        std::min<std::size_t>(bb - in_block, out.size() - produced);
    CEDAR_ASSIGN_OR_RETURN(BlockNum block, GetFileBlock(inode, index));
    std::vector<std::uint8_t> buf;
    CEDAR_RETURN_IF_ERROR(ReadBlock(block, &buf));
    std::copy(buf.begin() + in_block, buf.begin() + in_block + n,
              out.begin() + produced);
    produced += n;
    pos += n;
  }
  return OkStatus();
}

Status Ffs::Write(const fs::FileHandle& file, std::uint64_t offset,
                  std::span<const std::uint8_t> data) {
  const obs::TimedOp op = Op("bsd.write", h_.write);
  CEDAR_ASSIGN_OR_RETURN(auto found, OpenInode(file));
  auto& [inum, inode] = found;
  if (offset + data.size() > inode.size) {
    return MakeError(ErrorCode::kOutOfRange, "write beyond end of file");
  }
  CEDAR_RETURN_IF_ERROR(
      WriteFileData(&inode, offset, data, GroupOfInode(inum)));
  inode.mtime = disk_->clock().now();
  return WriteInodeSync(inum, inode);
}

Status Ffs::Extend(const fs::FileHandle& file, std::uint64_t bytes) {
  const obs::TimedOp op = Op("bsd.extend", h_.extend);
  CEDAR_ASSIGN_OR_RETURN(auto found, OpenInode(file));
  auto& [inum, inode] = found;
  const std::uint64_t new_size = inode.size + bytes;
  const std::uint32_t bb = block_bytes();
  const auto cur_blocks =
      static_cast<std::uint32_t>((inode.size + bb - 1) / bb);
  const auto new_blocks = static_cast<std::uint32_t>((new_size + bb - 1) / bb);
  std::optional<BlockNum> previous;
  if (cur_blocks > 0) {
    CEDAR_ASSIGN_OR_RETURN(BlockNum last, GetFileBlock(inode, cur_blocks - 1));
    previous = last;
  }
  for (std::uint32_t i = cur_blocks; i < new_blocks; ++i) {
    CEDAR_ASSIGN_OR_RETURN(BlockNum block,
                           AllocBlock(GroupOfInode(inum), previous));
    std::vector<std::uint8_t> zeros(bb, 0);
    CEDAR_RETURN_IF_ERROR(WriteBlockSync(block, zeros));
    CEDAR_RETURN_IF_ERROR(SetFileBlock(&inode, i, block));
    previous = block;
  }
  CEDAR_RETURN_IF_ERROR(SyncIndirect(inode));
  inode.size = new_size;
  inode.mtime = disk_->clock().now();
  return WriteInodeSync(inum, inode);
}

Status Ffs::DeleteFile(std::string_view name) {
  const obs::TimedOp op = Op("bsd.delete", h_.del);
  if (!mounted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not mounted");
  }
  CEDAR_ASSIGN_OR_RETURN(auto found, FindInode(name));
  auto& [inum, inode] = found;
  CEDAR_ASSIGN_OR_RETURN(std::vector<BlockNum> blocks, AllFileBlocks(inode));
  // Classic ordering: remove the name first, then release the resources.
  CEDAR_RETURN_IF_ERROR(DirRemove(kRootInode, name));
  for (BlockNum block : blocks) {
    CEDAR_RETURN_IF_ERROR(FreeBlock(block));
  }
  if (inode.indirect != kNoBlock) {
    CEDAR_RETURN_IF_ERROR(FreeBlock(inode.indirect));
  }
  Inode cleared;
  CEDAR_RETURN_IF_ERROR(WriteInodeSync(inum, cleared));
  CEDAR_RETURN_IF_ERROR(FreeInode(inum));
  auto uid_it = inode_uid_.find(inum);
  if (uid_it != inode_uid_.end()) {
    open_files_.erase(uid_it->second);
    inode_uid_.erase(uid_it);
  }
  return OkStatus();
}

Result<std::vector<fs::FileInfo>> Ffs::List(std::string_view prefix) {
  const obs::TimedOp op = Op("bsd.list", h_.list);
  CEDAR_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, ReadDir(kRootInode));
  std::vector<fs::FileInfo> out;
  for (const DirEntry& entry : entries) {
    if (entry.name.size() < prefix.size() ||
        entry.name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    Inode inode;
    CEDAR_RETURN_IF_ERROR(ReadInode(entry.inode, &inode));
    out.push_back(fs::FileInfo{.name = entry.name,
                               .version = 1,
                               .uid = entry.inode,
                               .byte_size = inode.size,
                               .create_time = inode.mtime,
                               .last_used = inode.mtime,
                               .keep = 1});
  }
  std::sort(out.begin(), out.end(),
            [](const fs::FileInfo& a, const fs::FileInfo& b) {
              return a.name < b.name;
            });
  return out;
}

Status Ffs::Touch(std::string_view name) {
  const obs::TimedOp op = Op("bsd.touch", h_.touch);
  CEDAR_ASSIGN_OR_RETURN(auto found, FindInode(name));
  auto& [inum, inode] = found;
  inode.mtime = disk_->clock().now();
  // Synchronous inode write: the hot-spot cost FSD absorbs with the log.
  return WriteInodeSync(inum, inode);
}

Status Ffs::Force() { return OkStatus(); }

Status Ffs::Shutdown() {
  if (!mounted_) {
    return OkStatus();
  }
  obs::ScopedOp op_scope(disk_->tracer(), "bsd.shutdown");
  for (std::uint32_t g = 0; g < group_count_; ++g) {
    if (groups_[g].dirty) {
      CEDAR_RETURN_IF_ERROR(WriteGroupHeader(g));
    }
  }
  CEDAR_RETURN_IF_ERROR(WriteSuperblock());
  open_files_.clear();
  inode_uid_.clear();
  mounted_ = false;
  return OkStatus();
}

Status Ffs::Fsck() {
  obs::ScopedOp op_scope(disk_->tracer(), "bsd.fsck");
  c_.fscks->Increment();
  cache_->Clear();
  CEDAR_RETURN_IF_ERROR(ReadSuperblock());
  groups_.assign(group_count_, Group{});
  for (std::uint32_t g = 0; g < group_count_; ++g) {
    groups_[g].inode_free = Bitmap(config_.inodes_per_group, true);
    groups_[g].block_free = Bitmap(blocks_per_group_, true);
    const std::uint32_t meta_rel = GroupDataBase(g) - g * blocks_per_group_;
    groups_[g].block_free.SetRange(0, meta_rel, false);
  }
  groups_[0].inode_free.Set(0, false);

  // Pass 1: scan every inode in every group, claim the blocks of live
  // files, clear anything structurally bad.
  auto claim_block = [&](BlockNum block) {
    if (block == kNoBlock || block >= total_blocks_) {
      return false;
    }
    const std::uint32_t group = block / blocks_per_group_;
    const std::uint32_t rel = block % blocks_per_group_;
    if (!groups_[group].block_free.Get(rel)) {
      return false;  // double allocation
    }
    groups_[group].block_free.Set(rel, false);
    return true;
  };

  for (std::uint32_t g = 0; g < group_count_; ++g) {
    for (std::uint32_t i = 0; i < config_.inodes_per_group; ++i) {
      const InodeNum inum = g * config_.inodes_per_group + i;
      disk_->clock().AdvanceCpu(config_.cpu_per_fsck_inode);
      if (inum == 0) {
        continue;
      }
      Inode inode;
      CEDAR_RETURN_IF_ERROR(ReadInode(inum, &inode));
      if (inode.type == Inode::Type::kFree) {
        continue;
      }
      groups_[g].inode_free.Set(i, false);
      bool ok = true;
      const std::uint64_t nblocks =
          (inode.size + block_bytes() - 1) / block_bytes();
      if (inode.indirect != kNoBlock) {
        ok = claim_block(inode.indirect) && ok;
      }
      for (std::uint32_t b = 0; b < nblocks && ok; ++b) {
        auto block = GetFileBlock(inode, b);
        ok = block.ok() && claim_block(*block);
      }
      if (!ok) {
        // Truncate the damaged file to zero length (fsck "CLEAR" action).
        Inode cleared;
        cleared.type = inode.type;
        CEDAR_RETURN_IF_ERROR(WriteInodeSync(inum, cleared));
      }
    }
  }

  // Pass 2: validate directory entries point at live inodes.
  {
    CEDAR_ASSIGN_OR_RETURN(std::vector<DirEntry> entries,
                           ReadDir(kRootInode));
    for (const DirEntry& entry : entries) {
      Inode inode;
      CEDAR_RETURN_IF_ERROR(ReadInode(entry.inode, &inode));
      if (inode.type != Inode::Type::kFile) {
        CEDAR_RETURN_IF_ERROR(DirRemove(kRootInode, entry.name));
      }
    }
  }

  // Pass 3: persist the rebuilt bitmaps.
  for (std::uint32_t g = 0; g < group_count_; ++g) {
    CEDAR_RETURN_IF_ERROR(WriteGroupHeader(g));
  }
  CEDAR_RETURN_IF_ERROR(WriteSuperblock());
  mounted_ = true;
  return OkStatus();
}

std::uint32_t Ffs::FreeBlocks() const {
  std::uint32_t n = 0;
  for (const Group& g : groups_) {
    n += g.block_free.Count();
  }
  return n;
}

}  // namespace cedar::bsd
