#include "src/cfs/cfs.h"

#include "src/obs/trace.h"

#include <algorithm>
#include <cstring>

#include "src/fsapi/extent.h"
#include "src/fsapi/name_key.h"
#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/serial.h"

namespace cedar::cfs {
namespace {

constexpr std::uint32_t kRootMagic = 0x43465352;    // "CFSR"

// The labels of `count` data pages of file `uid`, from page `first` on.
std::vector<sim::Label> DataLabels(fs::FileUid uid, std::uint32_t first,
                                   std::uint32_t count) {
  std::vector<sim::Label> labels;
  for (std::uint32_t i = 0; i < count; ++i) {
    labels.push_back({.file_uid = uid, .page_number = first + i,
                      .type = sim::PageType::kData});
  }
  return labels;
}
constexpr std::uint32_t kHeaderMagic = 0x43465348;  // "CFSH"
constexpr std::uint32_t kVamMagic = 0x43465356;     // "CFSV"

// Label uids for system structures (real files use uids >= 2^32).
constexpr fs::FileUid kRootUid = 1;
constexpr fs::FileUid kVamUid = 2;
constexpr fs::FileUid kNtUid = 3;

constexpr std::uint32_t kNtPageSectors = 4;  // 2048-byte tree pages

sim::Label SystemLabel(fs::FileUid uid, std::uint32_t page) {
  return sim::Label{.file_uid = uid, .page_number = page,
                    .type = sim::PageType::kSystem};
}

std::vector<std::uint8_t> SerializeNtEntry(fs::FileUid uid,
                                           sim::Lba header_lba,
                                           std::uint16_t keep) {
  ByteWriter w;
  w.U64(uid);
  // Wire stays 32-bit; CFS volumes sit on single spindles well under 2^32.
  w.U32(static_cast<std::uint32_t>(header_lba));
  w.U16(keep);
  return w.Take();
}

}  // namespace

// Write-through PageStore over the name-table region. Reads hit an in-memory
// cache; every write goes straight to the 4 home sectors in one (torn-write
// prone) request — exactly the behaviour whose failure modes FSD fixes.
class Cfs::NtStore : public btree::PageStore {
 public:
  explicit NtStore(Cfs* cfs)
      : cfs_(cfs), cache_(cfs->config_.nt_cache_frames) {}

  std::uint32_t page_size() const override { return kNtPageSectors * 512; }

  Status ReadPage(btree::PageId id, std::span<std::uint8_t> out) override {
    if (cache::Frame* frame = cache_.Find(id)) {
      std::copy(frame->data.begin(), frame->data.end(), out.begin());
      return OkStatus();
    }
    const sim::Lba lba = cfs_->NtBase() + id * kNtPageSectors;
    std::vector<sim::Label> expected;
    for (std::uint32_t i = 0; i < kNtPageSectors; ++i) {
      expected.push_back(SystemLabel(kNtUid, id * kNtPageSectors + i));
    }
    std::vector<std::uint8_t> buf(page_size());
    CEDAR_RETURN_IF_ERROR(cfs_->disk_->ReadLabeled(lba, buf, expected));
    cfs_->ChargeSectors(kNtPageSectors);
    std::copy(buf.begin(), buf.end(), out.begin());
    cache_.Insert(id, std::move(buf));
    return OkStatus();
  }

  Status WritePage(btree::PageId id,
                   std::span<const std::uint8_t> data) override {
    const sim::Lba lba = cfs_->NtBase() + id * kNtPageSectors;
    std::vector<sim::Label> labels;
    for (std::uint32_t i = 0; i < kNtPageSectors; ++i) {
      labels.push_back(SystemLabel(kNtUid, id * kNtPageSectors + i));
    }
    CEDAR_RETURN_IF_ERROR(
        cfs_->disk_->WriteLabeled(lba, data, labels, labels));
    cfs_->ChargeSectors(kNtPageSectors);
    cache_.Insert(id, std::vector<std::uint8_t>(data.begin(), data.end()));
    return OkStatus();
  }

  Result<btree::PageId> AllocatePage() override {
    auto pid = cfs_->nt_bitmap_.FindRunForward(0, 1);
    if (!pid) {
      return MakeError(ErrorCode::kNoFreeSpace, "name table region full");
    }
    cfs_->nt_bitmap_.Set(*pid, false);
    return *pid;
  }

  Status FreePage(btree::PageId id) override {
    cfs_->nt_bitmap_.Set(id, true);
    cache_.Erase(id);
    return OkStatus();
  }

  bool CanAllocate(std::uint32_t count) override {
    return cfs_->nt_bitmap_.Count() >= count;
  }

  void DropCache() { cache_.Clear(); }

 private:
  Cfs* cfs_;
  cache::PageCache cache_;
};

Cfs::Cfs(sim::SimDisk* disk, CfsConfig config)
    : disk_(disk), config_(config) {
  CEDAR_CHECK(disk != nullptr);
  nt_store_ = std::make_unique<NtStore>(this);
  name_table_ = std::make_unique<btree::BTree>(nt_store_.get(), /*root=*/0);

  c_.scavenges = metrics_.GetCounter("cfs.scavenges");
  c_.stale_hint_repairs = metrics_.GetCounter("cfs.stale_hint_repairs");
  h_.create = metrics_.GetHistogram("op.cfs.create.us");
  h_.open = metrics_.GetHistogram("op.cfs.open.us");
  h_.read = metrics_.GetHistogram("op.cfs.read.us");
  h_.write = metrics_.GetHistogram("op.cfs.write.us");
  h_.extend = metrics_.GetHistogram("op.cfs.extend.us");
  h_.del = metrics_.GetHistogram("op.cfs.delete.us");
  h_.list = metrics_.GetHistogram("op.cfs.list.us");
  h_.touch = metrics_.GetHistogram("op.cfs.touch.us");
  h_.setkeep = metrics_.GetHistogram("op.cfs.setkeep.us");
  disk_->AttachMetrics(&metrics_);
}

Cfs::~Cfs() = default;

std::uint32_t Cfs::VamSectors() const {
  // 1 header sector + 1 bit per sector of the volume, 4096 bits per sector.
  return static_cast<std::uint32_t>(
      1 + (disk_->geometry().TotalSectors() + 4095) / 4096);
}

void Cfs::ChargeOp() const { disk_->clock().AdvanceCpu(config_.cpu_per_op); }

obs::TimedOp Cfs::Op(std::string_view name, obs::Histogram* latency) {
  return obs::TimedOp(disk_->tracer(), name, latency, &disk_->clock(),
                      config_.cpu_per_op);
}

void Cfs::ChargeSectors(std::uint64_t n) const {
  disk_->clock().AdvanceCpu(config_.cpu_per_sector_io * n);
}

Status Cfs::Format() {
  obs::ScopedOp op_scope(disk_->tracer(), "cfs.format");
  const auto total =
      static_cast<std::uint32_t>(disk_->geometry().TotalSectors());
  if (DataBase() >= total) {
    return MakeError(ErrorCode::kInvalidArgument, "volume too small");
  }

  // Claim labels for the system region (root pages, VAM, name table).
  std::vector<sim::Label> labels;
  auto claim = [&](sim::Lba base, std::uint32_t count, fs::FileUid uid) {
    labels.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
      labels.push_back(SystemLabel(uid, i));
    }
    return disk_->WriteLabels(base, labels);
  };
  CEDAR_RETURN_IF_ERROR(claim(0, 4, kRootUid));
  CEDAR_RETURN_IF_ERROR(claim(VamBase(), VamSectors(), kVamUid));
  // Name-table label pages are claimed in chunks to bound request sizes.
  for (std::uint32_t off = 0; off < NtSectors(); off += 1024) {
    const std::uint32_t n = std::min<std::uint32_t>(1024, NtSectors() - off);
    labels.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      labels.push_back(SystemLabel(kNtUid, off + i));
    }
    CEDAR_RETURN_IF_ERROR(disk_->WriteLabels(NtBase() + off, labels));
  }

  vam_ = Bitmap(total, /*initial=*/true);
  vam_.SetRange(0, DataBase(), false);

  nt_bitmap_ = Bitmap(config_.nt_page_count, /*initial=*/true);
  nt_bitmap_.Set(0, false);  // root
  nt_store_->DropCache();
  CEDAR_RETURN_IF_ERROR(name_table_->Create());

  boot_count_ = 0;
  uid_counter_ = 0;
  CEDAR_RETURN_IF_ERROR(WriteVam());
  CEDAR_RETURN_IF_ERROR(WriteVolumeRoot());
  open_files_.clear();
  mounted_ = true;
  return OkStatus();
}

Status Cfs::WriteVolumeRoot() {
  ByteWriter w;
  w.U32(kRootMagic);
  w.U32(disk_->geometry().cylinders);
  w.U32(disk_->geometry().heads);
  w.U32(disk_->geometry().sectors_per_track);
  w.U32(config_.nt_page_count);
  w.U32(boot_count_);
  std::vector<std::uint8_t> buf = w.Take();
  buf.push_back(0);  // reserve space, then append crc
  while (buf.size() < 508) {
    buf.push_back(0);
  }
  const std::uint32_t crc = Crc32(buf);
  ByteWriter tail(&buf);
  tail.U32(crc);
  const sim::Label label = SystemLabel(kRootUid, 0);
  return disk_->WriteLabeled(0, buf, {{label}}, {{label}});
}

Status Cfs::ReadVolumeRoot() {
  std::vector<std::uint8_t> buf(512);
  const sim::Label label = SystemLabel(kRootUid, 0);
  CEDAR_RETURN_IF_ERROR(disk_->ReadLabeled(0, buf, {{label}}));
  ByteReader r(buf);
  if (r.U32() != kRootMagic) {
    return MakeError(ErrorCode::kCorruptMetadata, "bad volume root magic");
  }
  const std::uint32_t cyls = r.U32();
  const std::uint32_t heads = r.U32();
  const std::uint32_t spt = r.U32();
  if (cyls != disk_->geometry().cylinders ||
      heads != disk_->geometry().heads ||
      spt != disk_->geometry().sectors_per_track) {
    return MakeError(ErrorCode::kCorruptMetadata, "geometry mismatch");
  }
  config_.nt_page_count = r.U32();
  boot_count_ = r.U32();
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(buf[508]) |
      (static_cast<std::uint32_t>(buf[509]) << 8) |
      (static_cast<std::uint32_t>(buf[510]) << 16) |
      (static_cast<std::uint32_t>(buf[511]) << 24);
  if (Crc32(std::span<const std::uint8_t>(buf).subspan(0, 508)) !=
      stored_crc) {
    return MakeError(ErrorCode::kCorruptMetadata, "volume root crc");
  }
  return OkStatus();
}

Status Cfs::WriteVam() {
  std::vector<std::uint8_t> buf(
      static_cast<std::size_t>(VamSectors()) * 512, 0);
  ByteWriter w;
  w.U32(kVamMagic);
  w.U32(vam_.size());
  // Bitmap words follow the header sector.
  std::vector<std::uint8_t> bits;
  ByteWriter bw(&bits);
  for (std::uint64_t word : vam_.words()) {
    bw.U64(word);
  }
  w.U32(Crc32(bits));
  std::copy(w.buffer().begin(), w.buffer().end(), buf.begin());
  std::copy(bits.begin(), bits.end(), buf.begin() + 512);
  std::vector<sim::Label> labels;
  for (std::uint32_t i = 0; i < VamSectors(); ++i) {
    labels.push_back(SystemLabel(kVamUid, i));
  }
  return disk_->WriteLabeled(VamBase(), buf, labels, labels);
}

Status Cfs::LoadVam() {
  std::vector<std::uint8_t> buf(
      static_cast<std::size_t>(VamSectors()) * 512);
  std::vector<sim::Label> labels;
  for (std::uint32_t i = 0; i < VamSectors(); ++i) {
    labels.push_back(SystemLabel(kVamUid, i));
  }
  CEDAR_RETURN_IF_ERROR(disk_->ReadLabeled(VamBase(), buf, labels));
  ByteReader r(buf);
  if (r.U32() != kVamMagic) {
    return MakeError(ErrorCode::kCorruptMetadata, "bad VAM magic");
  }
  const std::uint32_t size = r.U32();
  const std::uint32_t crc = r.U32();
  if (size != disk_->geometry().TotalSectors()) {
    return MakeError(ErrorCode::kCorruptMetadata, "VAM size mismatch");
  }
  std::span<const std::uint8_t> bits(buf.data() + 512,
                                     ((size + 63) / 64) * 8);
  if (Crc32(bits) != crc) {
    return MakeError(ErrorCode::kCorruptMetadata, "VAM crc");
  }
  vam_ = Bitmap(size);
  ByteReader br(bits);
  for (std::uint64_t& word : vam_.mutable_words()) {
    word = br.U64();
  }
  return OkStatus();
}

Status Cfs::Mount() {
  obs::ScopedOp op_scope(disk_->tracer(), "cfs.mount");
  CEDAR_RETURN_IF_ERROR(ReadVolumeRoot());
  ++boot_count_;
  uid_counter_ = 0;
  CEDAR_RETURN_IF_ERROR(WriteVolumeRoot());

  // The VAM is a hint: a stale or unreadable map degrades allocation but is
  // not an error (label verification catches wrong "free" hints).
  if (!LoadVam().ok()) {
    vam_ = Bitmap(disk_->geometry().TotalSectors(), /*initial=*/false);
  }

  // Rebuild the name-table page allocation map by walking the tree. A walk
  // failure means the tree is corrupt; the caller must Scavenge().
  nt_store_->DropCache();
  nt_bitmap_ = Bitmap(config_.nt_page_count, /*initial=*/true);
  std::vector<btree::PageId> pages;
  CEDAR_RETURN_IF_ERROR(name_table_->CollectPages(&pages));
  for (btree::PageId pid : pages) {
    nt_bitmap_.Set(pid, false);
  }
  open_files_.clear();
  mounted_ = true;
  return OkStatus();
}

Result<std::pair<std::uint32_t, Cfs::NtEntry>> Cfs::HighestVersion(
    std::string_view name) {
  CEDAR_ASSIGN_OR_RETURN(auto versions, ListVersions(name));
  if (versions.empty()) {
    return MakeError(ErrorCode::kNotFound,
                     "no such file: " + std::string(name));
  }
  return versions.back();
}

Result<std::vector<Extent>> Cfs::AllocateVerified(std::uint32_t count) {
  CEDAR_CHECK(count > 0);
  std::vector<Extent> extents;
  std::uint32_t remaining = count;

  while (remaining > 0) {
    // Prefer one contiguous run (one verify I/O); fall back to the largest
    // available pieces.
    std::uint32_t want = remaining;
    std::optional<std::uint32_t> run;
    while (want > 0) {
      run = vam_.FindRunForward(DataBase(), want);
      if (run) {
        break;
      }
      want /= 2;
    }
    if (!run) {
      return MakeError(ErrorCode::kNoFreeSpace, "volume full");
    }

    // Verify the labels really are free (the VAM is only a hint).
    std::vector<sim::Label> labels(want);
    Status read = disk_->ReadLabels(*run, labels);
    if (!read.ok()) {
      // Damaged sector in the candidate range: take it out of circulation.
      vam_.SetRange(*run, want, false);
      continue;
    }
    bool all_free = true;
    for (std::uint32_t i = 0; i < want; ++i) {
      if (labels[i].type != sim::PageType::kFree) {
        vam_.Set(*run + i, false);  // repair the stale hint
        c_.stale_hint_repairs->Increment();
        all_free = false;
      }
    }
    if (!all_free) {
      continue;
    }
    vam_.SetRange(*run, want, false);
    extents.push_back(Extent{.start = *run, .count = want});
    remaining -= want;
  }
  return extents;
}

std::vector<std::uint8_t> Cfs::SerializeHeader(
    const FileHeader& header) const {
  ByteWriter w;
  w.U32(kHeaderMagic);
  w.U64(header.uid);
  w.U32(header.version);
  w.U16(header.keep);
  w.U64(header.byte_size);
  w.U64(header.create_time);
  w.U64(header.last_used);
  w.Str(header.name);
  w.U16(static_cast<std::uint16_t>(header.runs.size()));
  for (const Extent& run : header.runs) {
    w.U32(run.start);
    w.U32(run.count);
  }
  return SealSector(std::move(w), 1024);
}

Status Cfs::ParseHeader(std::span<const std::uint8_t> buf,
                        FileHeader* out) const {
  ByteReader r(buf);
  if (r.U32() != kHeaderMagic) {
    return MakeError(ErrorCode::kCorruptMetadata, "bad header magic");
  }
  out->uid = r.U64();
  out->version = r.U32();
  out->keep = r.U16();
  out->byte_size = r.U64();
  out->create_time = r.U64();
  out->last_used = r.U64();
  out->name = r.Str();
  const std::uint16_t nruns = r.U16();
  out->runs.clear();
  for (std::uint16_t i = 0; i < nruns && r.ok(); ++i) {
    Extent run;
    run.start = r.U32();
    run.count = r.U32();
    out->runs.push_back(run);
  }
  if (!r.ok()) {
    return MakeError(ErrorCode::kCorruptMetadata, "truncated header");
  }
  if (!CheckSeal(buf, r.position())) {
    return MakeError(ErrorCode::kCorruptMetadata, "header crc mismatch");
  }
  return OkStatus();
}

Status Cfs::ReadHeader(sim::Lba header_lba, fs::FileUid uid,
                       FileHeader* out) {
  std::vector<std::uint8_t> buf(1024);
  const std::vector<sim::Label> expected = {
      {.file_uid = uid, .page_number = 0, .type = sim::PageType::kHeader},
      {.file_uid = uid, .page_number = 1, .type = sim::PageType::kHeader}};
  CEDAR_RETURN_IF_ERROR(disk_->ReadLabeled(header_lba, buf, expected));
  ChargeSectors(2);
  return ParseHeader(buf, out);
}

Status Cfs::WriteHeader(const FileHeader& header, sim::Lba header_lba,
                        bool claim_labels) {
  const std::vector<std::uint8_t> buf = SerializeHeader(header);
  const std::vector<sim::Label> labels = {
      {.file_uid = header.uid, .page_number = 0,
       .type = sim::PageType::kHeader},
      {.file_uid = header.uid, .page_number = 1,
       .type = sim::PageType::kHeader}};
  ChargeSectors(2);
  if (claim_labels) {
    // Labels were written (claimed) by a prior WriteLabels; verify them.
    return disk_->WriteLabeled(header_lba, buf, labels, labels);
  }
  return disk_->WriteLabeled(header_lba, buf, labels, labels);
}

Status Cfs::WriteData(const FileHeader& header,
                      std::span<const std::uint8_t> contents) {
  std::uint32_t page = 0;
  std::size_t off = 0;
  for (const Extent& run : header.runs) {
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(run.count) * 512, 0);
    const std::size_t n = std::min(buf.size(), contents.size() - off);
    std::copy(contents.begin() + off, contents.begin() + off + n,
              buf.begin());
    off += n;
    std::vector<sim::Label> labels;
    for (std::uint32_t i = 0; i < run.count; ++i) {
      labels.push_back({.file_uid = header.uid, .page_number = page + i,
                        .type = sim::PageType::kData});
    }
    CEDAR_RETURN_IF_ERROR(
        disk_->WriteLabeled(run.start, buf, labels, labels));
    ChargeSectors(run.count);
    page += run.count;
  }
  return OkStatus();
}

Result<fs::FileUid> Cfs::CreateFile(std::string_view name,
                                    std::span<const std::uint8_t> contents) {
  const obs::TimedOp op = Op("cfs.create", h_.create);
  if (!mounted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not mounted");
  }
  std::uint32_t version = 1;
  std::uint16_t keep = 0;
  if (auto highest = HighestVersion(name); highest.ok()) {
    version = highest->first + 1;
    keep = highest->second.keep;
  }

  const auto npages =
      static_cast<std::uint32_t>((contents.size() + 511) / 512);

  // Allocate header + data together when possible (one verify I/O), like
  // the section 6 script's three-page create.
  CEDAR_ASSIGN_OR_RETURN(std::vector<Extent> extents,
                         AllocateVerified(2 + npages));

  const sim::Lba header_lba = extents[0].start;
  FileHeader header;
  header.uid = NextUid();
  header.name = std::string(name);
  header.version = version;
  header.keep = keep;
  header.byte_size = contents.size();
  header.create_time = disk_->clock().now();
  header.last_used = header.create_time;

  // Carve the header's 2 sectors off the front of the first extent.
  if (extents[0].count > 2) {
    header.runs.push_back(
        Extent{.start = extents[0].start + 2, .count = extents[0].count - 2});
  }
  for (std::size_t i = 1; i < extents.size(); ++i) {
    header.runs.push_back(extents[i]);
  }

  // 1. Write (claim) the header labels.
  const std::vector<sim::Label> header_labels = {
      {.file_uid = header.uid, .page_number = 0,
       .type = sim::PageType::kHeader},
      {.file_uid = header.uid, .page_number = 1,
       .type = sim::PageType::kHeader}};
  const std::vector<sim::Label> free_labels(2, sim::Label{});
  CEDAR_RETURN_IF_ERROR(
      disk_->WriteLabels(header_lba, header_labels, free_labels));

  // 2. Write (claim) the data labels, one request per run.
  std::uint32_t page = 0;
  for (const Extent& run : header.runs) {
    std::vector<sim::Label> labels;
    for (std::uint32_t i = 0; i < run.count; ++i) {
      labels.push_back({.file_uid = header.uid, .page_number = page + i,
                        .type = sim::PageType::kData});
    }
    const std::vector<sim::Label> expect_free(run.count, sim::Label{});
    CEDAR_RETURN_IF_ERROR(
        disk_->WriteLabels(run.start, labels, expect_free));
    page += run.count;
  }

  // 3. Write the header (size not yet final in the paper's flow).
  FileHeader initial = header;
  initial.byte_size = 0;
  CEDAR_RETURN_IF_ERROR(WriteHeader(initial, header_lba, true));

  // 4. Update the file name table (write-through B-tree I/O).
  CEDAR_RETURN_IF_ERROR(name_table_->Insert(
      fs::EncodeNameKey(name, version),
      SerializeNtEntry(header.uid, header_lba, header.keep)));

  if (!contents.empty()) {
    // 5. Write the data.
    CEDAR_RETURN_IF_ERROR(WriteData(header, contents));
    // 6. Rewrite the header with the final byte size.
    CEDAR_RETURN_IF_ERROR(WriteHeader(header, header_lba, false));
  }
  if (keep > 0) {
    CEDAR_RETURN_IF_ERROR(PruneVersions(name, keep));
  }
  return header.uid;
}

Result<fs::FileHandle> Cfs::Open(std::string_view name) {
  const obs::TimedOp op = Op("cfs.open", h_.open);
  if (!mounted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not mounted");
  }
  CEDAR_ASSIGN_OR_RETURN(auto found, HighestVersion(name));
  const NtEntry& entry = found.second;

  auto it = open_files_.find(entry.uid);
  if (it == open_files_.end()) {
    OpenState state;
    state.header_lba = entry.header_lba;
    CEDAR_RETURN_IF_ERROR(
        ReadHeader(entry.header_lba, entry.uid, &state.header));
    it = open_files_.emplace(entry.uid, std::move(state)).first;
  }
  return fs::FileHandle{.uid = entry.uid,
                        .version = it->second.header.version,
                        .byte_size = it->second.header.byte_size};
}

Status Cfs::Close(const fs::FileHandle& file) {
  ChargeOp();
  // Drops the cached header; a later reopen re-reads it from disk. Unknown
  // handles are fine (remount already invalidated them).
  open_files_.erase(file.uid);
  return OkStatus();
}

Status Cfs::Read(const fs::FileHandle& file, std::uint64_t offset,
                 std::span<std::uint8_t> out) {
  const obs::TimedOp op = Op("cfs.read", h_.read);
  auto it = open_files_.find(file.uid);
  if (it == open_files_.end()) {
    return MakeError(ErrorCode::kFailedPrecondition, "file not open");
  }
  const FileHeader& header = it->second.header;
  if (out.empty()) {
    return OkStatus();
  }
  if (offset + out.size() > header.byte_size) {
    return MakeError(ErrorCode::kOutOfRange, "read beyond end of file");
  }
  const auto first_page = static_cast<std::uint32_t>(offset / 512);
  const auto last_page =
      static_cast<std::uint32_t>((offset + out.size() - 1) / 512);
  const std::uint32_t count = last_page - first_page + 1;
  CEDAR_ASSIGN_OR_RETURN(std::vector<Extent> extents,
                         fs::MapPages(header.runs, first_page, count));

  std::vector<std::uint8_t> buf(static_cast<std::size_t>(count) * 512);
  std::size_t pos = 0;
  std::uint32_t page = first_page;
  for (const Extent& run : extents) {
    const std::vector<sim::Label> labels =
        DataLabels(file.uid, page, run.count);
    CEDAR_RETURN_IF_ERROR(disk_->ReadLabeled(
        run.start,
        std::span<std::uint8_t>(buf.data() + pos,
                                static_cast<std::size_t>(run.count) * 512),
        labels));
    ChargeSectors(run.count);
    pos += static_cast<std::size_t>(run.count) * 512;
    page += run.count;
  }
  const std::size_t skip = offset % 512;
  std::copy(buf.begin() + skip, buf.begin() + skip + out.size(), out.begin());
  return OkStatus();
}

Status Cfs::Write(const fs::FileHandle& file, std::uint64_t offset,
                  std::span<const std::uint8_t> data) {
  const obs::TimedOp op = Op("cfs.write", h_.write);
  auto it = open_files_.find(file.uid);
  if (it == open_files_.end()) {
    return MakeError(ErrorCode::kFailedPrecondition, "file not open");
  }
  const FileHeader& header = it->second.header;
  if (data.empty()) {
    return OkStatus();
  }
  if (offset + data.size() > header.byte_size) {
    return MakeError(ErrorCode::kOutOfRange, "write beyond end of file");
  }
  const auto first_page = static_cast<std::uint32_t>(offset / 512);
  const auto last_page =
      static_cast<std::uint32_t>((offset + data.size() - 1) / 512);
  const std::uint32_t count = last_page - first_page + 1;
  CEDAR_ASSIGN_OR_RETURN(std::vector<Extent> extents,
                         fs::MapPages(header.runs, first_page, count));

  // Read-modify-write: fetch the affected pages, splice, write back.
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(count) * 512);
  const bool aligned = (offset % 512 == 0) && (data.size() % 512 == 0);
  std::size_t pos = 0;
  std::uint32_t page = first_page;
  if (!aligned) {
    for (const Extent& run : extents) {
      const std::vector<sim::Label> labels =
          DataLabels(file.uid, page, run.count);
      CEDAR_RETURN_IF_ERROR(disk_->ReadLabeled(
          run.start,
          std::span<std::uint8_t>(buf.data() + pos,
                                  static_cast<std::size_t>(run.count) * 512),
          labels));
      pos += static_cast<std::size_t>(run.count) * 512;
      page += run.count;
    }
  }
  std::copy(data.begin(), data.end(), buf.begin() + (offset % 512));

  pos = 0;
  page = first_page;
  for (const Extent& run : extents) {
    const std::vector<sim::Label> labels =
        DataLabels(file.uid, page, run.count);
    CEDAR_RETURN_IF_ERROR(disk_->WriteLabeled(
        run.start,
        std::span<const std::uint8_t>(
            buf.data() + pos, static_cast<std::size_t>(run.count) * 512),
        labels, labels));
    ChargeSectors(run.count);
    pos += static_cast<std::size_t>(run.count) * 512;
    page += run.count;
  }
  return OkStatus();
}

Status Cfs::Extend(const fs::FileHandle& file, std::uint64_t bytes) {
  const obs::TimedOp op = Op("cfs.extend", h_.extend);
  auto it = open_files_.find(file.uid);
  if (it == open_files_.end()) {
    return MakeError(ErrorCode::kFailedPrecondition, "file not open");
  }
  FileHeader& header = it->second.header;
  const std::uint64_t new_size = header.byte_size + bytes;
  const auto cur_pages =
      static_cast<std::uint32_t>((header.byte_size + 511) / 512);
  const auto new_pages = static_cast<std::uint32_t>((new_size + 511) / 512);

  if (new_pages > cur_pages) {
    CEDAR_ASSIGN_OR_RETURN(std::vector<Extent> extents,
                           AllocateVerified(new_pages - cur_pages));
    std::uint32_t page = cur_pages;
    for (const Extent& run : extents) {
      const std::vector<sim::Label> labels =
          DataLabels(file.uid, page, run.count);
      const std::vector<sim::Label> expect_free(run.count, sim::Label{});
      CEDAR_RETURN_IF_ERROR(
          disk_->WriteLabels(run.start, labels, expect_free));
      // Zero-fill the new pages.
      std::vector<std::uint8_t> zeros(
          static_cast<std::size_t>(run.count) * 512, 0);
      CEDAR_RETURN_IF_ERROR(
          disk_->WriteLabeled(run.start, zeros, labels, labels));
      page += run.count;
      header.runs.push_back(run);
    }
  }
  header.byte_size = new_size;
  return WriteHeader(header, it->second.header_lba, false);
}

Status Cfs::EraseNameEntry(std::string_view name, std::uint32_t version) {
  return name_table_->Erase(fs::EncodeNameKey(name, version));
}

Status Cfs::DeleteFile(std::string_view name) {
  const obs::TimedOp op = Op("cfs.delete", h_.del);
  if (!mounted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not mounted");
  }
  CEDAR_ASSIGN_OR_RETURN(auto found, HighestVersion(name));
  return DeleteVersion(name, found.first, found.second);
}

Result<std::vector<std::pair<std::uint32_t, Cfs::NtEntry>>>
Cfs::ListVersions(std::string_view name) {
  std::vector<std::pair<std::uint32_t, NtEntry>> versions;
  Status scan = name_table_->Scan(
      fs::NameKeyLow(name),
      [&](std::span<const std::uint8_t> key,
          std::span<const std::uint8_t> value) {
        if (!fs::KeyIsName(key, name)) {
          return false;
        }
        std::string decoded;
        std::uint32_t version = 0;
        if (!fs::DecodeNameKey(key, &decoded, &version)) {
          return true;
        }
        ByteReader r(value);
        NtEntry entry;
        entry.uid = r.U64();
        entry.header_lba = r.U32();
        entry.keep = r.U16();
        if (r.ok()) {
          versions.emplace_back(version, entry);
        }
        return true;
      });
  CEDAR_RETURN_IF_ERROR(scan);
  return versions;
}

Status Cfs::PruneVersions(std::string_view name, std::uint16_t keep) {
  CEDAR_ASSIGN_OR_RETURN(auto versions, ListVersions(name));
  while (versions.size() > keep) {
    CEDAR_RETURN_IF_ERROR(DeleteVersion(name, versions.front().first,
                                        versions.front().second));
    versions.erase(versions.begin());
  }
  return OkStatus();
}

Status Cfs::SetKeep(std::string_view name, std::uint16_t keep) {
  const obs::TimedOp op = Op("cfs.setkeep", h_.setkeep);
  CEDAR_ASSIGN_OR_RETURN(auto found, HighestVersion(name));
  const NtEntry& entry = found.second;
  CEDAR_RETURN_IF_ERROR(
      UpdateHeader(entry, [&](FileHeader* header) { header->keep = keep; }));
  // The keep count is replicated in the name-table entry.
  CEDAR_RETURN_IF_ERROR(name_table_->Insert(
      fs::EncodeNameKey(name, found.first),
      SerializeNtEntry(entry.uid, entry.header_lba, keep)));
  if (keep > 0) {
    return PruneVersions(name, keep);
  }
  return OkStatus();
}

Status Cfs::DeleteVersion(std::string_view name, std::uint32_t version,
                          const NtEntry& entry) {
  FileHeader header;
  CEDAR_RETURN_IF_ERROR(LoadHeader(entry, &header));

  // Free the labels: header pair first, then each data run (one label write
  // request per run — "deletion operations write the labels").
  const std::vector<sim::Label> header_labels = {
      {.file_uid = entry.uid, .page_number = 0,
       .type = sim::PageType::kHeader},
      {.file_uid = entry.uid, .page_number = 1,
       .type = sim::PageType::kHeader}};
  const std::vector<sim::Label> free2(2, sim::Label{});
  CEDAR_RETURN_IF_ERROR(
      disk_->WriteLabels(entry.header_lba, free2, header_labels));
  vam_.SetRange(entry.header_lba, 2, true);

  std::uint32_t page = 0;
  for (const Extent& run : header.runs) {
    std::vector<sim::Label> owned;
    for (std::uint32_t i = 0; i < run.count; ++i) {
      owned.push_back({.file_uid = entry.uid, .page_number = page + i,
                       .type = sim::PageType::kData});
    }
    const std::vector<sim::Label> free_labels(run.count, sim::Label{});
    CEDAR_RETURN_IF_ERROR(
        disk_->WriteLabels(run.start, free_labels, owned));
    vam_.SetRange(run.start, run.count, true);
    page += run.count;
  }

  CEDAR_RETURN_IF_ERROR(EraseNameEntry(name, version));
  open_files_.erase(entry.uid);
  return OkStatus();
}

Result<std::vector<fs::FileInfo>> Cfs::List(std::string_view prefix) {
  const obs::TimedOp op = Op("cfs.list", h_.list);
  // Collect matching entries from the name table, then read each header for
  // the properties — the cost FSD eliminates by keeping properties in the
  // name table (paper section 5.1).
  struct Hit {
    std::string name;
    std::uint32_t version;
    NtEntry entry;
  };
  std::vector<Hit> hits;
  std::vector<std::uint8_t> from(prefix.begin(), prefix.end());
  CEDAR_RETURN_IF_ERROR(name_table_->Scan(
      from, [&](std::span<const std::uint8_t> key,
                std::span<const std::uint8_t> value) {
        if (!fs::KeyHasPrefix(key, prefix)) {
          return false;
        }
        Hit hit;
        if (!fs::DecodeNameKey(key, &hit.name, &hit.version)) {
          return true;
        }
        ByteReader r(value);
        hit.entry.uid = r.U64();
        hit.entry.header_lba = r.U32();
        hit.entry.keep = r.U16();
        if (r.ok()) {
          hits.push_back(std::move(hit));
        }
        return true;
      }));

  std::vector<fs::FileInfo> out;
  for (const Hit& hit : hits) {
    disk_->clock().AdvanceCpu(config_.cpu_per_list_entry);
    FileHeader header;
    auto open_it = open_files_.find(hit.entry.uid);
    if (open_it != open_files_.end()) {
      header = open_it->second.header;
    } else {
      Status read = ReadHeader(hit.entry.header_lba, hit.entry.uid, &header);
      if (!read.ok()) {
        continue;  // damaged file; listing carries on
      }
    }
    out.push_back(fs::FileInfo{.name = hit.name,
                               .version = hit.version,
                               .uid = hit.entry.uid,
                               .byte_size = header.byte_size,
                               .create_time = header.create_time,
                               .last_used = header.last_used,
                               .keep = header.keep});
  }
  return out;
}

Status Cfs::Touch(std::string_view name) {
  const obs::TimedOp op = Op("cfs.touch", h_.touch);
  CEDAR_ASSIGN_OR_RETURN(auto found, HighestVersion(name));
  // Rewriting the sector just read costs a lost revolution — the hot-spot
  // cost group commit absorbs in FSD.
  return UpdateHeader(found.second, [&](FileHeader* header) {
    header->last_used = disk_->clock().now();
  });
}

Status Cfs::LoadHeader(const NtEntry& entry, FileHeader* header) {
  if (auto it = open_files_.find(entry.uid); it != open_files_.end()) {
    *header = it->second.header;
    return OkStatus();
  }
  return ReadHeader(entry.header_lba, entry.uid, header);
}

Status Cfs::UpdateHeader(const NtEntry& entry,
                         const std::function<void(FileHeader*)>& change) {
  FileHeader header;
  CEDAR_RETURN_IF_ERROR(LoadHeader(entry, &header));
  change(&header);
  if (auto it = open_files_.find(entry.uid); it != open_files_.end()) {
    it->second.header = header;
  }
  return WriteHeader(header, entry.header_lba, false);
}

Result<fs::FileInfo> Cfs::Stat(std::string_view name) {
  ChargeOp();
  CEDAR_ASSIGN_OR_RETURN(auto found, HighestVersion(name));
  FileHeader header;
  CEDAR_RETURN_IF_ERROR(LoadHeader(found.second, &header));
  return fs::FileInfo{.name = header.name,
                      .version = header.version,
                      .uid = header.uid,
                      .byte_size = header.byte_size,
                      .create_time = header.create_time,
                      .last_used = header.last_used,
                      .keep = header.keep};
}

Status Cfs::Force() { return OkStatus(); }

Status Cfs::Shutdown() {
  if (!mounted_) {
    return OkStatus();
  }
  obs::ScopedOp op_scope(disk_->tracer(), "cfs.shutdown");
  CEDAR_RETURN_IF_ERROR(WriteVam());
  CEDAR_RETURN_IF_ERROR(WriteVolumeRoot());
  open_files_.clear();
  mounted_ = false;
  return OkStatus();
}

Status Cfs::Scavenge() {
  obs::ScopedOp op_scope(disk_->tracer(), "cfs.scavenge");
  c_.scavenges->Increment();
  // Phase 1: read every label on the volume, one request per track.
  const sim::DiskGeometry& g = disk_->geometry();
  const auto total = static_cast<std::uint32_t>(g.TotalSectors());
  std::vector<sim::Label> all_labels(total);
  const std::uint32_t spt = g.sectors_per_track;
  for (sim::Lba track = 0; track < total; track += spt) {
    std::span<sim::Label> out(all_labels.data() + track, spt);
    Status read = disk_->ReadLabels(track, out);
    if (!read.ok()) {
      // Damaged sector in the track: retry sector by sector.
      for (std::uint32_t i = 0; i < spt; ++i) {
        std::span<sim::Label> one(all_labels.data() + track + i, 1);
        if (!disk_->ReadLabels(track + i, one).ok()) {
          // Unreadable: treat as permanently used.
          all_labels[track + i] =
              sim::Label{.file_uid = ~0ull, .page_number = 0,
                         .type = sim::PageType::kSystem};
        }
      }
    }
    disk_->clock().AdvanceCpu(config_.cpu_per_scavenge_sector * spt);
  }

  // Phase 2: find header page 0s and read every header.
  struct Found {
    FileHeader header;
    sim::Lba header_lba;
  };
  std::vector<Found> files;
  for (sim::Lba lba = DataBase(); lba < total; ++lba) {
    const sim::Label& label = all_labels[lba];
    if (label.type != sim::PageType::kHeader || label.page_number != 0) {
      continue;
    }
    Found found;
    found.header_lba = lba;
    if (!ReadHeader(lba, label.file_uid, &found.header).ok()) {
      continue;  // unreadable header: the file is lost
    }
    // Validate the run table against the labels (the original scavenger
    // skipped this check; section 5.8 calls that out, so we do it).
    std::uint32_t page = 0;
    std::uint32_t good_pages = 0;
    bool truncated = false;
    for (std::size_t r = 0; r < found.header.runs.size() && !truncated; ++r) {
      const Extent run = found.header.runs[r];  // copy: resize below
      for (std::uint32_t i = 0; i < run.count; ++i) {
        const sim::Label& l = all_labels[run.start + i];
        if (l.file_uid != found.header.uid || l.page_number != page + i ||
            l.type != sim::PageType::kData) {
          truncated = true;
          found.header.runs.resize(r);
          if (i > 0) {
            // good_pages already counted these i pages in the inner loop.
            found.header.runs.push_back(
                Extent{.start = run.start, .count = i});
          }
          break;
        }
        ++good_pages;
      }
      page += run.count;
    }
    if (truncated) {
      found.header.byte_size = std::min<std::uint64_t>(
          found.header.byte_size, static_cast<std::uint64_t>(good_pages) * 512);
      // Persist the repaired header so the truncation survives.
      CEDAR_RETURN_IF_ERROR(
          WriteHeader(found.header, found.header_lba, false));
    }
    files.push_back(std::move(found));
  }

  // Phase 3: rebuild the name table from scratch.
  nt_store_->DropCache();
  nt_bitmap_ = Bitmap(config_.nt_page_count, /*initial=*/true);
  nt_bitmap_.Set(0, false);
  CEDAR_RETURN_IF_ERROR(name_table_->Create());
  for (const Found& found : files) {
    CEDAR_RETURN_IF_ERROR(name_table_->Insert(
        fs::EncodeNameKey(found.header.name, found.header.version),
        SerializeNtEntry(found.header.uid, found.header_lba,
                         found.header.keep)));
  }

  // Phase 4: rebuild the VAM from the validated files and free orphaned
  // labels so their sectors become allocatable again.
  vam_ = Bitmap(total, /*initial=*/true);
  vam_.SetRange(0, DataBase(), false);
  Bitmap claimed(total, /*initial=*/false);
  for (const Found& found : files) {
    claimed.SetRange(found.header_lba, 2, true);
    vam_.SetRange(found.header_lba, 2, false);
    for (const Extent& run : found.header.runs) {
      claimed.SetRange(run.start, run.count, true);
      vam_.SetRange(run.start, run.count, false);
    }
  }
  for (sim::Lba lba = DataBase(); lba < total; ++lba) {
    if (claimed.Get(lba) || all_labels[lba].type == sim::PageType::kFree) {
      continue;
    }
    if (all_labels[lba].file_uid == ~0ull) {
      vam_.Set(lba, false);  // unreadable: keep out of circulation
      continue;
    }
    // Orphaned label: free it (batch with following orphans on the track).
    sim::Lba end = lba + 1;
    while (end < total && !claimed.Get(end) &&
           all_labels[end].type != sim::PageType::kFree &&
           all_labels[end].file_uid != ~0ull && end - lba < spt) {
      ++end;
    }
    const std::vector<sim::Label> free_labels(end - lba, sim::Label{});
    CEDAR_RETURN_IF_ERROR(disk_->WriteLabels(lba, free_labels));
    lba = end - 1;
  }

  ++boot_count_;
  uid_counter_ = 0;
  CEDAR_RETURN_IF_ERROR(WriteVam());
  CEDAR_RETURN_IF_ERROR(WriteVolumeRoot());
  open_files_.clear();
  mounted_ = true;
  return OkStatus();
}

}  // namespace cedar::cfs
