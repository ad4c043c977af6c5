#include "src/core/log.h"

#include <algorithm>
#include <string>

#include "src/core/layout.h"
#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/serial.h"

namespace cedar::core {
namespace {

constexpr std::uint32_t kHeaderMagic = 0x4C4F4748;   // "LOGH"
constexpr std::uint32_t kEndMagic = 0x4C4F4745;      // "LOGE"
constexpr std::uint32_t kMarkerMagic = 0x4C4F474D;   // "LOGM"
constexpr std::uint32_t kPointerMagic = 0x4C4F4750;  // "LOGP"

struct HomeRef {
  sim::Lba primary = kNoLba;
  sim::Lba secondary = kNoLba;
  PageKind kind = PageKind::kPage;
};

struct ParsedHeader {
  std::uint64_t lsn = 0;
  std::uint32_t boot = 0;
  std::uint32_t npages = 0;
  std::uint32_t data_crc = 0;
  bool group_start = true;
  bool group_end = true;
  std::vector<HomeRef> homes;
};

bool ParseHeaderSector(std::span<const std::uint8_t> sector,
                       ParsedHeader* out) {
  ByteReader r(sector);
  if (r.U32() != kHeaderMagic) {
    return false;
  }
  out->lsn = r.U64();
  out->boot = r.U32();
  out->npages = r.U16();
  out->data_crc = r.U32();
  const std::uint8_t group_flags = r.U8();
  out->group_start = (group_flags & 1) != 0;
  out->group_end = (group_flags & 2) != 0;
  if (!r.ok() || out->npages == 0 || out->npages > FsdLog::kMaxPagesPerRecord) {
    return false;
  }
  out->homes.clear();
  for (std::uint32_t i = 0; i < out->npages; ++i) {
    HomeRef home;
    home.primary = r.U32();
    home.secondary = r.U32();
    const std::uint8_t kind = r.U8();
    if (kind > static_cast<std::uint8_t>(PageKind::kVamDelta)) {
      return false;
    }
    home.kind = static_cast<PageKind>(kind);
    out->homes.push_back(home);
  }
  if (!r.ok()) {
    return false;
  }
  return CheckSeal(sector, r.position());
}

// Marker and end sectors share a {magic, lsn, boot, crc} shape.
bool ParseStamp(std::span<const std::uint8_t> sector, std::uint32_t magic,
                std::uint64_t* lsn, std::uint32_t* boot) {
  ByteReader r(sector);
  if (r.U32() != magic) {
    return false;
  }
  *lsn = r.U64();
  *boot = r.U32();
  if (!r.ok()) {
    return false;
  }
  return CheckSeal(sector, r.position());
}

}  // namespace

// Defined here rather than in a layout translation unit so the rules can
// reuse FsdLog's record-geometry arithmetic.
Status FsdConfig::Validate(const sim::DiskGeometry& geometry) const {
  // Log geometry: pointer pages plus a third that fits a maximal record —
  // the same bound FsdLog turns into a hard CHECK at construction.
  const std::uint32_t min_log =
      4 + 3 * FsdLog::RecordSectors(FsdLog::kMaxPagesPerRecord);
  if (log_sectors < min_log) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "log_sectors " + std::to_string(log_sectors) +
                         " below minimum " + std::to_string(min_log));
  }
  if (nt_pages == 0) {
    return MakeError(ErrorCode::kInvalidArgument, "nt_pages must be > 0");
  }
  if (durability.nt_read_ahead_pages == 0) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "durability.nt_read_ahead_pages must be > 0");
  }
  if (cache_frames < 8 || cache_frames < durability.nt_read_ahead_pages) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "cache_frames must be >= 8 and cover one name-table "
                     "read-ahead cluster");
  }
  if (commit.group_records == 0) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "commit.group_records must be >= 1");
  }
  // A requested group larger than one third is clamped to MaxGroupPages at
  // force time (a policy choice, not an error), so group_records needs no
  // upper bound here — but the checkpoint window below is validated against
  // the group size that clamping actually yields.
  const std::uint32_t area = log_sectors - 4;
  if (checkpoint.window_sectors != 0) {
    // The live log can never be drained below the newest commit group, so
    // a window smaller than one (clamped) group is unsatisfiable; one
    // larger than the record area can never trigger.
    const std::uint32_t min_window = MinCheckpointWindowSectors();
    if (checkpoint.window_sectors < min_window ||
        checkpoint.window_sectors > area) {
      return MakeError(
          ErrorCode::kInvalidArgument,
          "checkpoint.window_sectors must be within [" +
              std::to_string(min_window) + ", " + std::to_string(area) +
              "] for this log/group sizing (0 = one third)");
    }
  }
  return FsdLayout::Plan(geometry, *this).status();
}

std::uint32_t FsdConfig::MinCheckpointWindowSectors() const {
  return FsdLog::GroupSectors(
      std::min(commit.group_records * FsdLog::kMaxPagesPerRecord,
               FsdLog::MaxGroupPagesIn((log_sectors - 4) / 3)));
}

FsdLog::FsdLog(sim::BlockDevice* disk, sim::Lba base,
               std::uint32_t size_sectors, obs::MetricsRegistry* metrics)
    : disk_(disk),
      base_(base),
      size_sectors_(size_sectors),
      pages_logged_(metrics->GetCounter("log.pages_logged")),
      sectors_written_(metrics->GetCounter("log.sectors_written")),
      markers_(metrics->GetCounter("log.markers")),
      third_entries_(metrics->GetCounter("log.third_entries")),
      record_sectors_(metrics->GetHistogram("log.record_sectors")) {
  CEDAR_CHECK(disk != nullptr);
  // Room for pointer pages plus a third that fits a maximal record.
  CEDAR_CHECK(size_sectors_ >= 4 + 3 * (2 * kMaxPagesPerRecord + 5));
}

std::vector<std::uint8_t> FsdLog::BuildHeaderSector(
    std::span<const PageImage> pages, bool group_start,
    bool group_end) const {
  ByteWriter w;
  w.U32(kHeaderMagic);
  w.U64(next_lsn_);
  w.U32(boot_count_);
  w.U16(static_cast<std::uint16_t>(pages.size()));
  std::uint32_t data_crc = 0;
  for (const PageImage& page : pages) {
    data_crc = Crc32(page.data, data_crc);
  }
  w.U32(data_crc);
  w.U8(static_cast<std::uint8_t>((group_start ? 1 : 0) |
                                 (group_end ? 2 : 0)));
  for (const PageImage& page : pages) {
    w.U32(page.primary);
    w.U32(page.secondary);
    w.U8(static_cast<std::uint8_t>(page.kind));
  }
  return SealSector(std::move(w));
}

std::vector<std::uint8_t> FsdLog::BuildStamp(std::uint32_t magic) const {
  ByteWriter w;
  w.U32(magic);
  w.U64(next_lsn_);
  w.U32(boot_count_);
  return SealSector(std::move(w));
}

Status FsdLog::WritePointer() {
  ByteWriter w;
  w.U32(kPointerMagic);
  w.U32(oldest_.offset);
  w.U64(oldest_.lsn);
  w.U32(oldest_.boot);
  std::vector<std::uint8_t> ptr = SealSector(std::move(w));
  // [pointer][blank][pointer copy] in one request: the duplicates are not
  // adjacent, so one torn write cannot destroy both.
  std::vector<std::uint8_t> buf(3 * 512, 0);
  std::copy(ptr.begin(), ptr.end(), buf.begin());
  std::copy(ptr.begin(), ptr.end(), buf.begin() + 2 * 512);
  sectors_written_->Add(3);
  return disk_->Write(base_, buf);
}

Result<FsdLog::LiveRecord> FsdLog::ReadPointer() {
  auto parse = [&](std::span<const std::uint8_t> sector, LiveRecord* named) {
    ByteReader r(sector);
    if (r.U32() != kPointerMagic) {
      return false;
    }
    named->offset = r.U32();
    named->lsn = r.U64();
    named->boot = r.U32();
    if (!r.ok() || !CheckSeal(sector, r.position())) {
      return false;
    }
    return named->offset < record_area_sectors();
  };

  std::vector<std::uint8_t> buf(3 * 512);
  std::vector<std::uint32_t> bad;
  CEDAR_RETURN_IF_ERROR(disk_->Read(base_, buf, &bad));
  LiveRecord named;
  for (const std::uint32_t copy : {0u, 2u}) {  // the pointer, then its copy
    if (std::find(bad.begin(), bad.end(), copy) == bad.end() &&
        parse(std::span<const std::uint8_t>(buf).subspan(copy * 512, 512),
              &named)) {
      return named;
    }
  }
  return MakeError(ErrorCode::kCorruptMetadata, "log pointer unreadable");
}

Status FsdLog::Format(std::uint32_t boot_count) {
  boot_count_ = boot_count;
  next_lsn_ = 1;
  pos_ = 0;
  current_third_ = 0;
  oldest_ = LiveRecord{1, 0, true, boot_count};
  live_.clear();
  CEDAR_RETURN_IF_ERROR(WritePointer());
  // Invalidate the first header position so recovery of a fresh log stops
  // immediately even if the area holds stale records.
  std::vector<std::uint8_t> zero(512, 0);
  sectors_written_->Increment();
  return disk_->Write(AreaLba(0), zero);
}

Status FsdLog::PrepareSpace(std::uint32_t len,
                            const ThirdEntryFn& enter_third) {
  CEDAR_CHECK(len < third_sectors());

  // Skip to the next third (or wrap) if the span would straddle it.
  const int pos_third = ThirdOf(pos_);
  const std::uint32_t boundary =
      pos_third < 2 ? ThirdStart(pos_third + 1) : record_area_sectors();
  if (pos_ + len > boundary) {
    if (pos_ < boundary) {
      std::vector<std::uint8_t> marker = BuildStamp(kMarkerMagic);
      CEDAR_RETURN_IF_ERROR(disk_->Write(AreaLba(pos_), marker));
      // Markers are chain elements: the pointer may legally name one, so
      // they live in the index like records (and as group boundaries —
      // they never sit inside a reserved group).
      live_.push_back(LiveRecord{next_lsn_, pos_, true, boot_count_});
      ++next_lsn_;
      markers_->Increment();
      sectors_written_->Increment();
    }
    pos_ = boundary == record_area_sectors() ? 0 : boundary;
  }

  const int third = ThirdOf(pos_);
  if (third != current_third_) {
    // Entering a new third: any index entries still here are from the
    // previous lap (a continuous checkpoint may already have dropped some or
    // all of them) and form the front of the index. The owner checkpoints up
    // to the oldest record outside this third, then the oldest-record
    // pointer durably moves past it.
    const auto outside =
        std::find_if(live_.begin(), live_.end(), [&](const LiveRecord& r) {
          return ThirdOf(r.offset) != third;
        });
    CEDAR_RETURN_IF_ERROR(
        enter_third(outside == live_.end() ? next_lsn_ : outside->lsn));
    while (!live_.empty() && ThirdOf(live_.front().offset) == third) {
      live_.pop_front();
    }
    oldest_ = live_.empty() ? LiveRecord{next_lsn_, pos_, true, boot_count_}
                            : live_.front();
    CEDAR_RETURN_IF_ERROR(WritePointer());
    current_third_ = third;
    third_entries_->Increment();
  }
  return OkStatus();
}

Status FsdLog::AppendPrepared(std::span<const PageImage> pages,
                              bool group_start, bool group_end) {
  const auto len = static_cast<std::uint32_t>(RecordSectors(
      static_cast<std::uint32_t>(pages.size())));
  // Assemble the record: H, blank, H', D1..Dn, E, D1'..Dn', E'.
  const std::vector<std::uint8_t> header =
      BuildHeaderSector(pages, group_start, group_end);
  const std::vector<std::uint8_t> end = BuildStamp(kEndMagic);
  std::vector<std::uint8_t> buf;
  buf.reserve(static_cast<std::size_t>(len) * 512);
  auto put = [&buf](std::span<const std::uint8_t> sector) {
    buf.insert(buf.end(), sector.begin(), sector.end());
  };
  put(header);
  buf.insert(buf.end(), 512, 0);  // blank page
  put(header);
  for (const PageImage& page : pages) {
    put(page.data);
  }
  put(end);
  for (const PageImage& page : pages) {
    put(page.data);
  }
  put(end);
  CEDAR_RETURN_IF_ERROR(disk_->Write(AreaLba(pos_), buf));

  live_.push_back(LiveRecord{next_lsn_, pos_, group_start, boot_count_});
  pos_ += len;
  if (pos_ >= record_area_sectors()) {
    pos_ = 0;
  }
  ++next_lsn_;
  pages_logged_->Add(pages.size());
  sectors_written_->Add(len);
  record_sectors_->Record(len);
  return OkStatus();
}

std::uint32_t FsdLog::MaxGroupPagesIn(std::uint32_t third_sectors) {
  std::uint32_t best = 0;
  while (GroupSectors(best + 1) < third_sectors) {
    ++best;
  }
  return best;
}

Result<std::uint64_t> FsdLog::AppendGroup(std::span<const PageImage> pages,
                                          const ThirdEntryFn& enter_third) {
  CEDAR_CHECK(!pages.empty());
  CEDAR_CHECK(pages.size() <= MaxGroupPages());
  for (const PageImage& page : pages) {
    CEDAR_CHECK(page.data.size() == 512);
    CEDAR_CHECK(page.primary != kNoLba || page.kind == PageKind::kVamDelta);
  }
  // Reserve room for the whole group, so every record lands in one third
  // and recovery's all-or-nothing group replay cannot lose a committed
  // group to third reclamation between its records.
  const std::uint32_t total =
      GroupSectors(static_cast<std::uint32_t>(pages.size()));
  CEDAR_RETURN_IF_ERROR(PrepareSpace(total, enter_third));
  const std::uint64_t first_lsn = next_lsn_;

  std::size_t i = 0;
  while (i < pages.size()) {
    const std::size_t n =
        std::min<std::size_t>(kMaxPagesPerRecord, pages.size() - i);
    const bool start = i == 0;
    const bool end = i + n == pages.size();
    CEDAR_RETURN_IF_ERROR(
        AppendPrepared(pages.subspan(i, n), start, end));
    i += n;
  }
  return first_lsn;
}

Status FsdLog::ValidatePointer() { return ReadPointer().status(); }

std::uint32_t FsdLog::LiveSectors() const {
  if (live_.empty()) {
    return 0;
  }
  const std::uint32_t area = record_area_sectors();
  const std::uint32_t from = live_.front().offset;
  return pos_ >= from ? pos_ - from : area - from + pos_;
}

std::uint64_t FsdLog::CheckpointTarget(std::uint32_t goal_sectors) const {
  const std::uint32_t area = record_area_sectors();
  auto live_after = [&](std::uint32_t offset) {
    return pos_ >= offset ? pos_ - offset : area - offset + pos_;
  };
  // Walk oldest-to-newest; each boundary is a legal target. Stop at the
  // first one that satisfies the goal, otherwise settle for the maximal
  // advance (the newest boundary — index 0 is the floor, never a target).
  std::uint64_t best = 0;
  for (std::size_t i = 1; i < live_.size(); ++i) {
    if (!live_[i].group_boundary) {
      continue;
    }
    best = live_[i].lsn;
    if (live_after(live_[i].offset) <= goal_sectors) {
      break;
    }
  }
  return best;
}

Result<std::uint32_t> FsdLog::AdvanceCheckpoint(std::uint64_t target_lsn) {
  std::uint32_t dropped = 0;
  // Keeping one record means the persisted pointer always names a valid,
  // current-boot record — recovery never starts its scan on stale sectors
  // from a previous lap.
  while (live_.size() > 1 && live_.front().lsn < target_lsn) {
    live_.pop_front();
    ++dropped;
  }
  if (dropped == 0) {
    return dropped;
  }
  oldest_ = live_.front();
  CEDAR_RETURN_IF_ERROR(WritePointer());
  return dropped;
}

Status FsdLog::Recover(
    const std::function<Status(std::uint64_t, const std::vector<PageImage>&)>&
        visit,
    std::uint32_t boot_count) {
  live_.clear();
  CEDAR_ASSIGN_OR_RETURN(oldest_, ReadPointer());
  std::uint32_t pos = oldest_.offset;
  // The next chain element's lsn and the lowest boot it may carry.
  std::uint64_t expected_lsn = oldest_.lsn;
  std::uint32_t min_boot = oldest_.boot;
  auto chained = [&](std::uint64_t lsn, std::uint32_t boot) {
    return lsn == expected_lsn && boot >= min_boot;
  };
  std::uint32_t last_start = pos;
  // Commit-group buffering: records accumulate here and are delivered only
  // when the group's final record is seen.
  std::vector<std::pair<std::uint64_t, std::vector<PageImage>>> group;
  bool in_group = false;

  // Slurp the whole record area sequentially (it sits on a handful of
  // central cylinders, so this costs a second or two instead of one
  // rotational miss per sector), remembering which sectors are damaged.
  std::vector<std::uint8_t> area(
      static_cast<std::size_t>(record_area_sectors()) * 512);
  std::vector<bool> damaged(record_area_sectors(), false);
  constexpr std::uint32_t kChunk = 1024;
  for (std::uint32_t off = 0; off < record_area_sectors(); off += kChunk) {
    const std::uint32_t take =
        std::min(kChunk, record_area_sectors() - off);
    std::vector<std::uint32_t> bad;
    CEDAR_RETURN_IF_ERROR(disk_->Read(
        AreaLba(off),
        std::span<std::uint8_t>(area.data() +
                                    static_cast<std::size_t>(off) * 512,
                                static_cast<std::size_t>(take) * 512),
        &bad));
    for (std::uint32_t b : bad) {
      damaged[off + b] = true;
    }
  }
  auto read_sector = [&](std::uint32_t offset,
                         std::vector<std::uint8_t>* out) {
    if (offset >= record_area_sectors() || damaged[offset]) {
      return false;
    }
    out->assign(area.begin() + static_cast<std::size_t>(offset) * 512,
                area.begin() + static_cast<std::size_t>(offset + 1) * 512);
    return true;
  };

  // Bounded by the number of sectors in the area (every step advances).
  for (std::uint64_t guard = 0; guard <= record_area_sectors(); ++guard) {
    if (pos >= record_area_sectors()) {
      pos = 0;
    }
    // Parse the header, repairing from its copy two sectors later.
    ParsedHeader header;
    std::vector<std::uint8_t> sector;
    bool header_ok =
        read_sector(pos, &sector) && ParseHeaderSector(sector, &header);
    if (!header_ok) {
      // Maybe it is a skip marker.
      std::uint64_t marker_lsn = 0;
      std::uint32_t marker_boot = 0;
      if (read_sector(pos, &sector) &&
          ParseStamp(sector, kMarkerMagic, &marker_lsn, &marker_boot)) {
        if (!chained(marker_lsn, marker_boot)) {
          break;
        }
        expected_lsn = marker_lsn + 1;
        min_boot = marker_boot;
        live_.push_back(LiveRecord{marker_lsn, pos, true, marker_boot});
        const int t = ThirdOf(pos);
        last_start = pos;
        pos = t < 2 ? ThirdStart(t + 1) : 0;
        continue;
      }
      // Try the header copy.
      if (pos + 2 < record_area_sectors() && read_sector(pos + 2, &sector) &&
          ParseHeaderSector(sector, &header)) {
        header_ok = true;
      }
    }
    if (!header_ok || !chained(header.lsn, header.boot)) {
      break;
    }
    const std::uint32_t len = RecordSectors(header.npages);
    if (pos + len > record_area_sectors()) {
      break;  // structurally impossible for a good record
    }

    // Read the data pages, preferring the first copy, repairing each from
    // the duplicate set.
    std::vector<PageImage> pages(header.npages);
    bool data_ok = true;
    for (std::uint32_t i = 0; i < header.npages && data_ok; ++i) {
      pages[i].primary = header.homes[i].primary;
      pages[i].secondary = header.homes[i].secondary;
      pages[i].kind = header.homes[i].kind;
      if (!read_sector(pos + 3 + i, &pages[i].data) &&
          !read_sector(pos + 3 + header.npages + 1 + i, &pages[i].data)) {
        data_ok = false;
      }
    }
    if (data_ok) {
      std::uint32_t crc = 0;
      for (const PageImage& page : pages) {
        crc = Crc32(page.data, crc);
      }
      data_ok = crc == header.data_crc;
    }
    // Validate the end stamps (torn-write detection).
    if (data_ok) {
      std::uint64_t end_lsn = 0;
      std::uint32_t end_boot = 0;
      auto end_at = [&](std::uint32_t offset) {
        return read_sector(offset, &sector) &&
               ParseStamp(sector, kEndMagic, &end_lsn, &end_boot) &&
               end_lsn == header.lsn && end_boot == header.boot;
      };
      const bool end_ok =
          end_at(pos + 3 + header.npages) || end_at(pos + len - 1);
      data_ok = end_ok;
    }
    if (!data_ok) {
      break;  // torn or multiply-damaged record: end of valid log
    }

    if (header.group_start) {
      group.clear();
      in_group = true;
    }
    if (in_group) {
      group.emplace_back(header.lsn, std::move(pages));
      if (header.group_end) {
        for (auto& [record_lsn, record_pages] : group) {
          CEDAR_RETURN_IF_ERROR(visit(record_lsn, record_pages));
        }
        group.clear();
        in_group = false;
      }
    }
    // else: the tail of a group whose start fell off the log — skip it,
    // but keep the lsn chain so later groups still replay.
    live_.push_back(
        LiveRecord{header.lsn, pos, header.group_start, header.boot});
    expected_lsn = header.lsn + 1;
    min_boot = header.boot;
    last_start = pos;
    pos += len;
  }

  // Position the log to continue appending.
  // With no record found, appends start at the pointer under the lsn it
  // names, so the next recovery finds them.
  pos_ = pos >= record_area_sectors() ? 0 : pos;
  current_third_ = ThirdOf(last_start);
  next_lsn_ = expected_lsn;
  boot_count_ = boot_count;
  return OkStatus();
}

}  // namespace cedar::core
