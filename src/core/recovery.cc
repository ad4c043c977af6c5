#include "src/core/recovery.h"

#include <algorithm>

#include "src/fsapi/name_key.h"
#include "src/util/serial.h"

namespace cedar::core {
namespace {

// "FSDB": the name table's two copies share band cylinders
// (FsdLayout::NtHome). A volume from before that layout fails Mount on the
// magic instead of having its pages looked for in the wrong sectors: "FSDV"
// kept the copies in two regions on either side of the log, and "FSDR"
// also held fixed-width entries.
constexpr std::uint32_t kRootMagic = 0x46534442;

}  // namespace

std::vector<std::uint8_t> VolumeRoot::Encode(
    const VolumeRoot& root, const sim::DiskGeometry& geometry) {
  ByteWriter w;
  w.U32(kRootMagic);
  w.U32(geometry.cylinders);
  w.U32(geometry.heads);
  w.U32(geometry.sectors_per_track);
  w.U32(root.log_sectors);
  w.U32(root.nt_pages);
  w.U32(root.nt_band);
  w.U32(root.boot_count);
  w.U32(root.nt_seq);
  w.U8(root.clean ? 1 : 0);
  return SealSector(std::move(w));
}

Result<VolumeRoot> VolumeRoot::Decode(std::span<const std::uint8_t> sector,
                                      const sim::DiskGeometry& geometry) {
  ByteReader r(sector);
  if (r.U32() != kRootMagic) {
    return MakeError(ErrorCode::kCorruptMetadata, "bad root magic");
  }
  if (r.U32() != geometry.cylinders || r.U32() != geometry.heads ||
      r.U32() != geometry.sectors_per_track) {
    return MakeError(ErrorCode::kCorruptMetadata, "geometry mismatch");
  }
  VolumeRoot root;
  root.log_sectors = r.U32();
  root.nt_pages = r.U32();
  root.nt_band = r.U32();
  root.boot_count = r.U32();
  root.nt_seq = r.U32();
  const std::uint8_t clean = r.U8();
  if (!r.ok()) {
    return MakeError(ErrorCode::kCorruptMetadata, "truncated root");
  }
  if (!CheckSeal(sector, r.position())) {
    return MakeError(ErrorCode::kCorruptMetadata, "root crc mismatch");
  }
  if (clean > 1) {
    return MakeError(ErrorCode::kCorruptMetadata, "root clean flag");
  }
  root.clean = clean == 1;
  return root;
}

Status WalkNameTable(btree::BTree& tree, const FsdLayout& layout,
                     const NtPagesFn& on_pages, const NtEntryFn& on_entry,
                     NtWalk* walk) {
  using Problem = NtWalk::Problem;
  walk->referenced = Bitmap(static_cast<std::uint32_t>(layout.data_high));
  CEDAR_RETURN_IF_ERROR(tree.CollectPages(&walk->live));
  if (on_pages) {
    CEDAR_RETURN_IF_ERROR(on_pages(walk->live));
  }
  auto note = [walk](Problem problem, std::string detail) {
    walk->findings.push_back({.problem = problem, .detail = std::move(detail)});
  };
  // Marks one extent; false when it lies outside the file data region.
  auto reference = [&](sim::Lba start, std::uint32_t count,
                       const std::string& what) {
    if (start < layout.data_low || start + count > layout.data_high ||
        layout.InMetadataComplex(start, count)) {
      note(Problem::kOutOfBounds,
           what + " lba " + std::to_string(start) +
               (count > 1 ? ".." + std::to_string(start + count - 1) : "") +
               " lies outside the file data region");
      return false;
    }
    for (sim::Lba lba = start; lba < start + count; ++lba) {
      if (walk->referenced.Get(static_cast<std::uint32_t>(lba))) {
        note(Problem::kDoubleReferenced,
             what + ": sector " + std::to_string(lba) +
                 " is claimed by more than one run");
      }
      walk->referenced.Set(static_cast<std::uint32_t>(lba), true);
    }
    return true;
  };
  return tree.Scan({}, [&](std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> value) {
    std::string name;
    std::uint32_t version = 0;
    FsdEntry entry;
    if (!fs::DecodeNameKey(key, &name, &version)) {
      note(Problem::kKeyUnparsable, "undecodable name-table key");
      return true;
    }
    const std::string ident = name + "!" + std::to_string(version);
    if (!ParseEntry(value, &entry).ok()) {
      note(Problem::kEntryUnparsable, ident + ": undecodable entry value");
      return true;
    }
    ++walk->entries;
    const bool leader_ok = reference(entry.leader_lba, 1, ident + " leader");
    for (const fs::Extent& run : entry.runs) {
      reference(run.start, run.count, ident + " run");
    }
    if (leader_ok && on_entry) {
      on_entry(name, version, entry);
    }
    return true;
  });
}

void CompareAllocation(const Vam& vam, const FsdLayout& layout,
                       const Bitmap& referenced,
                       std::span<const btree::PageId> live,
                       const std::function<void(const VamDelta&)>& fix) {
  auto compare = [&](VamDelta::Op alloc, VamDelta::Op free, std::uint32_t at,
                     bool used, bool wanted) {
    if (used != wanted) {
      fix(VamDelta{.op = used ? free : alloc, .start = at, .count = 1});
    }
  };
  // The layout bounds a volume to 2^31 sectors, so an LBA fits 32 bits.
  for (auto lba = static_cast<std::uint32_t>(layout.data_low);
       lba < layout.data_high; ++lba) {
    if (!layout.InMetadataComplex(lba)) {  // the complex is not file space
      compare(VamDelta::Op::kAlloc, VamDelta::Op::kFree, lba, !vam.IsFree(lba),
              referenced.Get(lba));
    }
  }
  Bitmap live_map(vam.nt_free().size());
  for (btree::PageId pid : live) {
    live_map.Set(pid, true);
  }
  for (std::uint32_t pid = 0; pid < live_map.size(); ++pid) {
    compare(VamDelta::Op::kNtAlloc, VamDelta::Op::kNtFree, pid,
            !vam.nt_free().Get(pid), live_map.Get(pid));
  }
}

void MarkAllFree(const FsdLayout& layout, Vam* vam) {
  Bitmap& free = vam->free();
  free.SetRange(0, free.size(), true);
  free.SetRange(0, static_cast<std::uint32_t>(layout.data_low), false);
  free.SetRange(static_cast<std::uint32_t>(layout.complex_begin()),
                static_cast<std::uint32_t>(layout.complex_end() -
                                           layout.complex_begin()),
                false);
  vam->nt_free().SetRange(0, vam->nt_free().size(), true);
}

Recovery::Recovery(sim::BlockDevice* disk, const FsdLayout& layout,
                   const FsdConfig& config, FsdLog* log, NtStore* nt,
                   MediaHealth* health, obs::MetricsRegistry* metrics)
    : c{*metrics},
      disk_(disk),
      layout_(layout),
      config_(config),
      log_(log),
      nt_(nt),
      health_(health) {}

Status Recovery::WriteRoot(bool clean, std::uint32_t boot_count) {
  const std::vector<std::uint8_t> root = VolumeRoot::Encode(
      VolumeRoot{.log_sectors = config_.log_sectors,
                 .nt_pages = config_.nt_pages,
                 .nt_band = layout_.nt_band,
                 .boot_count = boot_count,
                 .nt_seq = nt_->seq_clock(),
                 .clean = clean},
      disk_->geometry());
  // [root][blank][copy] in one write; the copies are never adjacent.
  std::vector<std::uint8_t> buf(3 * 512, 0);
  std::copy(root.begin(), root.end(), buf.begin());
  std::copy(root.begin(), root.end(), buf.begin() + 2 * 512);
  const Status wrote = disk_->Write(layout_.root_lba, buf);
  if (!wrote.ok() && wrote.code() != ErrorCode::kDeviceCrashed) {
    health_->NoteUnrepairable("volume root unwritable at lba " +
                              std::to_string(layout_.root_lba) + ": " +
                              wrote.message());
  }
  return wrote;
}

Result<VolumeRoot> Recovery::ReadRoot() {
  std::vector<std::uint8_t> buf(3 * 512);
  std::vector<std::uint32_t> bad;
  CEDAR_RETURN_IF_ERROR(health_->ReadWithRetry(layout_.root_lba, buf, &bad));
  const auto span = std::span<const std::uint8_t>(buf);
  auto copy = [&](std::uint32_t slot) -> Result<VolumeRoot> {
    if (std::find(bad.begin(), bad.end(), slot) != bad.end()) {
      return MakeError(ErrorCode::kSectorDamaged, "root copy unreadable");
    }
    return VolumeRoot::Decode(span.subspan(slot * 512, 512),
                              disk_->geometry());
  };
  const Result<VolumeRoot> root0 = copy(0);
  const Result<VolumeRoot> root2 = copy(2);
  if (!root0.ok() && !root2.ok()) {
    return MakeError(ErrorCode::kCorruptMetadata, "volume root unreadable");
  }
  // Both copies ride in one 3-sector write, so they normally match; a torn
  // root write leaves one copy a boot behind — the higher boot count is the
  // one that finished.
  const bool use2 =
      root2.ok() && (!root0.ok() || root2->boot_count > root0->boot_count);
  const VolumeRoot root = use2 ? *root2 : *root0;
  if (root.log_sectors != config_.log_sectors ||
      root.nt_pages != config_.nt_pages) {
    return MakeError(
        ErrorCode::kInvalidArgument,
        "volume root holds log_sectors " + std::to_string(root.log_sectors) +
            ", nt_pages " + std::to_string(root.nt_pages) +
            "; the config has log_sectors " +
            std::to_string(config_.log_sectors) + ", nt_pages " +
            std::to_string(config_.nt_pages));
  }
  if (root.nt_band != layout_.nt_band) {
    return MakeError(
        ErrorCode::kInvalidArgument,
        "volume root holds a name-table band of " +
            std::to_string(root.nt_band) + " pages; this config's "
            "durability.nt_read_ahead_pages " +
            std::to_string(config_.durability.nt_read_ahead_pages) +
            " plans " + std::to_string(layout_.nt_band));
  }
  nt_->MergeSeq(root.nt_seq);
  // Heal the lost/stale copy from the survivor while we are here (never in
  // degraded mode — nothing writes there).
  const bool diverged =
      root0.ok() != root2.ok() ||
      !std::equal(span.begin(), span.begin() + 512, span.begin() + 2 * 512);
  if (diverged && !health_->degraded()) {
    auto good = span.subspan(use2 ? 2 * 512 : 0, 512);
    const sim::Lba stale = layout_.root_lba + (use2 ? 0 : 2);
    const Status repaired = disk_->Write(stale, good);
    if (repaired.code() == ErrorCode::kDeviceCrashed) {
      return repaired;
    }
    if (repaired.ok()) {
      health_->c.repairs->Increment();
    } else {
      health_->NoteUnrepairable("volume root copy unwritable at lba " +
                                std::to_string(stale) + ": " +
                                repaired.message());
    }
  }
  return root;
}

Status Recovery::CollectReplay(std::uint32_t boot_count, bool keep_deltas,
                               Replay* replay) {
  // Later images supersede earlier ones and tombstones cancel queued leader
  // writes, so everything is collected before anything is written. Known
  // edge: a record carrying a spare LBA whose mapping later moved to a
  // different spare is not renormalized.
  //
  // A record's CRCs prove it is intact, not that its homes are ones the
  // force path logs: a name-table page's two copies (a spare standing in
  // for either), or one file-data sector for a leader and its tombstone.
  // Redo would write anything else, the root or the log pointer say, over
  // what it names.
  auto loggable = [&](const PageImage& page) {
    if (page.secondary == kNoLba) {
      return page.primary >= layout_.data_low &&
             page.primary < layout_.data_high &&
             !layout_.InMetadataComplex(page.primary);
    }
    const std::optional<NtStore::CopyRef> primary = nt_->CopyAt(page.primary);
    const std::optional<NtStore::CopyRef> replica =
        nt_->CopyAt(page.secondary);
    return primary && replica && !primary->replica && replica->replica &&
           primary->pid == replica->pid;
  };
  auto visit = [&](std::uint64_t lsn, const std::vector<PageImage>& pages) {
    for (const PageImage& page : pages) {
      if (page.kind != PageKind::kVamDelta && !loggable(page)) {
        return MakeError(ErrorCode::kCorruptMetadata,
                         "log record " + std::to_string(lsn) +
                             " names home lba " +
                             std::to_string(page.primary) + "/" +
                             std::to_string(page.secondary) +
                             ", not a name-table page or a file-data sector");
      }
      if (page.kind == PageKind::kTombstone) {
        replay->pages.erase(nt_->Map(page.primary));
      } else if (page.kind == PageKind::kPage) {
        PageImage mapped = page;
        mapped.primary = nt_->Map(page.primary);
        if (page.secondary != kNoLba) {
          mapped.secondary = nt_->Map(page.secondary);
          nt_->MergeTrailerSeq(mapped.data);
        }
        replay->pages[mapped.primary] = std::move(mapped);
      } else if (keep_deltas) {
        std::vector<VamDelta> parsed;
        CEDAR_RETURN_IF_ERROR(ParseDeltas(
            page.data, static_cast<std::uint32_t>(layout_.data_high),
            config_.nt_pages, &parsed));
        for (const VamDelta& delta : parsed) {
          replay->deltas.emplace_back(lsn, delta);
        }
      }
    }
    return OkStatus();
  };
  return log_->Recover(visit, boot_count);
}

Status Recovery::Timed(obs::Counter* us,
                       const std::function<Status()>& phase) {
  const sim::Micros start = disk_->clock().now();
  const Status status = phase();
  us->Add(disk_->clock().now() - start);
  return status;
}

Status Recovery::Redo(bool clean, std::uint32_t boot_count,
                      std::vector<std::pair<std::uint64_t, VamDelta>>* deltas) {
  if (clean) {
    return Timed(c.replay_write_us, [&] {
      // The log contents are all applied; start it fresh. The log has no
      // spare sectors, so a write fault here leaves the volume only the
      // read-only degraded mount; attribute it for that mount's report.
      const Status formatted = log_->Format(boot_count);
      if (!formatted.ok() && formatted.code() != ErrorCode::kDeviceCrashed) {
        health_->NoteUnrepairable("log unwritable at mount: " +
                                  formatted.message());
      }
      return formatted;
    });
  }
  Replay replay;
  CEDAR_RETURN_IF_ERROR(Timed(c.replay_read_us, [&] {
    return CollectReplay(boot_count, /*keep_deltas=*/true, &replay);
  }));
  *deltas = std::move(replay.deltas);
  // Write the surviving images home through the elevator scheduler
  // (name-table pages cluster, so this turns hundreds of rotational misses
  // into a few streaming writes).
  std::vector<NtStore::HomeWrite> writes;
  for (const auto& [lba, page] : replay.pages) {
    writes.push_back({.primary = lba, .replica = page.secondary,
                      .image = page.data});
    c.pages_replayed->Increment();
  }
  return Timed(c.replay_write_us, [&] { return nt_->WriteHomes(writes); });
}

bool Recovery::LoadVam(
    const VolumeRoot& root,
    std::span<const std::pair<std::uint64_t, VamDelta>> deltas, Vam* vam) {
  if (root.clean) {
    return vam
        ->Load(disk_, layout_.vam_base, layout_.vam_sectors, root.boot_count)
        .ok();
  }
  if (!config_.durability.vam_logging) {
    return false;
  }
  // The last base snapshot plus the deltas logged since it (idempotent,
  // applied in LSN order).
  std::uint64_t base_lsn = 0;
  if (!vam->Load(disk_, layout_.vam_base, layout_.vam_sectors, Vam::kAnyBoot,
                 &base_lsn)
           .ok()) {
    return false;
  }
  for (const auto& [lsn, delta] : deltas) {
    if (lsn >= base_lsn) {
      vam->Apply(delta);
    }
  }
  c.fast_recoveries->Increment();
  return true;
}

Status Recovery::RebuildVam(const NtImages& images, btree::PageId root,
                            Vam* vam) {
  // The name table is compact and local, so this scan is fast; the cost is
  // mostly per-entry CPU. The walk reads the images the mount sweep
  // elected, never the bounded cache.
  NtImageStore store(&images, health_);
  btree::BTree tree(&store, root);
  NtWalk walk;
  CEDAR_RETURN_IF_ERROR(WalkNameTable(
      tree, layout_, nullptr,
      [&](const std::string&, std::uint32_t, const FsdEntry&) {
        disk_->clock().AdvanceCpu(config_.cpu.per_rebuild_entry);
      },
      &walk));
  MarkAllFree(layout_, vam);
  for (btree::PageId pid : walk.live) {
    vam->nt_free().Set(pid, false);
  }
  vam->free().AndNot(walk.referenced);
  for (const NtWalk::Finding& finding : walk.findings) {
    if (finding.problem == NtWalk::Problem::kOutOfBounds) {
      health_->NoteUnrepairable("name-table entry " + finding.detail +
                                "; left unmarked in the allocation map");
    }
  }
  return OkStatus();
}

}  // namespace cedar::core
