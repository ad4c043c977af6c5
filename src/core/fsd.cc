#include "src/core/fsd.h"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "src/fsapi/name_key.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace cedar::core {
namespace {

// A version's properties, as its name-table entry holds them.
fs::FileInfo InfoOf(std::string name, std::uint32_t version,
                    const FsdEntry& entry) {
  return fs::FileInfo{.name = std::move(name),
                      .version = version,
                      .uid = entry.uid,
                      .byte_size = entry.byte_size,
                      .create_time = entry.create_time,
                      .last_used = entry.last_used,
                      .keep = entry.keep};
}

// commit.daemon picks the executor of both round runners: background
// threads, or rounds stepped on the calling thread (inline mode).
RoundRunner::Executor RoundExecutor(const FsdConfig& config) {
  return config.commit.daemon ? RoundRunner::Executor::kThread
                              : RoundRunner::Executor::kStepped;
}

}  // namespace

// The name-table PageStore: reads come from the buffer pool, falling back
// to the name-table store's cluster read on a miss; writes only dirty
// cached frames — the log captures them at the next group commit, so a
// multi-page B-tree update is atomic.
//
// Concurrency: only the cache's closure APIs are used (reads copy out an
// atomic image, writes mutate under the cache mutex), so tree readers on
// shared pages never see torn frames; the allocation-map bitmaps are
// guarded by the owning Fsd's alloc_mu_.
class Fsd::NtPages : public btree::PageStore {
 public:
  explicit NtPages(Fsd* fsd) : fsd_(fsd) {}

  std::uint32_t page_size() const override { return NtStore::kPayload; }

  Status ReadPage(btree::PageId id, std::span<std::uint8_t> out) override {
    std::array<std::uint8_t, 512> cached;
    if (fsd_->cache_.ReadInto(id, cached)) {
      std::copy_n(cached.begin(), NtStore::kPayload, out.begin());
      return OkStatus();
    }
    // Miss: every page the cluster read elects is cached unless a frame
    // already holds it — never clobber a (possibly dirty) frame.
    bool found = false;
    CEDAR_RETURN_IF_ERROR(fsd_->nt_.ReadCluster(
        id, [&](std::uint32_t pid, std::span<const std::uint8_t> good) {
          const bool inserted = fsd_->cache_.InsertIfAbsent(
              pid, std::vector<std::uint8_t>(good.begin(), good.end()));
          if (pid == id) {
            if (!inserted) {
              CEDAR_CHECK(fsd_->cache_.ReadInto(id, cached));
              good = cached;
            }
            std::copy_n(good.begin(), NtStore::kPayload, out.begin());
            found = true;
          }
          return inserted;
        }));
    CEDAR_CHECK(found);
    if (btree::BTree::IsInteriorPage(out)) {
      fsd_->c_.nt_misses_interior->Increment();
    } else {
      fsd_->c_.nt_misses_leaf->Increment();
    }
    return OkStatus();
  }

  Status WritePage(btree::PageId id,
                   std::span<const std::uint8_t> data) override {
    std::vector<std::uint8_t> sector = fsd_->nt_.Compose(data);
    bool became_pending = false;
    fsd_->cache_.Upsert(id, [&](cache::Frame& frame, bool) {
      frame.data = std::move(sector);
      frame.dirty = true;
      if (!frame.dirty_since_log) {
        frame.dirty_since_log = true;
        became_pending = true;
      }
    });
    if (became_pending) {
      fsd_->gate_.NotePendingCapture(1);
    }
    return OkStatus();
  }

  Result<btree::PageId> AllocatePage() override {
    std::optional<std::uint32_t> pid;
    std::size_t delta_pages = 0;
    {
      util::RankedLockGuard lock(fsd_->alloc_mu_, util::LockRank::kAlloc);
      pid = fsd_->vam_.nt_free().FindRunForward(0, 1);
      if (pid) {
        fsd_->vam_.nt_free().Set(*pid, false);
        delta_pages = fsd_->QueueDelta(VamDelta::Op::kNtAlloc, *pid, 1);
      }
    }
    if (!pid) {
      return MakeError(ErrorCode::kNoFreeSpace, "name table region full");
    }
    fsd_->gate_.NotePendingCapture(delta_pages);
    return *pid;
  }

  Status FreePage(btree::PageId id) override {
    // Free for reuse only once the force logging the free is durable.
    std::size_t delta_pages = 0;
    {
      util::RankedLockGuard lock(fsd_->alloc_mu_, util::LockRank::kAlloc);
      fsd_->vam_.MarkNtFreeShadow(id);
      delta_pages = fsd_->QueueDelta(VamDelta::Op::kNtFree, id, 1);
    }
    // A free page's content never needs logging again, but a logged parent
    // image may still point here, so its newest logged image must reach
    // home before the record holding it is dropped: a frame with a logged
    // image stays dirty until a checkpoint retires it. (An in-flight
    // force re-creates the frame of a page it captured.)
    bool was_pending = false;
    fsd_->cache_.EraseIf(id, [&](cache::Frame& frame) {
      was_pending = frame.dirty_since_log;
      frame.dirty_since_log = false;
      return frame.logged_lsn == 0;
    });
    if (was_pending) {
      fsd_->gate_.ReleasePendingCapture(1);
    }
    fsd_->gate_.NotePendingCapture(delta_pages);
    return OkStatus();
  }

  bool CanAllocate(std::uint32_t count) override {
    util::RankedLockGuard lock(fsd_->alloc_mu_, util::LockRank::kAlloc);
    return fsd_->vam_.nt_free().Count() >= count;
  }

 private:
  Fsd* fsd_;
};

bool IsInteriorFrame(std::uint32_t key, std::span<const std::uint8_t> data) {
  return !(key & Fsd::kLeaderKeyBit) && btree::BTree::IsInteriorPage(data);
}

Fsd::Fsd(sim::BlockDevice* disk, FsdConfig config)
    : Fsd(disk, config, &IsInteriorFrame) {}

Fsd::Fsd(sim::BlockDevice* disk, FsdConfig config,
         cache::PageCache::Classifier interior)
    : disk_(disk),
      config_(config),
      config_status_(config.Validate(disk->geometry())),
      layout_(config_status_.ok()
                  ? FsdLayout::Compute(disk->geometry(), config)
                  : FsdLayout{}),
      vam_(disk->geometry().TotalSectors(), config.nt_pages),
      cache_(config.cache_frames, &metrics_, interior),
      commit_rounds_(RoundExecutor(config), [this] { CommitRound(); }),
      ckpt_rounds_(RoundExecutor(config), [this] { CkptRound(); }),
      queue_(&commit_rounds_, &metrics_) {
  CEDAR_CHECK(disk != nullptr);
  nt_pages_ = std::make_unique<NtPages>(this);
  tree_ = std::make_unique<btree::BTree>(nt_pages_.get(), /*root=*/0);
  if (config_status_.ok()) {
    allocator_ = std::make_unique<RunAllocator>(
        &vam_, layout_, config_.big_file_threshold_sectors);
  }

  disk_->AttachMetrics(&metrics_);
}

bool Fsd::LeaderMatches(const FsdEntry& entry, std::uint32_t version,
                        bool charge) {
  if (cache::Frame* frame = cache_.Find(kLeaderKeyBit | entry.leader_lba);
      frame != nullptr && frame->dirty) {
    return VerifyLeader(frame->data, entry, version).ok();
  }
  std::vector<std::uint8_t> sector(512);
  std::vector<std::uint32_t> bad;
  const bool ok = health_.ReadWithRetry(entry.leader_lba, sector, &bad).ok() &&
                  bad.empty() && VerifyLeader(sector, entry, version).ok();
  if (charge) {
    ChargeSectors(1);
  }
  return ok;
}

Status Fsd::RepairLeader(const FsdEntry& entry, std::uint32_t version) {
  if (health_.degraded()) {
    return OkStatus();  // read-only: the entry serves as the authority
  }
  obs::ScopedOp op_scope(disk_->tracer(), "fsd.repair");
  const std::vector<std::uint8_t> image =
      SerializeLeader(MakeLeader(entry, version));
  const Status wrote = disk_->Write(entry.leader_lba, image);
  if (wrote.ok()) {
    health_.c.repairs->Increment();
    return OkStatus();
  }
  if (wrote.code() == ErrorCode::kDeviceCrashed) {
    return wrote;
  }
  health_.NoteUnrepairable("leader unrepairable at lba " +
                   std::to_string(entry.leader_lba) + ": " + wrote.message());
  return wrote;
}

Fsd::~Fsd() { StopRounds(); }

std::uint32_t Fsd::FreeSectors() const {
  util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
  return vam_.FreeCount();
}

bool Fsd::SectorInUse(sim::Lba lba) const {
  util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
  return !vam_.IsFree(static_cast<std::uint32_t>(lba));
}

std::uint32_t Fsd::ShadowSectors() const {
  util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
  return vam_.ShadowCount();
}

bool Fsd::HasPendingUpdates() const {
  // Snapshot of the pending-work state; exact only between settled phases
  // (tests call it with no op in flight).
  bool pending = false;
  const_cast<cache::PageCache&>(cache_).ForEach(
      [&](std::uint32_t, cache::Frame& frame) {
        pending = pending || frame.dirty_since_log;
      });
  util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
  return pending || !pending_tombstones_.empty() ||
         !pending_alloc_deltas_.empty() || !pending_free_deltas_.empty() ||
         vam_.ShadowCount() > 0;
}

std::size_t Fsd::QueueDelta(VamDelta::Op op, std::uint32_t start,
                            std::uint32_t count) {
  if (!config_.durability.vam_logging) {
    return 0;
  }
  auto& deltas = (op == VamDelta::Op::kAlloc || op == VamDelta::Op::kNtAlloc)
                     ? pending_alloc_deltas_
                     : pending_free_deltas_;
  deltas.push_back(VamDelta{.op = op, .start = start, .count = count});
  // Each serialized delta page holds kVamDeltasPerPage entries; this push
  // starts a new pending-capture page when it is the first on one.
  return deltas.size() % kVamDeltasPerPage == 1 ? 1 : 0;
}

Status Fsd::Format() {
  CEDAR_RETURN_IF_ERROR(config_status_);
  StopRounds();
  Status status;
  {
    ScopedQuiesce quiesce(this);
    status = FormatLocked();
  }
  if (status.ok()) {
    StartRounds();
  }
  return status;
}

Status Fsd::FormatLocked() {
  obs::ScopedOp op_scope(disk_->tracer(), "fsd.format");
  metrics_.Reset();
  health_.Reset();
  ResetVolatileState(0);
  // The log is formatted once, by the clean mount that ends Format.
  CEDAR_RETURN_IF_ERROR(nt_.Format());

  MarkAllFree(layout_, &vam_);
  vam_.nt_free().Set(0, false);  // tree root

  CEDAR_RETURN_IF_ERROR(tree_->Create());
  // Write the fresh pages straight home (both copies) and clear flags;
  // nothing needs the log yet.
  CEDAR_RETURN_IF_ERROR(WriteDirtyHome());

  CEDAR_RETURN_IF_ERROR(
      vam_.Save(disk_, layout_.vam_base, layout_.vam_sectors, 0));
  CEDAR_RETURN_IF_ERROR(recovery_.WriteRoot(/*clean=*/true, boot_count_));
  return MountLocked();
}

Status Fsd::Mount() {
  CEDAR_RETURN_IF_ERROR(config_status_);
  StopRounds();
  Status status;
  {
    ScopedQuiesce quiesce(this);
    status = MountLocked();
  }
  if (status.ok()) {
    StartRounds();
  }
  return status;
}

Status Fsd::MountLocked() {
  obs::ScopedOp op_scope(disk_->tracer(), "fsd.mount");
  health_.set_degraded(false);
  Recovery::Counters& phase = recovery_.c;
  VolumeRoot root;
  CEDAR_RETURN_IF_ERROR(recovery_.Timed(phase.root_us, [&]() -> Status {
    CEDAR_ASSIGN_OR_RETURN(root, recovery_.ReadRoot());
    // The remap table routes every name-table home access from here on, so
    // it loads before recovery replay or the preload sweep touch the
    // region.
    return nt_.LoadRemapTable();
  }));
  ResetVolatileState(root.boot_count + 1);
  std::vector<std::pair<std::uint64_t, VamDelta>> deltas;
  CEDAR_RETURN_IF_ERROR(recovery_.Redo(root.clean, boot_count_, &deltas));
  bool loaded = false;
  CEDAR_RETURN_IF_ERROR(recovery_.Timed(phase.rebuild_us, [&] {
    loaded = recovery_.LoadVam(root, deltas, &vam_);
    return OkStatus();
  }));
  if (!loaded) {
    NtImages images;
    CEDAR_RETURN_IF_ERROR(PreloadNameTable(&images));
    CEDAR_RETURN_IF_ERROR(recovery_.Timed(phase.rebuild_us, [&] {
      return recovery_.RebuildVam(images, tree_->root(), &vam_);
    }));
  }
  CEDAR_RETURN_IF_ERROR(recovery_.Timed(phase.root_us, [&]() -> Status {
    if (config_.durability.vam_logging) {
      // Guarantee a base snapshot exists for the next crash. This must
      // land BEFORE the unclean root is written: a clean boot reformats
      // the log (LSNs restart at 1), so once the root says "unclean" any
      // stale base with a large LSN would make recovery skip every new
      // delta — a stale VAM and double allocation. Saving first closes
      // that crash window.
      CEDAR_RETURN_IF_ERROR(vam_.Save(disk_, layout_.vam_base,
                                      layout_.vam_sectors, boot_count_,
                                      log_.next_lsn()));
    }
    return recovery_.WriteRoot(/*clean=*/false, boot_count_);
  }));
  ArmMounted();
  return OkStatus();
}

void Fsd::ResetVolatileState(std::uint32_t boot_count) {
  boot_count_ = boot_count;
  uid_counter_ = 0;
  cache_.Clear();
  open_files_.clear();
  vam_ = Vam(disk_->geometry().TotalSectors(), config_.nt_pages);
}

void Fsd::ArmMounted() {
  last_force_.store(disk_->clock().now(), std::memory_order_relaxed);
  gate_.SetBudget(log_.MaxGroupPages());
  gate_.ResetPendingCapture();
  mounted_ = true;
}

Status Fsd::MountDegraded() {
  CEDAR_RETURN_IF_ERROR(config_status_);
  StopRounds();
  // No rounds are started: a degraded mount is read-only and quiescent.
  ScopedQuiesce quiesce(this);
  return MountDegradedLocked();
}

Status Fsd::MountDegradedLocked() {
  obs::ScopedOp op_scope(disk_->tracer(), "fsd.mount_degraded");
  mounted_ = false;
  // Set FIRST: every write path below (root repair, preload repairs, remap
  // saves) checks this flag and stands down — the medium is preserved
  // exactly as found for offline salvage.
  health_.set_degraded(true);
  const Result<VolumeRoot> root = recovery_.ReadRoot();
  if (root.status().code() == ErrorCode::kDeviceCrashed) {
    return root.status();
  }
  if (!root.ok()) {
    // Keep the constructed config and assume unclean so the log replay
    // below recovers whatever it can.
    health_.NoteUnrepairable("volume root unreadable: " +
                             root.status().message());
  }
  // In-memory only; nothing writes the root in this mode.
  ResetVolatileState((root.ok() ? root->boot_count : boot_count_) + 1);
  const Status remap = nt_.LoadRemapTable();
  if (remap.code() == ErrorCode::kDeviceCrashed) {
    return remap;
  }

  // Unclean volume: collect the committed log images (the VAM is not
  // reconstructed in this mode). FsdLog::Recover is read-only, so this is
  // safe on damaged media; if the log itself is unreadable the mount
  // continues with whatever the home copies hold.
  Replay replay;
  if (!root.ok() || !root->clean) {
    const Status recovered =
        recovery_.CollectReplay(boot_count_, /*keep_deltas=*/false, &replay);
    if (recovered.code() == ErrorCode::kDeviceCrashed) {
      return recovered;
    }
    if (!recovered.ok()) {
      health_.NoteUnrepairable("log unreadable, recovery skipped: " +
                               recovered.message());
      replay.pages.clear();
    }
  }

  // Fill the cache from the surviving home copies (repairs stand down via
  // the degraded flag), then overlay the replayed images — they are newer
  // than any home copy. Overlaid frames are marked dirty: dirty frames are
  // never evicted and nothing flushes in this mode, so the log's images
  // stay pinned in memory without ever touching the disk.
  NtImages images;
  const Status preload = PreloadNameTable(&images);
  if (preload.code() == ErrorCode::kDeviceCrashed) {
    return preload;
  }
  if (!preload.ok()) {
    health_.NoteUnrepairable("name-table preload failed: " + preload.message());
  }
  for (const auto& [lba, page] : replay.pages) {
    // A name-table copy (a home, or a spare standing in for one) or a
    // leader.
    const std::optional<NtStore::CopyRef> copy = nt_.CopyAt(lba);
    if (copy && copy->replica) {
      continue;  // a replica-home image; the primary image covers the page
    }
    const bool is_leader = !copy.has_value();
    const std::uint32_t key =
        is_leader ? kLeaderKeyBit | static_cast<std::uint32_t>(lba)
                  : copy->pid;
    cache_.Upsert(key, [&](cache::Frame& frame, bool) {
      frame.data = page.data;
      frame.dirty = true;  // pins the frame; nothing writes it back
      frame.dirty_since_log = false;
      frame.logged_image.clear();
      frame.logged_lsn = 0;
      frame.is_leader = is_leader;
    });
    recovery_.c.pages_replayed->Increment();
  }
  ArmMounted();
  return OkStatus();
}

Status Fsd::PreloadNameTable(NtImages* winners) {
  CEDAR_RETURN_IF_ERROR(recovery_.Timed(recovery_.c.sweep_us, [&] {
    return nt_.Sweep(tree_->root(), winners);
  }));
  recovery_.c.sweep_sectors->Add(winners->sectors_read);
  for (std::uint32_t pid = 0; pid < winners->present.size(); ++pid) {
    if (winners->present[pid]) {
      const auto at = winners->sectors.begin() + std::size_t{pid} * 512;
      cache_.Insert(pid, std::vector<std::uint8_t>(at, at + 512));
    }
  }
  return OkStatus();
}

Status Fsd::WriteDirtyHome() {
  std::vector<NtStore::HomeWrite> dirty;
  cache_.ForEach([&](std::uint32_t key, cache::Frame& frame) {
    if (frame.dirty) {
      dirty.push_back(HomeFor(key, frame.data));
    }
  });
  CEDAR_RETURN_IF_ERROR(nt_.WriteHomes(dirty));
  cache_.ForEach([](std::uint32_t, cache::Frame& frame) {
    frame.dirty = false;
    frame.dirty_since_log = false;
    frame.logged_lsn = 0;
    frame.logged_image.clear();
  });
  return OkStatus();
}

NtStore::HomeWrite Fsd::HomeFor(std::uint32_t key,
                                std::span<const std::uint8_t> image) const {
  if (key & kLeaderKeyBit) {
    return NtStore::HomeWrite{.primary = key & ~kLeaderKeyBit, .image = image};
  }
  const NtStore::Homes homes = nt_.HomesOf(key);
  return NtStore::HomeWrite{
      .primary = homes.primary, .replica = homes.replica, .image = image};
}

Status Fsd::ForceLogImpl(GateMode mode, std::uint64_t* covered_seq) {
  obs::ScopedOp op_scope(disk_->tracer(), "fsd.log_force");
  if (mode == GateMode::kCloseAndReopen) {
    gate_.CloseForCommit();
  }
  // ---- CAPTURE phase: the gate is closed and drained, so no mutator is
  // running — cache flags, the pending queues, and the delete shadow are a
  // consistent prefix of the update history. Everything the force will log
  // is copied or swapped out here; anything dirtied after the gate reopens
  // belongs to the NEXT force.
  last_force_.store(disk_->clock().now(), std::memory_order_relaxed);
  if (covered_seq != nullptr) {
    *covered_seq = queue_.latest_update();
  }

  // Gather everything dirtied since the last capture, in deterministic
  // key order.
  std::vector<std::uint32_t> keys;
  cache_.ForEach([&](std::uint32_t key, cache::Frame& frame) {
    if (frame.dirty_since_log) {
      keys.push_back(key);
    }
  });
  std::sort(keys.begin(), keys.end());

  std::vector<std::uint32_t> tombstones;
  std::vector<VamDelta> alloc_deltas;
  std::vector<VamDelta> free_deltas;
  Vam::Shadow shadow;
  {
    util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
    tombstones.swap(pending_tombstones_);
    alloc_deltas.swap(pending_alloc_deltas_);
    free_deltas.swap(pending_free_deltas_);
    shadow = vam_.TakeShadow();
  }
  gate_.ResetPendingCapture();

  if (keys.empty() && tombstones.empty() && alloc_deltas.empty() &&
      free_deltas.empty()) {
    c_.empty_forces->Increment();
    {
      util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
      vam_.FoldShadow(shadow);
    }
    if (mode == GateMode::kCloseAndReopen) {
      gate_.Reopen();
    }
    return OkStatus();
  }

  // Assemble the record stream from COPIES of the captured images, clearing
  // the capture flag now so re-dirtying during the append counts toward the
  // next force. Ordering is load-bearing for VAM logging: alloc deltas
  // precede the tree pages that reference the allocated sectors, free
  // deltas follow the pages that drop the references — so a force torn
  // between records can leak sectors but never double-use them.
  std::vector<PageImage> images;
  auto add_delta_pages = [&](std::span<const VamDelta> deltas) {
    for (auto& page_bytes : SerializeDeltas(deltas)) {
      PageImage page;
      page.kind = PageKind::kVamDelta;
      page.data = std::move(page_bytes);
      images.push_back(std::move(page));
    }
  };
  add_delta_pages(alloc_deltas);
  const std::size_t frames_begin = images.size();
  capture_keys_.clear();
  for (std::uint32_t key : keys) {
    PageImage page;
    if (key & kLeaderKeyBit) {
      page.primary = key & ~kLeaderKeyBit;
    } else {
      // Capture post-remap addresses so recovery replay is self-contained:
      // replaying a record never writes to a sector already known bad.
      const NtStore::Homes homes = nt_.HomesOf(key);
      page.primary = homes.primary;
      page.secondary = homes.replica;
    }
    const bool present = cache_.Apply(key, [&](cache::Frame& frame) {
      page.data = frame.data;
      frame.dirty_since_log = false;
    });
    CEDAR_CHECK(present);  // the gate is closed: nothing erases frames now
    capture_keys_.insert(key);
    images.push_back(std::move(page));
  }
  const std::size_t frames_end = images.size();
  for (std::uint32_t key : tombstones) {
    PageImage page;
    page.primary = key & ~kLeaderKeyBit;
    page.kind = PageKind::kTombstone;
    page.data.assign(512, 0);
    images.push_back(std::move(page));
  }
  add_delta_pages(free_deltas);

  if (mode == GateMode::kCloseAndReopen) {
    gate_.Reopen();
  }
  // ---- APPEND phase: mutators proceed in parallel with the log write
  // (force_mu_ keeps this the only appender). Frame flag updates go through
  // the cache's closure API. A leader deleted mid-append simply drops out
  // (its tombstone is queued for the next force); a name-table page freed
  // mid-append comes back as a frame holding the captured image, so a
  // checkpoint still writes that image home before its record is dropped.

  auto enter_third = [this](std::uint64_t target) {
    return CheckpointTo(target, Checkpointer::kThirdEntry);
  };

  // The whole force goes out as commit groups: recovery replays a group
  // only if its final record survived, so a crash mid-force can never
  // replay a prefix of a multi-page tree update. Forces larger than one
  // group (rare — the default group holds commit.group_records records)
  // split into maximal groups; the delta ordering above bounds the damage
  // of a between-groups crash to leaked sectors.
  const std::size_t group_pages = std::min<std::size_t>(
      static_cast<std::size_t>(
          std::max<std::uint32_t>(1, config_.commit.group_records)) *
          FsdLog::kMaxPagesPerRecord,
      log_.MaxGroupPages());
  Status status = OkStatus();
  std::size_t logged_upto = 0;
  while (logged_upto < images.size()) {
    const std::size_t n = std::min(group_pages, images.size() - logged_upto);
    Result<std::uint64_t> lsn = log_.AppendGroup(
        std::span<const PageImage>(images.data() + logged_upto, n),
        enter_third);
    status = lsn.status();
    if (!status.ok()) {
      break;
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t index = logged_upto + j;
      if (index < frames_begin || index >= frames_end) {
        continue;
      }
      const std::uint32_t key = keys[index - frames_begin];
      auto tag = [&](cache::Frame& frame) {
        frame.logged_lsn = *lsn;
        frame.logged_image = images[index].data;
        frame.dirty = true;
      };
      if (!cache_.Apply(key, tag) && !(key & kLeaderKeyBit)) {
        cache_.Upsert(key, [&](cache::Frame& frame, bool inserted) {
          if (inserted) {
            frame.data = images[index].data;
          }
          tag(frame);
        });
      }
    }
    c_.pages_captured->Add(n);
    logged_upto += n;
  }
  capture_keys_.clear();
  if (!status.ok()) {
    // Restore the capture state for everything not durably appended so the
    // next force retries it: re-mark the unlogged frames, requeue ALL the
    // pendings (tombstones and deltas are idempotent at replay), and put
    // the shadowed sectors back.
    for (std::size_t index = std::max(logged_upto, frames_begin);
         index < frames_end; ++index) {
      bool became_pending = false;
      cache_.Apply(keys[index - frames_begin], [&](cache::Frame& frame) {
        frame.dirty = true;
        if (!frame.dirty_since_log) {
          frame.dirty_since_log = true;
          became_pending = true;
        }
      });
      if (became_pending) {
        gate_.NotePendingCapture(1);
      }
    }
    {
      util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
      pending_tombstones_.insert(pending_tombstones_.begin(),
                                 tombstones.begin(), tombstones.end());
      pending_alloc_deltas_.insert(pending_alloc_deltas_.begin(),
                                   alloc_deltas.begin(), alloc_deltas.end());
      pending_free_deltas_.insert(pending_free_deltas_.begin(),
                                  free_deltas.begin(), free_deltas.end());
      vam_.MergeShadow(shadow);
    }
    gate_.NotePendingCapture(
        tombstones.size() +
        (alloc_deltas.size() + kVamDeltasPerPage - 1) / kVamDeltasPerPage +
        (free_deltas.size() + kVamDeltasPerPage - 1) / kVamDeltasPerPage);
    return status;
  }
  {
    util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
    vam_.FoldShadow(shadow);
  }
  c_.forces->Increment();
  // Request a checkpoint round when this append pushed the live span past
  // the recovery window (force_mu_ is held; the runner's mutex is a leaf).
  // The round takes force_mu_ itself: on its thread, or stepped at the
  // caller's next lock-free point.
  if (log_.LiveSectors() > CheckpointWindowSectors()) {
    ckpt_rounds_.Request();
  }
  return OkStatus();
}

Status Fsd::MaybeDeadlineForce(std::uint64_t* ticket) {
  if (!mounted_ || health_.degraded()) {
    return OkStatus();
  }
  const sim::Micros now = disk_->clock().now();
  sim::Micros last = last_force_.load(std::memory_order_relaxed);
  if (now - last < config_.commit.interval) {
    return OkStatus();
  }
  *ticket = queue_.Request(queue_.latest_update(), /*fresh=*/false);
  if (*ticket == 0) {
    // Nothing new since the last successful round: the empty force,
    // without a round. Shadow sectors can't be pending either: a delete
    // always bumps the update sequence, so anything shadowed is already
    // covered by a completed round. Restart the timer; the CAS makes
    // concurrent ops hitting the same expired deadline count it once.
    if (last_force_.compare_exchange_strong(last, now,
                                            std::memory_order_relaxed)) {
      c_.empty_forces->Increment();
    }
    return OkStatus();
  }
  // A round already published (a stepped one runs inside Request) is
  // reported now, so a failed round keeps the op out. One still to come is
  // awaited after the wrapper drops its locks, so it can close the gate and
  // concurrent ops hitting the same deadline piggyback on it.
  if (queue_.Published(*ticket)) {
    return queue_.Await(std::exchange(*ticket, 0));
  }
  return OkStatus();
}

Status Fsd::SpaceForce() {
  c_.space_forces->Increment();
  if (gate_.pending_capture_pages() == 0) {
    return OkStatus();  // a raced round already made room
  }
  // Fresh: a page can be pending before its op records an update, so the
  // round must capture even when the sequence is already durable.
  return queue_.Await(queue_.Request(queue_.latest_update(), /*fresh=*/true));
}

Status Fsd::BeginOp(std::uint64_t* ticket) {
  CEDAR_RETURN_IF_ERROR(MaybeDeadlineForce(ticket));
  while (!gate_.TryBegin()) {
    CEDAR_RETURN_IF_ERROR(SpaceForce());
  }
  return OkStatus();
}

Status Fsd::Tick() {
  std::uint64_t ticket = 0;
  Status status = MaybeDeadlineForce(&ticket);
  if (status.ok()) {
    status = queue_.Await(ticket);
  }
  ckpt_rounds_.Step();
  return status;
}

Status Fsd::Force() {
  obs::ScopedLatency op_latency(h_.force, &disk_->clock());
  CEDAR_RETURN_IF_ERROR(CheckWritable());
  // Group commit (paper section 3.2): wait for a commit round covering
  // every update recorded so far. If a round already in flight covers the
  // sequence, this wait rides on it — one log write commits them all.
  const Status status =
      queue_.Await(queue_.Request(queue_.latest_update(), /*fresh=*/false));
  ckpt_rounds_.Step();
  return status;
}

void Fsd::StartRounds() {
  commit_rounds_.Start();
  if (config_.checkpoint.daemon) {
    ckpt_rounds_.Start();
  }
}

void Fsd::StopRounds() {
  ckpt_rounds_.Stop();
  queue_.Stop();
}

void Fsd::CommitRound() {
  const std::uint64_t seq = queue_.latest_update();
  queue_.BeginForce(seq);
  std::uint64_t covered = seq;
  Status status;
  {
    // The capture phase closes the op gate and drains in-flight ops, so
    // every update recorded before the capture — in particular everything
    // numbered <= seq — is in the captured dirty set. covered re-reads the
    // sequence at the drained point, so the publish credits piggybacked
    // updates that slipped in before the gate closed.
    util::RankedLockGuard lock(force_mu_, util::LockRank::kForce);
    status = CheckWritable();
    if (status.ok()) {
      status = ForceLogImpl(GateMode::kCloseAndReopen, &covered);
    }
  }
  queue_.Publish(std::max(seq, covered), status);
}

std::uint32_t Fsd::CheckpointWindowSectors() const {
  const std::uint32_t window = config_.checkpoint.window_sectors;
  if (window == 0) {
    return log_.third_sectors();  // what third entry alone would allow
  }
  return std::min(window, log_.record_area_sectors());
}

void Fsd::CkptRound() {
  util::RankedLockGuard lock(force_mu_, util::LockRank::kForce);
  if (!mounted_ || health_.degraded()) {
    return;
  }
  const std::uint32_t window = CheckpointWindowSectors();
  // Drain to half the window, not to the edge, so hot pages keep absorbing
  // re-dirties between rounds instead of going home after every force.
  for (;;) {
    const std::uint32_t live = log_.LiveSectors();
    if (live <= window) {
      break;
    }
    const std::uint64_t target = log_.CheckpointTarget(window / 2);
    if (target == 0 || !CheckpointTo(target, Checkpointer::kCheckpoint).ok()) {
      break;
    }
    if (log_.LiveSectors() >= live) {
      break;  // no progress (one giant straddling group); retry next request
    }
  }
}

Status Fsd::CheckpointTo(std::uint64_t target, Checkpointer caller) {
  const bool third_entry = caller == Checkpointer::kThirdEntry;
  // A tag is the LSN of the commit group holding the frame's latest logged
  // image, so `tag < target` selects exactly the images in the dropped
  // records. Tags change only under force_mu_ (held here) or through an
  // erase + refill, which the retire loop guards against.
  struct Victim {
    std::uint32_t key = 0;
    std::uint64_t lsn = 0;
    std::vector<std::uint8_t> image;
  };
  std::vector<Victim> victims;
  cache_.ForEach([&](std::uint32_t key, cache::Frame& frame) {
    if (frame.logged_lsn == 0 || frame.logged_lsn >= target) {
      return;
    }
    if (frame.is_leader && !frame.dirty) {
      // Piggybacked to disk already; nothing to do.
      frame.logged_image.clear();
      frame.logged_lsn = 0;
      return;
    }
    victims.push_back(Victim{
        .key = key, .lsn = frame.logged_lsn, .image = frame.logged_image});
  });
  std::vector<NtStore::HomeWrite> homes;
  for (const Victim& victim : victims) {
    homes.push_back(HomeFor(victim.key, victim.image));
  }

  // Disk time lands in the tracer's "fsd.flush_third" or "fsd.ckpt" op
  // class, with its full seek/rotation/transfer breakdown.
  obs::ScopedOp scope(disk_->tracer(),
                      third_entry ? "fsd.flush_third" : "fsd.ckpt");
  if (third_entry && !victims.empty()) {
    // Pages the checkpoint round (if any) did not write home before the
    // log wrapped back into their third.
    c_.third_flush_fallbacks->Increment();
  }
  // Third entry writes everything in one sweep per copy; Checkpoint() and
  // the checkpoint round go out in small chunks so they never monopolize
  // the disk.
  const std::size_t chunk = third_entry
                                ? std::max<std::size_t>(1, victims.size())
                                : std::size_t{kCheckpointBatchPages};
  for (std::size_t begin = 0; begin < victims.size(); begin += chunk) {
    const std::size_t n = std::min(chunk, victims.size() - begin);
    CEDAR_RETURN_IF_ERROR(nt_.WriteHomes(
        std::span<const NtStore::HomeWrite>(homes).subspan(begin, n)));
    for (std::size_t j = begin; j < begin + n; ++j) {
      const Victim& victim = victims[j];
      c_.ckpt_pages->Increment();
      const bool capturing = capture_keys_.contains(victim.key);
      cache_.Apply(victim.key, [&](cache::Frame& frame) {
        if (frame.logged_lsn != victim.lsn) {
          return;  // raced an erase + refill; nothing to retire
        }
        frame.logged_lsn = 0;
        frame.dirty = frame.dirty_since_log || capturing;
        if (!frame.dirty) {
          frame.logged_image.clear();
        }
      });
    }
  }
  // VAM base before the pointer moves: the in-memory bitmaps already hold
  // every delta in the records about to be dropped (deltas apply at op
  // time), and the next_lsn stamp makes surviving-record deltas re-apply
  // idempotently at recovery.
  if (config_.durability.vam_logging) {
    util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
    CEDAR_RETURN_IF_ERROR(vam_.Save(disk_, layout_.vam_base,
                                    layout_.vam_sectors, boot_count_,
                                    log_.next_lsn()));
  }
  if (third_entry) {
    return OkStatus();  // the log writes the pointer past the third
  }
  // Only after every home write above is on disk does the oldest-record
  // pointer advance (a separate, later disk write) — a crash at any point
  // replays from a pointer that still covers whatever was not yet home.
  CEDAR_ASSIGN_OR_RETURN(const std::uint32_t dropped,
                         log_.AdvanceCheckpoint(target));
  c_.ckpt_batches->Increment();
  if (dropped > 0) {
    c_.ckpt_advances->Increment();
  }
  return OkStatus();
}

Status Fsd::Checkpoint() {
  util::RankedLockGuard lock(force_mu_, util::LockRank::kForce);
  CEDAR_RETURN_IF_ERROR(CheckWritable());
  // Maximal advance: everything except the newest record (the on-disk
  // pointer must keep naming a current-boot record).
  const std::uint64_t target = log_.CheckpointTarget(0);
  if (target == 0) {
    return OkStatus();
  }
  return CheckpointTo(target, Checkpointer::kCheckpoint);
}

Result<std::uint64_t> Fsd::RecoveryWindow() {
  util::RankedLockGuard lock(force_mu_, util::LockRank::kForce);
  if (!mounted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not mounted");
  }
  return static_cast<std::uint64_t>(log_.LiveSectors()) * 512;
}

fs::MaintenanceStats Fsd::Maintenance() {
  fs::MaintenanceStats m;
  {
    util::RankedLockGuard lock(force_mu_, util::LockRank::kForce);
    m.log_live_bytes = static_cast<std::uint64_t>(log_.LiveSectors()) * 512;
    m.recovery_window_bytes =
        static_cast<std::uint64_t>(CheckpointWindowSectors()) * 512;
  }
  m.log_capacity_bytes =
      static_cast<std::uint64_t>(log_.record_area_sectors()) * 512;
  m.checkpoint_batches = c_.ckpt_batches->value();
  m.checkpoint_pages = c_.ckpt_pages->value();
  m.checkpoint_advances = c_.ckpt_advances->value();
  m.third_flush_fallbacks = c_.third_flush_fallbacks->value();
  return m;
}

Status Fsd::Shutdown() {
  StopRounds();
  ScopedQuiesce quiesce(this);
  return ShutdownLocked();
}

Status Fsd::ShutdownLocked() {
  obs::ScopedOp op_scope(disk_->tracer(), "fsd.shutdown");
  if (!mounted_) {
    return OkStatus();
  }
  if (health_.degraded()) {
    // Degraded mounts are read-only: nothing to flush and the medium must
    // not be written. Tear down the volatile state only; degraded stays
    // set until the next Format/Mount resets it.
    open_files_.clear();
    mounted_ = false;
    return OkStatus();
  }
  CEDAR_RETURN_IF_ERROR(ForceLogImpl(GateMode::kAlreadyClosed));
  // Write every dirty page home (the force above made cache contents equal
  // to the last logged images): all primaries in one elevator sweep, then
  // all replicas.
  CEDAR_RETURN_IF_ERROR(WriteDirtyHome());
  CEDAR_RETURN_IF_ERROR(vam_.Save(disk_, layout_.vam_base,
                                  layout_.vam_sectors, boot_count_,
                                  log_.next_lsn()));
  CEDAR_RETURN_IF_ERROR(recovery_.WriteRoot(/*clean=*/true, boot_count_));
  open_files_.clear();
  mounted_ = false;
  return OkStatus();
}

Result<std::pair<std::uint32_t, FsdEntry>> Fsd::HighestVersion(
    std::string_view name) {
  CEDAR_ASSIGN_OR_RETURN(auto best, FindHighestVersion(name));
  if (!best) {
    return MakeError(ErrorCode::kNotFound,
                     "no such file: " + std::string(name));
  }
  return std::move(*best);
}

Result<std::optional<std::pair<std::uint32_t, FsdEntry>>>
Fsd::FindHighestVersion(std::string_view name) {
  CEDAR_ASSIGN_OR_RETURN(auto versions, ListVersions(name));
  std::optional<std::pair<std::uint32_t, FsdEntry>> best;
  if (!versions.empty()) {
    best = std::move(versions.back());
  }
  return best;
}

Result<FsdEntry> Fsd::GetEntry(std::string_view name, std::uint32_t version) {
  CEDAR_ASSIGN_OR_RETURN(btree::Value value,
                         tree_->Lookup(fs::EncodeNameKey(name, version)));
  FsdEntry entry;
  CEDAR_RETURN_IF_ERROR(ParseEntry(value, &entry));
  return entry;
}

Status Fsd::PutEntry(std::string_view name, std::uint32_t version,
                     const FsdEntry& entry) {
  return tree_->Insert(fs::EncodeNameKey(name, version),
                       SerializeEntry(entry));
}

namespace {

// Leaves the op gate on every exit path from an op body. Declared after the
// shard guards in RunOp, so End() runs BEFORE the shard locks drop.
struct GateRelease {
  OpGate* gate;
  ~GateRelease() { gate->End(); }
};

}  // namespace

template <typename Fn>
auto Fsd::RunOp(const char* trace_name, obs::Histogram* latency,
                std::initializer_list<std::string_view> names,
                Fn&& body) -> decltype(body()) {
  obs::ScopedOp op_scope(disk_->tracer(), trace_name);
  obs::ScopedLatency op_latency(latency, &disk_->clock());
  // Shard indices in lock order: ascending, a shared shard taken once
  // (equal rank is allowed only for this ordered pair).
  std::array<std::size_t, 2> shards{};
  std::size_t nshards = 0;
  for (std::string_view name : names) {
    shards[nshards++] = ShardOf(name);
  }
  if (nshards == 2) {
    if (shards[0] > shards[1]) {
      std::swap(shards[0], shards[1]);
    }
    if (shards[0] == shards[1]) {
      nshards = 1;
    }
  }
  std::uint64_t ticket = 0;
  auto result = [&]() -> decltype(body()) {
    std::array<std::optional<util::RankedLockGuard<std::mutex>>, 2> locks;
    for (std::size_t i = 0; i < nshards; ++i) {
      locks[i].emplace(name_mu_[shards[i]], util::LockRank::kNameShard);
    }
    CEDAR_RETURN_IF_ERROR(BeginOp(&ticket));
    GateRelease gate{&gate_};
    return body();
  }();
  const Status durable = queue_.Await(ticket);
  ckpt_rounds_.Step();
  if (result.ok() && !durable.ok()) {
    return durable;
  }
  return result;
}

Result<fs::FileUid> Fsd::CreateFile(std::string_view name,
                                    std::span<const std::uint8_t> contents) {
  return RunOp("fsd.create", h_.create, {name},
               [&] { return CreateFileLocked(name, contents); });
}

Result<fs::FileUid> Fsd::CreateFileLocked(
    std::string_view name, std::span<const std::uint8_t> contents) {
  ChargeOp();
  CEDAR_RETURN_IF_ERROR(CheckWritable());
  std::uint32_t version = 1;
  std::uint16_t keep = 0;
  // A failed scan (a name-table page neither copy holds) is not "no such
  // name": version 1 could overwrite an existing one.
  CEDAR_ASSIGN_OR_RETURN(auto highest, FindHighestVersion(name));
  if (highest) {
    version = highest->first + 1;
    keep = highest->second.keep;  // new versions inherit the keep count
  }
  const auto npages =
      static_cast<std::uint32_t>((contents.size() + 511) / 512);

  std::size_t delta_pages = 0;
  Result<std::vector<fs::Extent>> allocated = [&] {
    util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
    Result<std::vector<fs::Extent>> runs = allocator_->Allocate(1 + npages);
    if (runs.ok()) {
      for (const fs::Extent& run : *runs) {
        delta_pages += QueueDelta(VamDelta::Op::kAlloc, run.start, run.count);
      }
    }
    return runs;
  }();
  CEDAR_ASSIGN_OR_RETURN(std::vector<fs::Extent> extents,
                         std::move(allocated));
  gate_.NotePendingCapture(delta_pages);
  FsdEntry entry;
  entry.uid = NextUid();
  entry.keep = keep;
  entry.byte_size = contents.size();
  entry.create_time = disk_->clock().now();
  entry.last_used = entry.create_time;
  entry.leader_lba = extents[0].start;
  if (extents[0].count > 1) {
    entry.runs.push_back(fs::Extent{.start = extents[0].start + 1,
                                    .count = extents[0].count - 1});
  }
  for (std::size_t i = 1; i < extents.size(); ++i) {
    entry.runs.push_back(extents[i]);
  }

  const std::vector<std::uint8_t> leader =
      SerializeLeader(MakeLeader(entry, version));

  if (!contents.empty()) {
    // The typical create: ONE synchronous I/O combining the leader and the
    // data pages of the first extent.
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(extents[0].count) * 512, 0);
    std::copy(leader.begin(), leader.end(), buf.begin());
    const std::size_t first_data =
        std::min(contents.size(),
                 static_cast<std::size_t>(extents[0].count - 1) * 512);
    std::copy(contents.begin(), contents.begin() + first_data,
              buf.begin() + 512);
    CEDAR_RETURN_IF_ERROR(disk_->Write(extents[0].start, buf));
    ChargeDataSectors(extents[0].count);
    std::size_t off = first_data;
    for (std::size_t i = 1; i < extents.size(); ++i) {
      std::vector<std::uint8_t> run_buf(
          static_cast<std::size_t>(extents[i].count) * 512, 0);
      const std::size_t n = std::min(run_buf.size(), contents.size() - off);
      std::copy(contents.begin() + off, contents.begin() + off + n,
                run_buf.begin());
      off += n;
      CEDAR_RETURN_IF_ERROR(disk_->Write(extents[i].start, run_buf));
      ChargeDataSectors(extents[i].count);
    }
  } else {
    // Zero-length create: the leader stays buffered, is logged at the next
    // force, and is written home by piggybacking on the first write to the
    // file (or by the logging code at third entry).
    UpsertLeader(kLeaderKeyBit | entry.leader_lba, leader);
  }

  CEDAR_RETURN_IF_ERROR(PutEntry(name, version, entry));
  if (keep > 0) {
    CEDAR_RETURN_IF_ERROR(PruneVersions(name, keep));
  }
  BumpUpdateSeq();
  return entry.uid;
}

Result<fs::FileHandle> Fsd::Open(std::string_view name) {
  return RunOp("fsd.open", h_.open, {name}, [&] { return OpenLocked(name); });
}

Result<fs::FileHandle> Fsd::OpenLocked(std::string_view name) {
  ChargeOp();
  if (!mounted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not mounted");
  }
  CEDAR_ASSIGN_OR_RETURN(auto found, HighestVersion(name));
  auto [version, entry] = found;
  {
    util::RankedLockGuard lock(open_mu_, util::LockRank::kOpenFiles);
    auto it = open_files_.find(entry.uid);
    if (it == open_files_.end()) {
      open_files_.emplace(entry.uid,
                          OpenState{.name = std::string(name),
                                    .version = version,
                                    .leader_verified = false});
    }
  }
  return fs::FileHandle{.uid = entry.uid,
                        .version = version,
                        .byte_size = entry.byte_size};
}

Status Fsd::Close(const fs::FileHandle& file) {
  ChargeOp();
  // Dropping the open state forgets the "leader verified" bit; a later
  // reopen re-verifies by piggybacking on the first read. Unknown handles
  // are fine: a remount already closed everything implicitly.
  util::RankedLockGuard lock(open_mu_, util::LockRank::kOpenFiles);
  open_files_.erase(file.uid);
  return OkStatus();
}

Result<Fsd::OpenState> Fsd::LookupOpenState(fs::FileUid uid) const {
  util::RankedLockGuard lock(open_mu_, util::LockRank::kOpenFiles);
  auto it = open_files_.find(uid);
  if (it == open_files_.end()) {
    return MakeError(ErrorCode::kFailedPrecondition, "file not open");
  }
  return it->second;
}

void Fsd::MarkLeaderVerified(fs::FileUid uid) {
  util::RankedLockGuard lock(open_mu_, util::LockRank::kOpenFiles);
  auto it = open_files_.find(uid);
  if (it != open_files_.end()) {
    it->second.leader_verified = true;
  }
}

Status Fsd::Read(const fs::FileHandle& file, std::uint64_t offset,
                 std::span<std::uint8_t> out) {
  // Handle ops snapshot the open state FIRST: they lock the shard of the
  // name it resolves to, so the copy must precede the lock. A concurrent
  // delete/close just makes the entry lookup miss.
  CEDAR_ASSIGN_OR_RETURN(const OpenState state, LookupOpenState(file.uid));
  return RunOp("fsd.read", h_.read, {state.name},
               [&] { return ReadLocked(file, state, offset, out); });
}

Status Fsd::ReadLocked(const fs::FileHandle& file, const OpenState& state,
                       std::uint64_t offset, std::span<std::uint8_t> out) {
  ChargeOp();
  CEDAR_ASSIGN_OR_RETURN(FsdEntry entry,
                         GetEntry(state.name, state.version));
  if (out.empty()) {
    return OkStatus();
  }
  if (offset + out.size() > entry.byte_size) {
    return MakeError(ErrorCode::kOutOfRange, "read beyond end of file");
  }
  const auto first_page = static_cast<std::uint32_t>(offset / 512);
  const auto last_page =
      static_cast<std::uint32_t>((offset + out.size() - 1) / 512);
  const std::uint32_t count = last_page - first_page + 1;
  CEDAR_ASSIGN_OR_RETURN(std::vector<fs::Extent> extents,
                         fs::MapPages(entry.runs, first_page, count));

  std::vector<std::uint8_t> buf(static_cast<std::size_t>(count) * 512);
  // File data has no redundancy by design (the paper logs only metadata),
  // so a damaged data sector is an attributed loss — named LBA, hard error,
  // never silently wrong bytes.
  std::size_t pos = 0;
  auto read_data = [&](const fs::Extent& run) {
    std::vector<std::uint32_t> bad;
    CEDAR_RETURN_IF_ERROR(health_.ReadWithRetry(
        run.start,
        std::span<std::uint8_t>(buf).subspan(pos, std::size_t{run.count} * 512),
        &bad));
    if (!bad.empty()) {
      return MakeError(ErrorCode::kSectorDamaged,
                       "file data sector damaged, lba " +
                           std::to_string(run.start + bad.front()));
    }
    return OkStatus();
  };
  for (std::size_t r = 0; r < extents.size(); ++r) {
    const fs::Extent& run = extents[r];
    const bool piggyback_verify =
        r == 0 && first_page == 0 && !state.leader_verified &&
        !entry.runs.empty() && entry.runs[0].start == entry.leader_lba + 1;
    if (piggyback_verify) {
      // Leader pending in the cache? Verify the buffered copy instead. The
      // copy-out races benignly with a concurrent flush retiring the frame:
      // either image verifies (same-name ops are shard-serialized, so the
      // leader content is stable here).
      std::vector<std::uint8_t> cached_leader;
      cache_.Apply(kLeaderKeyBit | entry.leader_lba,
                   [&](cache::Frame& frame) {
                     if (frame.dirty) {
                       cached_leader = frame.data;
                     }
                   });
      if (!cached_leader.empty()) {
        CEDAR_RETURN_IF_ERROR(
            VerifyLeader(cached_leader, entry, state.version));
        CEDAR_RETURN_IF_ERROR(read_data(run));
      } else {
        // One request covering leader + data (section 5.7: "it usually
        // costs only the transfer time for a page to read the leader").
        std::vector<std::uint8_t> tmp(
            static_cast<std::size_t>(1 + run.count) * 512);
        std::vector<std::uint32_t> bad;
        CEDAR_RETURN_IF_ERROR(
            health_.ReadWithRetry(entry.leader_lba, tmp, &bad));
        const bool leader_readable =
            std::find(bad.begin(), bad.end(), 0u) == bad.end();
        const bool leader_ok =
            leader_readable &&
            VerifyLeader(std::span<const std::uint8_t>(tmp).subspan(0, 512),
                         entry, state.version)
                .ok();
        if (!leader_ok) {
          // The name-table entry is authoritative — the leader is a
          // derived, reconstructible structure. A readable sector whose
          // content disagrees is caught silent corruption; either way the
          // leader is rebuilt in place and the read is SERVED, not failed.
          if (leader_readable) {
            health_.c.corruption_detected->Increment();
          }
          const Status repaired = RepairLeader(entry, state.version);
          if (repaired.code() == ErrorCode::kDeviceCrashed) {
            return repaired;
          }
        }
        bool data_clean = true;
        for (std::uint32_t b : bad) {
          if (b != 0) {
            data_clean = false;
            break;
          }
        }
        if (data_clean) {
          std::copy(tmp.begin() + 512, tmp.end(), buf.begin() + pos);
        } else {
          CEDAR_RETURN_IF_ERROR(read_data(run));
        }
        c_.piggyback_leader_verifies->Increment();
      }
      MarkLeaderVerified(file.uid);
      ChargeDataSectors(1 + run.count);
    } else {
      CEDAR_RETURN_IF_ERROR(read_data(run));
      ChargeDataSectors(run.count);
    }
    pos += static_cast<std::size_t>(run.count) * 512;
  }
  const std::size_t skip = offset % 512;
  std::copy(buf.begin() + skip, buf.begin() + skip + out.size(), out.begin());
  return OkStatus();
}

Status Fsd::Write(const fs::FileHandle& file, std::uint64_t offset,
                  std::span<const std::uint8_t> data) {
  CEDAR_ASSIGN_OR_RETURN(const OpenState state, LookupOpenState(file.uid));
  return RunOp("fsd.write", h_.write, {state.name},
               [&] { return WriteLocked(state, offset, data); });
}

Status Fsd::WriteLocked(const OpenState& state, std::uint64_t offset,
                        std::span<const std::uint8_t> data) {
  ChargeOp();
  CEDAR_RETURN_IF_ERROR(CheckWritable());
  CEDAR_ASSIGN_OR_RETURN(FsdEntry entry,
                         GetEntry(state.name, state.version));
  if (data.empty()) {
    return OkStatus();
  }
  if (offset + data.size() > entry.byte_size) {
    return MakeError(ErrorCode::kOutOfRange, "write beyond end of file");
  }
  const auto first_page = static_cast<std::uint32_t>(offset / 512);
  const auto last_page =
      static_cast<std::uint32_t>((offset + data.size() - 1) / 512);
  const std::uint32_t count = last_page - first_page + 1;
  CEDAR_ASSIGN_OR_RETURN(std::vector<fs::Extent> extents,
                         fs::MapPages(entry.runs, first_page, count));

  // Read-modify-write for unaligned edges.
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(count) * 512);
  const bool aligned = (offset % 512 == 0) && (data.size() % 512 == 0);
  if (!aligned) {
    std::size_t pos = 0;
    for (const fs::Extent& run : extents) {
      CEDAR_RETURN_IF_ERROR(health_.ReadWithRetry(
          run.start,
          std::span<std::uint8_t>(buf.data() + pos,
                                  static_cast<std::size_t>(run.count) * 512)));
      ChargeDataSectors(run.count);
      pos += static_cast<std::size_t>(run.count) * 512;
    }
  }
  std::copy(data.begin(), data.end(), buf.begin() + (offset % 512));

  std::size_t pos = 0;
  for (std::size_t r = 0; r < extents.size(); ++r) {
    const fs::Extent& run = extents[r];
    // Copy the pending leader image out under the cache lock; the home
    // write then proceeds without it. A concurrent flush retiring the same
    // frame writes the identical image — the duplicate home write is
    // benign (same-name ops are shard-serialized, so content is stable).
    std::vector<std::uint8_t> leader_image;
    if (r == 0 && first_page == 0 && !entry.runs.empty() &&
        entry.runs[0].start == entry.leader_lba + 1) {
      cache_.Apply(kLeaderKeyBit | entry.leader_lba,
                   [&](cache::Frame& frame) {
                     if (frame.dirty) {
                       leader_image = frame.data;
                     }
                   });
    }
    const bool piggyback_leader = !leader_image.empty();
    if (piggyback_leader) {
      // Write leader + data in one request; the logging code then skips
      // this leader at third entry.
      std::vector<std::uint8_t> tmp(
          static_cast<std::size_t>(1 + run.count) * 512);
      std::copy(leader_image.begin(), leader_image.end(), tmp.begin());
      std::copy(buf.begin() + pos,
                buf.begin() + pos + static_cast<std::size_t>(run.count) * 512,
                tmp.begin() + 512);
      CEDAR_RETURN_IF_ERROR(disk_->Write(entry.leader_lba, tmp));
      cache_.Apply(kLeaderKeyBit | entry.leader_lba,
                   [](cache::Frame& frame) { frame.dirty = false; });
      c_.piggyback_leader_writes->Increment();
      ChargeDataSectors(1 + run.count);
    } else {
      CEDAR_RETURN_IF_ERROR(disk_->Write(
          run.start, std::span<const std::uint8_t>(
                         buf.data() + pos,
                         static_cast<std::size_t>(run.count) * 512)));
      ChargeDataSectors(run.count);
    }
    pos += static_cast<std::size_t>(run.count) * 512;
  }
  return OkStatus();
}

Status Fsd::Extend(const fs::FileHandle& file, std::uint64_t bytes) {
  CEDAR_ASSIGN_OR_RETURN(const OpenState state, LookupOpenState(file.uid));
  return RunOp("fsd.extend", h_.extend, {state.name},
               [&] { return ExtendLocked(state, bytes); });
}

Status Fsd::ExtendLocked(const OpenState& state, std::uint64_t bytes) {
  ChargeOp();
  CEDAR_RETURN_IF_ERROR(CheckWritable());
  CEDAR_ASSIGN_OR_RETURN(FsdEntry entry,
                         GetEntry(state.name, state.version));
  const std::uint64_t new_size = entry.byte_size + bytes;
  const auto cur_pages =
      static_cast<std::uint32_t>((entry.byte_size + 511) / 512);
  const auto new_pages = static_cast<std::uint32_t>((new_size + 511) / 512);

  if (new_pages > cur_pages) {
    // A file with no data pages yet (created empty) moves its leader: the
    // leader and the new pages are allocated together, as a create would
    // place them, so page 0 follows the leader and the first write carries
    // the leader home (section 5.7). Small files pack downward, so the
    // sector after the old leader is usually taken.
    const bool move_leader = entry.runs.empty();
    Result<std::vector<fs::Extent>> allocated = [&] {
      util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
      if (move_leader) {
        return allocator_->Allocate(1 + new_pages);
      }
      const fs::Extent& last = entry.runs.back();
      return allocator_->Allocate(new_pages - cur_pages,
                                  last.start + last.count);
    }();
    CEDAR_ASSIGN_OR_RETURN(std::vector<fs::Extent> extents,
                           std::move(allocated));
    const std::uint32_t old_leader = entry.leader_lba;
    std::vector<fs::Extent> pages = extents;
    if (move_leader) {  // the first extent holds the leader and page 0
      entry.leader_lba = pages[0].start;
      ++pages[0].start;
      --pages[0].count;
    }
    for (const fs::Extent& run : pages) {
      std::vector<std::uint8_t> zeros(
          static_cast<std::size_t>(run.count) * 512, 0);
      CEDAR_RETURN_IF_ERROR(disk_->Write(run.start, zeros));
      ChargeSectors(run.count);
      // Merge with the previous run when physically adjacent.
      if (!entry.runs.empty() &&
          entry.runs.back().start + entry.runs.back().count == run.start) {
        entry.runs.back().count += run.count;
      } else {
        entry.runs.push_back(run);
      }
    }
    std::size_t delta_pages = 0;
    {
      util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
      if (entry.runs.size() > RunAllocator::kMaxRuns) {
        allocator_->Release(extents);
        return MakeError(ErrorCode::kNoFreeSpace,
                         "file too fragmented to extend");
      }
      for (const fs::Extent& run : extents) {
        delta_pages += QueueDelta(VamDelta::Op::kAlloc, run.start, run.count);
      }
      if (move_leader) {  // free the old leader as a delete would
        vam_.MarkFreeShadow(fs::Extent{.start = old_leader, .count = 1});
        delta_pages += QueueDelta(VamDelta::Op::kFree, old_leader, 1);
      }
    }
    gate_.NotePendingCapture(delta_pages);
    if (move_leader) {
      DropLeaderImage(old_leader);
    }
    // The run table changed: refresh the leader through the buffer pool so
    // the cross-check stays consistent (logged, then written home).
    UpsertLeader(kLeaderKeyBit | entry.leader_lba,
                 SerializeLeader(MakeLeader(entry, state.version)));
  }
  entry.byte_size = new_size;
  Status status = PutEntry(state.name, state.version, entry);
  if (status.ok()) {
    BumpUpdateSeq();
  }
  return status;
}

void Fsd::DropLeaderImage(std::uint32_t lba) {
  if (cache_.Erase(kLeaderKeyBit | lba)) {
    gate_.ReleasePendingCapture(1);
  }
  // Cancel any still-in-log leader image for this sector.
  {
    util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
    pending_tombstones_.push_back(kLeaderKeyBit | lba);
  }
  gate_.NotePendingCapture(1);
}

Status Fsd::DeleteVersion(std::string_view name, std::uint32_t version,
                          const FsdEntry& entry) {
  // Pages are not really free until the delete commits (section 5.5): park
  // them in the shadow map, and queue their deltas in the same critical
  // section. The bookkeeping is pure CPU, proportional to the file size.
  std::uint64_t freed = 1;
  std::size_t delta_pages = 0;
  {
    util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
    vam_.MarkFreeShadow(fs::Extent{.start = entry.leader_lba, .count = 1});
    delta_pages += QueueDelta(VamDelta::Op::kFree, entry.leader_lba, 1);
    for (const fs::Extent& run : entry.runs) {
      vam_.MarkFreeShadow(run);
      delta_pages += QueueDelta(VamDelta::Op::kFree, run.start, run.count);
      freed += run.count;
    }
  }
  gate_.NotePendingCapture(delta_pages);
  ChargeSectors(freed);
  CEDAR_RETURN_IF_ERROR(tree_->Erase(fs::EncodeNameKey(name, version)));
  DropLeaderImage(entry.leader_lba);
  {
    util::RankedLockGuard lock(open_mu_, util::LockRank::kOpenFiles);
    open_files_.erase(entry.uid);
  }
  return OkStatus();
}

Status Fsd::DeleteFile(std::string_view name) {
  return RunOp("fsd.delete", h_.del, {name},
               [&] { return DeleteFileLocked(name); });
}

Status Fsd::DeleteFileLocked(std::string_view name) {
  ChargeOp();
  CEDAR_RETURN_IF_ERROR(CheckWritable());
  CEDAR_ASSIGN_OR_RETURN(auto found, HighestVersion(name));
  Status status = DeleteVersion(name, found.first, found.second);
  if (status.ok()) {
    BumpUpdateSeq();
  }
  return status;
}

Result<std::vector<std::pair<std::uint32_t, FsdEntry>>> Fsd::ListVersions(
    std::string_view name) {
  std::vector<std::pair<std::uint32_t, FsdEntry>> versions;
  Status scan = tree_->Scan(
      fs::NameKeyLow(name),
      [&](std::span<const std::uint8_t> key,
          std::span<const std::uint8_t> value) {
        if (!fs::KeyIsName(key, name)) {
          return false;
        }
        std::string decoded;
        std::uint32_t version = 0;
        FsdEntry entry;
        if (fs::DecodeNameKey(key, &decoded, &version) &&
            ParseEntry(value, &entry).ok()) {
          versions.emplace_back(version, std::move(entry));
        }
        return true;
      });
  CEDAR_RETURN_IF_ERROR(scan);
  return versions;
}

Status Fsd::PruneVersions(std::string_view name, std::uint16_t keep) {
  CEDAR_ASSIGN_OR_RETURN(auto versions, ListVersions(name));
  while (versions.size() > keep) {
    CEDAR_RETURN_IF_ERROR(
        DeleteVersion(name, versions.front().first, versions.front().second));
    versions.erase(versions.begin());
  }
  return OkStatus();
}

Status Fsd::SetKeep(std::string_view name, std::uint16_t keep) {
  return RunOp("fsd.setkeep", h_.setkeep, {name},
               [&] { return SetKeepLocked(name, keep); });
}

Status Fsd::SetKeepLocked(std::string_view name, std::uint16_t keep) {
  ChargeOp();
  CEDAR_RETURN_IF_ERROR(CheckWritable());
  CEDAR_ASSIGN_OR_RETURN(auto found, HighestVersion(name));
  auto [version, entry] = found;
  entry.keep = keep;
  CEDAR_RETURN_IF_ERROR(PutEntry(name, version, entry));
  Status status = OkStatus();
  if (keep > 0) {
    status = PruneVersions(name, keep);
  }
  if (status.ok()) {
    BumpUpdateSeq();
  }
  return status;
}

Result<std::vector<fs::FileInfo>> Fsd::List(std::string_view prefix) {
  // List touches every shard's namespace, but the tree scan runs under the
  // tree's own shared lock, so no shard lock is needed — only gate
  // admission (for a consistent deadline/space protocol).
  return RunOp("fsd.list", h_.list, {}, [&] { return ListLocked(prefix); });
}

Result<std::vector<fs::FileInfo>> Fsd::ListLocked(std::string_view prefix) {
  ChargeOp();
  // Properties live in the name table: no per-file I/O (section 5.1).
  std::vector<fs::FileInfo> out;
  Status scan = tree_->Scan(
      std::vector<std::uint8_t>(prefix.begin(), prefix.end()),
      [&](std::span<const std::uint8_t> key,
          std::span<const std::uint8_t> value) {
        if (!fs::KeyHasPrefix(key, prefix)) {
          return false;
        }
        std::string name;
        std::uint32_t version = 0;
        FsdEntry entry;
        if (fs::DecodeNameKey(key, &name, &version) &&
            ParseEntry(value, &entry).ok()) {
          disk_->clock().AdvanceCpu(config_.cpu.per_list_entry);
          out.push_back(InfoOf(std::move(name), version, entry));
        }
        return true;
      });
  CEDAR_RETURN_IF_ERROR(scan);
  return out;
}

Status Fsd::Touch(std::string_view name) {
  return RunOp("fsd.touch", h_.touch, {name},
               [&] { return TouchLocked(name); });
}

Status Fsd::TouchLocked(std::string_view name) {
  ChargeOp();
  CEDAR_RETURN_IF_ERROR(CheckWritable());
  CEDAR_ASSIGN_OR_RETURN(auto found, HighestVersion(name));
  auto [version, entry] = found;
  entry.last_used = disk_->clock().now();
  // A pure hot-spot update: dirties a cached page, no synchronous I/O; the
  // last-used-time of cached remote files is the paper's example of data
  // that tolerates half a second of uncertainty.
  Status status = PutEntry(name, version, entry);
  if (status.ok()) {
    BumpUpdateSeq();
  }
  return status;
}

Result<Fsd::ScrubReport> Fsd::Scrub() {
  obs::ScopedOp op_scope(disk_->tracer(), "fsd.scrub");
  // Scrub reconciles global state (VAM vs. tree), so it runs quiesced:
  // gate closed, no mutators in flight, raw bitmap access safe.
  ScopedQuiesce quiesce(this);
  return ScrubLocked();
}

Result<Fsd::ScrubReport> Fsd::ScrubLocked() {
  CEDAR_RETURN_IF_ERROR(CheckWritable());
  // Settle pending work first so the tree and VAM are a consistent pair.
  CEDAR_RETURN_IF_ERROR(ForceLogImpl(GateMode::kAlreadyClosed));
  ScrubReport report;
  auto healed = [&] {
    ++report.healed;
    c_.scrub_healed->Increment();
  };
  auto unrepairable = [&] {
    ++report.unrepairable;
    c_.scrub_unrepairable->Increment();
  };

  // Pass 0: name-table media patrol (section 4h). Every live tree page has
  // two home copies; read both (through the remap table), validate the CRC
  // trailers, and settle any disagreement from the newest valid copy — the
  // scrub is where latent faults are found BEFORE a second fault makes the
  // page unrecoverable.
  auto patrol = [&](std::span<const btree::PageId> live) -> Status {
    for (btree::PageId pid : live) {
      CEDAR_ASSIGN_OR_RETURN(
          const NtStore::Copies copies,
          nt_.ReadCopies(pid, health_.c.corruption_detected));
      ChargeSectors(2);
      if (!copies.vote.any()) {
        health_.NoteLostNtPage(pid);
        unrepairable();
        continue;
      }
      if (!copies.vote.diverged) {
        continue;
      }
      const Result<NtStore::Repair> fixed =
          nt_.RepairCopy(nt_.LoserOf(copies.vote, pid), copies.winner());
      if (fixed.status().code() == ErrorCode::kDeviceCrashed) {
        return fixed.status();
      }
      if (!fixed.ok()) {
        // Spare pool exhausted: the page still has one good copy, but the
        // redundancy cannot be restored.
        unrepairable();
      } else if (*fixed == NtStore::Repair::kRemapped) {
        ++report.remapped;
      } else {
        healed();
        health_.CountNtRepair();
      }
    }
    return OkStatus();
  };
  // Pass 1: the walk verifies every entry's leader and collects the sectors
  // the name table references; an extent outside the data region cannot
  // be repaired from anything.
  std::vector<std::pair<std::uint32_t, FsdEntry>> stale_leaders;
  NtWalk walk;
  CEDAR_RETURN_IF_ERROR(WalkNameTable(
      *tree_, layout_, patrol,
      [&](const std::string&, std::uint32_t version, const FsdEntry& entry) {
        if (!LeaderMatches(entry, version, /*charge=*/true)) {
          stale_leaders.emplace_back(version, entry);
        }
      },
      &walk));
  report.files_checked = walk.entries;
  for (const NtWalk::Finding& finding : walk.findings) {
    if (finding.problem == NtWalk::Problem::kOutOfBounds) {
      unrepairable();
    }
  }

  // Repair stale leaders from the authoritative name-table entries, one
  // write each so a bad leader sector fails (and is attributed) alone
  // instead of sinking a whole elevator batch.
  for (const auto& [version, entry] : stale_leaders) {
    const Status repaired = RepairLeader(entry, version);
    if (repaired.code() == ErrorCode::kDeviceCrashed) {
      return repaired;
    }
    if (repaired.ok()) {
      ++report.leaders_repaired;
      healed();
    } else {
      unrepairable();
    }
  }

  // Pass 2: reconcile the VAM with the walk — reclaim leaked sectors, and
  // re-mark any referenced one found free (a latent double allocation) —
  // and the page map with the live tree. The pages are collected again
  // after the repairs: with a cache smaller than the table that re-reads
  // evicted pages, and Scrub's disk I/O order depends on when it does.
  std::vector<btree::PageId> pages;
  CEDAR_RETURN_IF_ERROR(tree_->CollectPages(&pages));
  std::size_t delta_pages = 0;
  {
    util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
    CompareAllocation(vam_, layout_, walk.referenced, pages,
                      [&](const VamDelta& fix) {
                        vam_.Apply(fix);
                        delta_pages += QueueDelta(fix.op, fix.start, fix.count);
                        ++(fix.op == VamDelta::Op::kFree
                               ? report.leaked_sectors_reclaimed
                           : fix.op == VamDelta::Op::kAlloc
                               ? report.missing_used_sectors_fixed
                               : report.nt_pages_reconciled);
                      });
  }
  gate_.NotePendingCapture(delta_pages);

  // Make the reconciliation durable.
  CEDAR_RETURN_IF_ERROR(ForceLogImpl(GateMode::kAlreadyClosed));
  return report;
}

Result<fs::FileInfo> Fsd::Stat(std::string_view name) {
  ChargeOp();
  // Pure name-table read: shard lock orders it against same-name mutators;
  // no gate admission (it writes nothing the log must capture).
  util::RankedLockGuard shard(name_mu_[ShardOf(name)],
                              util::LockRank::kNameShard);
  return StatLocked(name);
}

Status Fsd::Rename(std::string_view from, std::string_view to) {
  return RunOp("fsd.rename", /*latency=*/nullptr, {from, to},
               [&] { return RenameLocked(from, to); });
}

Status Fsd::RenameLocked(std::string_view from, std::string_view to) {
  ChargeOp();
  CEDAR_RETURN_IF_ERROR(CheckWritable());
  CEDAR_ASSIGN_OR_RETURN(auto found, HighestVersion(from));
  auto [from_version, entry] = found;
  // The new name continues its own version chain (a rename onto an
  // existing name stacks a new version on top, like CreateFile).
  std::uint32_t to_version = 1;
  CEDAR_ASSIGN_OR_RETURN(auto highest, FindHighestVersion(to));
  if (highest) {
    to_version = highest->first + 1;
  }
  CEDAR_RETURN_IF_ERROR(PutEntry(to, to_version, entry));
  CEDAR_RETURN_IF_ERROR(tree_->Erase(fs::EncodeNameKey(from, from_version)));
  // The leader stores the version: rewrite it through the buffer pool so
  // the disk cross-check matches the entry's new identity.
  UpsertLeader(kLeaderKeyBit | entry.leader_lba,
               SerializeLeader(MakeLeader(entry, to_version)));
  {
    util::RankedLockGuard lock(open_mu_, util::LockRank::kOpenFiles);
    auto it = open_files_.find(entry.uid);
    if (it != open_files_.end()) {
      it->second.name = std::string(to);
      it->second.version = to_version;
      it->second.leader_verified = false;
    }
  }
  BumpUpdateSeq();
  return OkStatus();
}

void Fsd::UpsertLeader(std::uint32_t key,
                       const std::vector<std::uint8_t>& image) {
  bool became_pending = false;
  cache_.Upsert(key, [&](cache::Frame& frame, bool inserted) {
    became_pending = inserted || !frame.dirty_since_log;
    frame.data = image;
    frame.dirty = true;
    frame.dirty_since_log = true;
    frame.logged_lsn = 0;
    frame.logged_image.clear();
    frame.is_leader = true;
  });
  if (became_pending) {
    gate_.NotePendingCapture(1);
  }
}

Result<fs::FileInfo> Fsd::StatLocked(std::string_view name) {
  CEDAR_ASSIGN_OR_RETURN(auto found, HighestVersion(name));
  auto [version, entry] = found;
  return InfoOf(std::string(name), version, entry);
}

}  // namespace cedar::core
