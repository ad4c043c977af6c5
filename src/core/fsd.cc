#include "src/core/fsd.h"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <unordered_set>
#include <utility>

#include "src/fsapi/name_key.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/serial.h"

namespace cedar::core {
namespace {

// "FSDV": the name table holds varint-coded entries. A volume from before
// that layout (magic "FSDR") fails Mount on the magic instead of having its
// fixed-width entries misread.
constexpr std::uint32_t kRootMagic = 0x46534456;
constexpr std::uint32_t kRemapMagic = 0x4E54524D;  // "NTRM"

void PutU32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// commit.daemon picks the executor of both round runners: background
// threads, or rounds stepped on the calling thread (inline mode).
RoundRunner::Executor RoundExecutor(const FsdConfig& config) {
  return config.commit.daemon ? RoundRunner::Executor::kThread
                              : RoundRunner::Executor::kStepped;
}

}  // namespace

// The name-table PageStore: reads come from the buffer pool, falling back
// to the double-written home copies (primary preferred, replica used for
// repair); writes only dirty cached frames — the log captures them at the
// next group commit, so a multi-page B-tree update is atomic.
//
// Concurrency: only the cache's closure APIs are used (reads copy out an
// atomic image, writes mutate under the cache mutex), so tree readers on
// shared pages never see torn frames; the allocation-map bitmaps are
// guarded by the owning Fsd's alloc_mu_.
class Fsd::NtStore : public btree::PageStore {
 public:
  // Content CRCs (DESIGN.md section 4h): every home sector is 504 bytes of
  // tree payload plus an 8-byte trailer — a u32 write sequence from a
  // volume-global monotonic clock and a u32 CRC over the first 508 bytes.
  // The CRC catches silent corruption (bit rot under an intact label, which
  // the device acks as a successful read); the sequence arbitrates between
  // two copies that BOTH validate but disagree — a dropped (acked-but-lost)
  // home write leaves the stale copy with the lower stamp, so the newer
  // copy wins regardless of which region holds it. Cache frames and log
  // images carry the full composed sector, so group commit and recovery
  // replay preserve trailers without knowing about them.
  static constexpr std::uint32_t kPayload = 504;
  static constexpr std::size_t kSeqOffset = 504;
  static constexpr std::size_t kCrcOffset = 508;

  explicit NtStore(Fsd* fsd) : fsd_(fsd) {}

  std::uint32_t page_size() const override { return kPayload; }

  // Validates `sector`'s trailer CRC; on success stores the write sequence
  // in *seq (when non-null). Free (never-written) pages fail the CRC.
  static bool ParseTrailer(std::span<const std::uint8_t> sector,
                           std::uint32_t* seq) {
    CEDAR_CHECK(sector.size() == 512);
    ByteReader cr(sector.subspan(kCrcOffset, 4));
    if (cr.U32() != Crc32(sector.subspan(0, kCrcOffset))) {
      return false;
    }
    if (seq != nullptr) {
      ByteReader sr(sector.subspan(kSeqOffset, 4));
      *seq = sr.U32();
    }
    return true;
  }

  // Builds a full 512-byte home sector: payload, fresh sequence stamp, CRC.
  std::vector<std::uint8_t> Compose(std::span<const std::uint8_t> payload) {
    CEDAR_CHECK(payload.size() == kPayload);
    std::vector<std::uint8_t> sector(512, 0);
    std::copy(payload.begin(), payload.end(), sector.begin());
    const std::uint32_t seq =
        seq_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
    PutU32(sector.data() + kSeqOffset, seq);
    PutU32(sector.data() + kCrcOffset,
           Crc32(std::span<const std::uint8_t>(sector).subspan(0,
                                                               kCrcOffset)));
    return sector;
  }

  // The sequence clock must dominate every stamp on disk or the winner
  // election above could prefer a stale copy. Mount max-merges it from the
  // volume root (a floor persisted at every root write), from every trailer
  // the preload sweep sees, and from every replayed log image; Format
  // resets it alongside the zeroed regions.
  void MergeSeq(std::uint32_t seq) {
    std::uint32_t cur = seq_clock_.load(std::memory_order_relaxed);
    while (seq > cur && !seq_clock_.compare_exchange_weak(
                            cur, seq, std::memory_order_relaxed)) {
    }
  }
  std::uint32_t seq_clock() const {
    return seq_clock_.load(std::memory_order_relaxed);
  }
  void ResetSeqClock(std::uint32_t value) {
    seq_clock_.store(value, std::memory_order_relaxed);
  }

  Status ReadPage(btree::PageId id, std::span<std::uint8_t> out) override {
    std::array<std::uint8_t, 512> cached;
    if (fsd_->cache_.ReadInto(id, cached)) {
      std::copy_n(cached.begin(), kPayload, out.begin());
      return OkStatus();
    }
    // Miss: read an aligned cluster of pages from each region in one
    // request (tree pages allocate roughly sequentially, so siblings come
    // along for free — the clustering effect the paper gets from its larger
    // name-table pages), vote, and repair the loser in place (remapping its
    // home sector when the rewrite hits permanently bad media). The replica
    // is read only under double_read_check or when the primary is bad.
    const std::uint32_t cluster = fsd_->config_.durability.nt_read_ahead_pages;
    const std::uint32_t first = (id / cluster) * cluster;
    const std::uint32_t count =
        std::min(cluster, fsd_->config_.nt_pages - first);

    std::vector<std::uint8_t> a(static_cast<std::size_t>(count) * 512);
    std::vector<std::uint8_t> b(a.size());
    std::vector<std::uint32_t> bad_a;
    std::vector<std::uint32_t> bad_b;
    CEDAR_RETURN_IF_ERROR(
        ReadRegion(fsd_->layout_.nta_base + first, count, a, &bad_a));
    auto is_bad = [](const std::vector<std::uint32_t>& bad,
                     std::uint32_t i) {
      return std::find(bad.begin(), bad.end(), i) != bad.end();
    };
    auto sector_of = [](std::vector<std::uint8_t>& region, std::uint32_t i) {
      return std::span<const std::uint8_t>(region).subspan(
          static_cast<std::size_t>(i) * 512, 512);
    };
    const bool read_b = fsd_->config_.durability.double_read_check ||
                        !bad_a.empty() ||
                        !ParseTrailer(sector_of(a, id - first), nullptr);
    if (read_b) {
      CEDAR_RETURN_IF_ERROR(
          ReadRegion(fsd_->layout_.ntb_base + first, count, b, &bad_b));
    }

    bool found = false;
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t pid = first + i;
      auto page_a = sector_of(a, i);
      auto page_b = sector_of(b, i);
      const NtVote vote =
          VoteNtCopies(page_a, !is_bad(bad_a, i), page_b, !is_bad(bad_b, i),
                       read_b, fsd_->c_.corruption_detected);
      if (!vote.any()) {
        if (pid == id) {
          fsd_->NoteLostNtPage(pid);
          return MakeError(ErrorCode::kSectorDamaged,
                           "both name-table copies unreadable, page " +
                               std::to_string(pid));
        }
        continue;  // a free page, or a loss the per-page path will report
      }
      auto good = vote.b_wins ? page_b : page_a;
      if (!fsd_->cache_.InsertIfAbsent(
              pid, std::vector<std::uint8_t>(good.begin(), good.end()))) {
        // Cached — never clobber a (possibly dirty) frame, and skip the
        // repair: a frame with a newer image will reach home through a
        // checkpoint anyway.
        if (pid == id) {
          CEDAR_CHECK(fsd_->cache_.ReadInto(id, cached));
          std::copy_n(cached.begin(), kPayload, out.begin());
          found = true;
        }
        continue;
      }
      MergeSeq(vote.seq);
      if (vote.diverged) {
        CEDAR_RETURN_IF_ERROR(
            fsd_->RepairNtCopy(fsd_->NtLoserHome(vote, pid), good));
      }
      if (pid == id) {
        std::copy_n(good.begin(), kPayload, out.begin());
        found = true;
      }
    }
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
    std::vector<std::uint8_t> sector = Compose(data);
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
    {
      util::RankedLockGuard lock(fsd_->alloc_mu_, util::LockRank::kAlloc);
      pid = fsd_->vam_.nt_free().FindRunForward(0, 1);
      if (pid) {
        fsd_->vam_.nt_free().Set(*pid, false);
      }
    }
    if (!pid) {
      return MakeError(ErrorCode::kNoFreeSpace, "name table region full");
    }
    fsd_->RecordDelta(VamDelta::Op::kNtAlloc, *pid, 1);
    return *pid;
  }

  Status FreePage(btree::PageId id) override {
    // Free for reuse only once the force logging the free is durable.
    fsd_->vam_.MarkNtFreeShadow(id);
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
    fsd_->RecordDelta(VamDelta::Op::kNtFree, id, 1);
    return OkStatus();
  }

  bool CanAllocate(std::uint32_t count) override {
    util::RankedLockGuard lock(fsd_->alloc_mu_, util::LockRank::kAlloc);
    return fsd_->vam_.nt_free().Count() >= count;
  }

 private:
  // One region's slice of the cluster: a single bulk request, then the
  // remap patch.
  Status ReadRegion(sim::Lba base, std::uint32_t count,
                    std::vector<std::uint8_t>& buf,
                    std::vector<std::uint32_t>* bad) {
    CEDAR_RETURN_IF_ERROR(fsd_->ReadWithRetry(base, buf, bad));
    fsd_->ChargeSectors(count);
    return fsd_->PatchRemapped(base, count, buf, bad);
  }

  Fsd* fsd_;
  std::atomic<std::uint32_t> seq_clock_{0};
};

Fsd::NtVote Fsd::VoteNtCopies(std::span<const std::uint8_t> a,
                              bool readable_a,
                              std::span<const std::uint8_t> b,
                              bool readable_b, bool read_b,
                              obs::Counter* corruption) {
  readable_b = readable_b && read_b;
  NtVote vote;
  std::uint32_t seq_a = 0;
  std::uint32_t seq_b = 0;
  vote.ok_a = readable_a && NtStore::ParseTrailer(a, &seq_a);
  vote.ok_b = readable_b && NtStore::ParseTrailer(b, &seq_b);
  if (!vote.any()) {
    return vote;  // a free page, or a lost one: nothing to elect or count
  }
  // With one copy ok, a readable copy whose CRC fails held real data:
  // silent corruption, caught (at most one copy can be that copy).
  if (corruption != nullptr &&
      ((readable_a && !vote.ok_a) || (readable_b && !vote.ok_b))) {
    corruption->Increment();
  }
  // On a tie (the common case — both copies carry the same composed
  // sector) the primary wins, preserving the historical repair direction.
  vote.b_wins = vote.ok_b && (!vote.ok_a || seq_b > seq_a);
  vote.seq = std::max(vote.ok_a ? seq_a : 0u, vote.ok_b ? seq_b : 0u);
  vote.diverged = read_b && (!vote.ok_a || !vote.ok_b ||
                             !std::equal(a.begin(), a.end(), b.begin()));
  return vote;
}

// A read-only name-table PageStore over the preload sweep's elected images
// (the mount-time rebuild walks the tree through it, so a cache smaller
// than the table never sends the walk back to disk). A page neither copy
// held is lost exactly as NtStore::ReadPage reports it.
class Fsd::NtImageStore : public btree::PageStore {
 public:
  NtImageStore(Fsd* fsd, const NtImages* images) : fsd_(fsd), images_(images) {}

  std::uint32_t page_size() const override { return NtStore::kPayload; }

  Status ReadPage(btree::PageId id, std::span<std::uint8_t> out) override {
    if (id >= images_->present.size() || !images_->present[id]) {
      fsd_->NoteLostNtPage(id);
      return MakeError(ErrorCode::kSectorDamaged,
                       "both name-table copies unreadable, page " +
                           std::to_string(id));
    }
    std::copy_n(images_->sectors.begin() + static_cast<std::size_t>(id) * 512,
                NtStore::kPayload, out.begin());
    return OkStatus();
  }

  Status WritePage(btree::PageId, std::span<const std::uint8_t>) override {
    return ReadOnly();
  }
  Result<btree::PageId> AllocatePage() override { return ReadOnly(); }
  Status FreePage(btree::PageId) override { return ReadOnly(); }
  bool CanAllocate(std::uint32_t) override { return false; }

 private:
  static Status ReadOnly() {
    return MakeError(ErrorCode::kFailedPrecondition,
                     "name-table image store is read-only");
  }

  Fsd* fsd_;
  const NtImages* images_;
};

bool Fsd::IsInteriorFrame(std::uint32_t key,
                          std::span<const std::uint8_t> data) {
  return !(key & kLeaderKeyBit) && btree::BTree::IsInteriorPage(data);
}

Fsd::Fsd(sim::BlockDevice* disk, FsdConfig config)
    : Fsd(disk, config, &Fsd::IsInteriorFrame) {}

Fsd::Fsd(sim::BlockDevice* disk, FsdConfig config,
         cache::PageCache::Classifier interior)
    : disk_(disk),
      config_(config),
      layout_(FsdLayout::Compute(disk->geometry(), config)),
      vam_(disk->geometry().TotalSectors(), config.nt_pages),
      cache_(config.cache_frames, &metrics_, interior),
      commit_rounds_(RoundExecutor(config), [this] { CommitRound(); }),
      ckpt_rounds_(RoundExecutor(config), [this] { CkptRound(); }),
      queue_(&commit_rounds_, &metrics_) {
  CEDAR_CHECK(disk != nullptr);
  nt_store_ = std::make_unique<NtStore>(this);
  tree_ = std::make_unique<btree::BTree>(nt_store_.get(), /*root=*/0);
  log_ = std::make_unique<FsdLog>(disk_, layout_.log_base,
                                  config_.log_sectors, &metrics_);
  allocator_ = std::make_unique<RunAllocator>(
      &vam_, layout_, config_.big_file_threshold_sectors);

  disk_->AttachMetrics(&metrics_);
}

Status Fsd::ReadWithRetry(sim::Lba start, std::span<std::uint8_t> out,
                          std::vector<std::uint32_t>* bad) {
  Status status = disk_->Read(start, out, bad);
  std::uint32_t attempts = 0;
  while (status.code() == ErrorCode::kReadTransient &&
         attempts < kReadRetryLimit) {
    ++attempts;
    c_.read_retries->Increment();
    status = disk_->Read(start, out, bad);
  }
  if (status.code() == ErrorCode::kReadTransient) {
    // The retry budget is spent and the sector still reads soft: surface it
    // with the failing span attached, so callers (and their callers'
    // operators) see WHICH sectors gave up instead of a bare device error.
    c_.read_retry_exhausted->Increment();
    const sim::Lba last = start + static_cast<sim::Lba>(out.size() / 512) - 1;
    std::string span_text = "lba " + std::to_string(start);
    if (last > start) {
      span_text += ".." + std::to_string(last);
    }
    return MakeError(ErrorCode::kReadTransient,
                     "read retries exhausted (" +
                         std::to_string(kReadRetryLimit) +
                         "), " + span_text + ": " + status.message());
  }
  return status;
}

Status Fsd::RepairLeader(const FsdEntry& entry, std::uint32_t version) {
  if (degraded_.load(std::memory_order_relaxed)) {
    return OkStatus();  // read-only: the entry serves as the authority
  }
  obs::ScopedOp op_scope(disk_->tracer(), "fsd.repair");
  const std::vector<std::uint8_t> image =
      SerializeLeader(MakeLeader(entry, version));
  const Status wrote = disk_->Write(entry.leader_lba, image);
  if (wrote.ok()) {
    c_.repairs->Increment();
    return OkStatus();
  }
  if (wrote.code() == ErrorCode::kDeviceCrashed) {
    return wrote;
  }
  NoteUnrepairable("leader unrepairable at lba " +
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

std::uint32_t Fsd::ShadowSectors() const { return vam_.ShadowCount(); }

bool Fsd::HasPendingUpdates() const {
  // Snapshot of the pending-work state; exact only between settled phases
  // (tests call it with no op in flight).
  bool pending = false;
  const_cast<cache::PageCache&>(cache_).ForEach(
      [&](std::uint32_t, cache::Frame& frame) {
        pending = pending || frame.dirty_since_log;
      });
  {
    util::RankedLockGuard lock(pending_mu_, util::LockRank::kPending);
    pending = pending || !pending_tombstones_.empty() ||
              !pending_alloc_deltas_.empty() || !pending_free_deltas_.empty();
  }
  return pending || vam_.ShadowCount() > 0;
}

void Fsd::RecordDelta(VamDelta::Op op, std::uint32_t start,
                      std::uint32_t count) {
  if (!config_.durability.vam_logging) {
    return;
  }
  const VamDelta delta{.op = op, .start = start, .count = count};
  bool new_page = false;
  {
    util::RankedLockGuard lock(pending_mu_, util::LockRank::kPending);
    auto& deltas = (op == VamDelta::Op::kAlloc || op == VamDelta::Op::kNtAlloc)
                       ? pending_alloc_deltas_
                       : pending_free_deltas_;
    deltas.push_back(delta);
    // Each serialized delta page holds kDeltasPerPage entries; count a new
    // pending-capture page when this push starts one.
    new_page = deltas.size() % kVamDeltasPerPage == 1;
  }
  if (new_page) {
    gate_.NotePendingCapture(1);
  }
}

Status Fsd::MarkSystemRegionsUsed() {
  vam_.free().SetRange(0, layout_.data_low, false);
  vam_.free().SetRange(layout_.ntb_base, layout_.nta_end - layout_.ntb_base,
                       false);
  return OkStatus();
}

Status Fsd::WriteVolumeRoot(bool clean) {
  ByteWriter w;
  w.U32(kRootMagic);
  w.U32(disk_->geometry().cylinders);
  w.U32(disk_->geometry().heads);
  w.U32(disk_->geometry().sectors_per_track);
  w.U32(config_.log_sectors);
  w.U32(config_.nt_pages);
  w.U32(boot_count_);
  // Name-table write-sequence high-water mark: a clean shutdown persists
  // the exact clock, every other root write a floor, so the next mount can
  // never stamp new home sectors below ones already on disk.
  w.U32(nt_store_->seq_clock());
  w.U8(clean ? 1 : 0);
  std::vector<std::uint8_t> root = w.Take();
  const std::uint32_t crc = Crc32(root);
  ByteWriter tail(&root);
  tail.U32(crc);
  root.resize(512, 0);
  // [root][blank][copy] in one write; the copies are never adjacent.
  std::vector<std::uint8_t> buf(3 * 512, 0);
  std::copy(root.begin(), root.end(), buf.begin());
  std::copy(root.begin(), root.end(), buf.begin() + 2 * 512);
  const Status wrote = disk_->Write(layout_.root_lba, buf);
  if (!wrote.ok() && wrote.code() != ErrorCode::kDeviceCrashed) {
    NoteUnrepairable("volume root unwritable at lba " +
                     std::to_string(layout_.root_lba) + ": " +
                     wrote.message());
  }
  return wrote;
}

Status Fsd::ReadVolumeRoot(bool* clean) {
  struct RootFields {
    std::uint32_t log_sectors = 0;
    std::uint32_t nt_pages = 0;
    std::uint32_t boot_count = 0;
    std::uint32_t nt_seq = 0;
    bool clean = false;
  };
  auto parse = [&](std::span<const std::uint8_t> sector,
                   RootFields* fields) -> Status {
    ByteReader r(sector);
    if (r.U32() != kRootMagic) {
      return MakeError(ErrorCode::kCorruptMetadata, "bad root magic");
    }
    if (r.U32() != disk_->geometry().cylinders ||
        r.U32() != disk_->geometry().heads ||
        r.U32() != disk_->geometry().sectors_per_track) {
      return MakeError(ErrorCode::kCorruptMetadata, "geometry mismatch");
    }
    fields->log_sectors = r.U32();
    fields->nt_pages = r.U32();
    fields->boot_count = r.U32();
    fields->nt_seq = r.U32();
    fields->clean = r.U8() != 0;
    if (!r.ok()) {
      return MakeError(ErrorCode::kCorruptMetadata, "truncated root");
    }
    const std::size_t body = r.position();
    ByteReader cr(sector.subspan(body, 4));
    if (cr.U32() != Crc32(sector.subspan(0, body))) {
      return MakeError(ErrorCode::kCorruptMetadata, "root crc mismatch");
    }
    return OkStatus();
  };

  std::vector<std::uint8_t> buf(3 * 512);
  std::vector<std::uint32_t> bad;
  CEDAR_RETURN_IF_ERROR(ReadWithRetry(layout_.root_lba, buf, &bad));
  auto span = std::span<const std::uint8_t>(buf);
  RootFields f0;
  RootFields f2;
  const bool ok0 = std::find(bad.begin(), bad.end(), 0u) == bad.end() &&
                   parse(span.subspan(0, 512), &f0).ok();
  const bool ok2 = std::find(bad.begin(), bad.end(), 2u) == bad.end() &&
                   parse(span.subspan(2 * 512, 512), &f2).ok();
  if (!ok0 && !ok2) {
    return MakeError(ErrorCode::kCorruptMetadata, "volume root unreadable");
  }
  // Both copies ride in one 3-sector write, so they normally match; a torn
  // root write leaves one copy a boot behind — the higher boot count is the
  // one that finished.
  const bool use2 = ok2 && (!ok0 || f2.boot_count > f0.boot_count);
  const RootFields& f = use2 ? f2 : f0;
  config_.log_sectors = f.log_sectors;
  config_.nt_pages = f.nt_pages;
  boot_count_ = f.boot_count;
  nt_store_->MergeSeq(f.nt_seq);
  *clean = f.clean;
  // Heal the lost/stale copy from the survivor while we are here (never in
  // degraded mode — nothing writes there).
  const bool diverged =
      ok0 != ok2 ||
      !std::equal(span.begin(), span.begin() + 512, span.begin() + 2 * 512);
  if (diverged && !degraded_.load(std::memory_order_relaxed)) {
    auto good = span.subspan(use2 ? 2 * 512 : 0, 512);
    const sim::Lba stale = layout_.root_lba + (use2 ? 0 : 2);
    const Status repaired = disk_->Write(stale, good);
    if (repaired.code() == ErrorCode::kDeviceCrashed) {
      return repaired;
    }
    if (repaired.ok()) {
      c_.repairs->Increment();
    } else {
      NoteUnrepairable("volume root copy unwritable at lba " +
                       std::to_string(stale) + ": " + repaired.message());
    }
  }
  return OkStatus();
}

Status Fsd::Format() {
  CEDAR_RETURN_IF_ERROR(config_.Validate());
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
  boot_count_ = 0;
  uid_counter_ = 0;
  metrics_.Reset();
  cache_.Clear();
  open_files_.clear();
  degraded_.store(false, std::memory_order_relaxed);
  nt_store_->ResetSeqClock(0);
  {
    std::lock_guard<std::mutex> lock(remap_mu_);
    nt_remap_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_notes_.clear();
    nt_pages_lost_ = 0;
    unrepairable_ = 0;
  }

  // The log is formatted once, by the clean mount that ends Format.

  // Zero both name-table home regions: a reused disk could hold sectors
  // from a previous volume whose trailers still validate, and the
  // newest-copy election must never resurrect them. Write errors (a
  // pre-damaged sector) are tolerated — the first real write to that page
  // goes through the repair/remap path.
  {
    constexpr std::uint32_t kZeroChunk = 1024;
    std::vector<std::uint8_t> zeros(
        static_cast<std::size_t>(std::min(kZeroChunk, config_.nt_pages)) *
        512);
    for (const sim::Lba base : {layout_.nta_base, layout_.ntb_base}) {
      for (std::uint32_t off = 0; off < config_.nt_pages; off += kZeroChunk) {
        const std::uint32_t take = std::min(kZeroChunk, config_.nt_pages - off);
        const Status wiped = disk_->Write(
            base + off, std::span<const std::uint8_t>(
                            zeros.data(), static_cast<std::size_t>(take) * 512));
        if (wiped.code() == ErrorCode::kDeviceCrashed) {
          return wiped;
        }
      }
    }
  }
  // Fresh volume, empty remap directory (both copies).
  CEDAR_RETURN_IF_ERROR(SaveRemapTable());

  vam_.Reset(disk_->geometry().TotalSectors(), config_.nt_pages);
  vam_.free().SetRange(0, vam_.free().size(), true);
  CEDAR_RETURN_IF_ERROR(MarkSystemRegionsUsed());
  vam_.nt_free().SetRange(0, config_.nt_pages, true);
  vam_.nt_free().Set(0, false);  // tree root

  CEDAR_RETURN_IF_ERROR(tree_->Create());
  // Write the fresh pages straight home (both copies) and clear flags;
  // nothing needs the log yet.
  std::vector<HomeImage> fresh;
  cache_.ForEach([&](std::uint32_t key, cache::Frame& frame) {
    if (frame.dirty) {
      fresh.push_back(HomeImage{.key = key, .image = frame.data});
    }
  });
  CEDAR_RETURN_IF_ERROR(SweepHome(fresh));
  cache_.ForEach([](std::uint32_t, cache::Frame& frame) {
    frame.dirty = false;
    frame.dirty_since_log = false;
  });

  CEDAR_RETURN_IF_ERROR(
      vam_.Save(disk_, layout_.vam_base, layout_.vam_sectors, 0));
  CEDAR_RETURN_IF_ERROR(WriteVolumeRoot(/*clean=*/true));
  return MountLocked();
}

Status Fsd::Mount() {
  CEDAR_RETURN_IF_ERROR(config_.Validate());
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
  degraded_.store(false, std::memory_order_relaxed);
  bool clean = false;
  CEDAR_RETURN_IF_ERROR(ReadVolumeRoot(&clean));
  // The remap table routes every name-table home access from here on, so
  // it loads before recovery replay or the preload sweep touch the region.
  CEDAR_RETURN_IF_ERROR(LoadRemapTable());
  const std::uint32_t previous_boot = boot_count_;
  ++boot_count_;
  uid_counter_ = 0;
  cache_.Clear();
  open_files_.clear();
  vam_.Reset(disk_->geometry().TotalSectors(), config_.nt_pages);

  bool need_rebuild = false;
  if (!clean) {
    // Crash recovery: replay the log, VAM delta pages kept with their
    // record LSNs for the fast path below.
    std::map<sim::Lba, PageImage> replay;
    std::vector<std::pair<std::uint64_t, VamDelta>> deltas;
    CEDAR_RETURN_IF_ERROR(CollectReplay(&replay, &deltas));
    // Write the surviving images home through the elevator scheduler
    // (name-table pages cluster, so this turns hundreds of rotational
    // misses into a few streaming writes). Primaries flush before replicas
    // so the two copies of a page never share a transfer.
    HomeBatch primaries(disk_, config_.durability.batched_writeback);
    HomeBatch secondaries(disk_, config_.durability.batched_writeback);
    for (const auto& [lba, page] : replay) {
      primaries.QueueWrite(page.primary, page.data);
      if (page.secondary != kNoLba) {
        secondaries.QueueWrite(page.secondary, page.data);
      }
      c_.recovery_pages_replayed->Increment();
    }
    CEDAR_RETURN_IF_ERROR(FlushHomeBatch(primaries));
    CEDAR_RETURN_IF_ERROR(FlushHomeBatch(secondaries));

    // VAM: fast path = last base snapshot + the deltas logged since it
    // (idempotent, applied in LSN order); otherwise scan the name table.
    need_rebuild = true;
    if (config_.durability.vam_logging) {
      std::uint64_t base_lsn = 0;
      Status base = vam_.Load(disk_, layout_.vam_base, layout_.vam_sectors,
                              Vam::kAnyBoot, &base_lsn);
      if (base.ok()) {
        for (const auto& [lsn, delta] : deltas) {
          if (lsn >= base_lsn) {
            vam_.Apply(delta);
          }
        }
        need_rebuild = false;
        c_.fast_recoveries->Increment();
      }
    }
  } else {
    // Clean boot: the log contents are all applied; start it fresh. The log
    // has no spare sectors, so a write fault here leaves the volume only
    // the read-only degraded mount; attribute it for that mount's report.
    if (Status formatted = log_->Format(boot_count_); !formatted.ok()) {
      if (formatted.code() != ErrorCode::kDeviceCrashed) {
        NoteUnrepairable("log unwritable at mount: " + formatted.message());
      }
      return formatted;
    }
    Status loaded = vam_.Load(disk_, layout_.vam_base, layout_.vam_sectors,
                              previous_boot);
    need_rebuild = !loaded.ok();
  }
  if (need_rebuild) {
    CEDAR_RETURN_IF_ERROR(RebuildVolatileState());
  }

  if (config_.durability.vam_logging) {
    // Guarantee a base snapshot exists for the next crash. This must land
    // BEFORE the unclean root is written: a clean boot reformats the log
    // (LSNs restart at 1), so once the root says "unclean" any stale base
    // with a large LSN would make recovery skip every new delta — a stale
    // VAM and double allocation. Saving first closes that crash window.
    CEDAR_RETURN_IF_ERROR(vam_.Save(disk_, layout_.vam_base,
                                    layout_.vam_sectors, boot_count_,
                                    log_->next_lsn()));
  }
  CEDAR_RETURN_IF_ERROR(WriteVolumeRoot(/*clean=*/false));
  last_force_.store(disk_->clock().now(), std::memory_order_relaxed);
  // Arm the admission gate for this volume's log geometry; the cache was
  // cleared above, so no capture reservations carry over.
  gate_.SetBudget(log_->MaxGroupPages());
  gate_.ResetPendingCapture();
  mounted_ = true;
  return OkStatus();
}

Status Fsd::MountDegraded() {
  CEDAR_RETURN_IF_ERROR(config_.Validate());
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
  degraded_.store(true, std::memory_order_relaxed);
  bool clean = false;
  const Status root = ReadVolumeRoot(&clean);
  if (root.code() == ErrorCode::kDeviceCrashed) {
    return root;
  }
  if (!root.ok()) {
    // Keep the constructed config and assume unclean so the log replay
    // below recovers whatever it can.
    NoteUnrepairable("volume root unreadable: " + root.message());
    clean = false;
  }
  ++boot_count_;  // in-memory only; nothing writes the root in this mode
  uid_counter_ = 0;
  cache_.Clear();
  open_files_.clear();
  vam_.Reset(disk_->geometry().TotalSectors(), config_.nt_pages);
  const Status remap = LoadRemapTable();
  if (remap.code() == ErrorCode::kDeviceCrashed) {
    return remap;
  }

  // Unclean volume: collect the committed log images (the VAM is not
  // reconstructed in this mode). FsdLog::Recover is read-only, so this is
  // safe on damaged media; if the log itself is unreadable the mount
  // continues with whatever the home copies hold.
  std::map<sim::Lba, PageImage> replay;
  if (!clean) {
    const Status recovered = CollectReplay(&replay, /*deltas=*/nullptr);
    if (recovered.code() == ErrorCode::kDeviceCrashed) {
      return recovered;
    }
    if (!recovered.ok()) {
      NoteUnrepairable("log unreadable, recovery skipped: " +
                       recovered.message());
      replay.clear();
    }
  }

  // Fill the cache from the surviving home copies (repairs stand down via
  // the degraded flag), then overlay the replayed images — they are newer
  // than any home copy. Overlaid frames are marked dirty: dirty frames are
  // never evicted and nothing flushes in this mode, so the log's images
  // stay pinned in memory without ever touching the disk.
  const Status preload = PreloadNameTable();
  if (preload.code() == ErrorCode::kDeviceCrashed) {
    return preload;
  }
  if (!preload.ok()) {
    NoteUnrepairable("name-table preload failed: " + preload.message());
  }
  for (const auto& [lba, page] : replay) {
    // A name-table home, a spare (mapped back to its original home), or a
    // leader.
    const std::optional<sim::Lba> home =
        IsNtHome(lba) ? std::optional<sim::Lba>(lba) : RemapOrigin(lba);
    const bool is_leader = !home.has_value();
    std::uint32_t key = kLeaderKeyBit | static_cast<std::uint32_t>(lba);
    if (!is_leader) {
      if (*home < layout_.nta_base || *home >= layout_.nta_end) {
        continue;  // a replica-home image; the primary image covers the page
      }
      key = static_cast<std::uint32_t>(*home - layout_.nta_base);
    }
    cache_.Upsert(key, [&](cache::Frame& frame, bool) {
      frame.data = page.data;
      frame.dirty = true;  // pins the frame; nothing writes it back
      frame.dirty_since_log = false;
      frame.logged_image.clear();
      frame.logged_lsn = 0;
      frame.is_leader = is_leader;
    });
    c_.recovery_pages_replayed->Increment();
  }

  gate_.SetBudget(log_->MaxGroupPages());
  gate_.ResetPendingCapture();
  last_force_.store(disk_->clock().now(), std::memory_order_relaxed);
  mounted_ = true;
  return OkStatus();
}

Status Fsd::CollectReplay(
    std::map<sim::Lba, PageImage>* replay,
    std::vector<std::pair<std::uint64_t, VamDelta>>* deltas) {
  // Later images supersede earlier ones and tombstones cancel queued leader
  // writes, so everything is collected before anything is written. Known
  // edge: a record carrying a spare LBA whose mapping later moved to a
  // different spare is not renormalized.
  return log_->Recover(
      [&](std::uint64_t lsn, const std::vector<PageImage>& pages) {
        for (const PageImage& page : pages) {
          switch (page.kind) {
            case PageKind::kTombstone:
              replay->erase(MapNt(page.primary));
              break;
            case PageKind::kVamDelta: {
              if (deltas == nullptr) {
                break;
              }
              std::vector<VamDelta> parsed;
              CEDAR_RETURN_IF_ERROR(ParseDeltas(page.data, &parsed));
              for (const VamDelta& delta : parsed) {
                deltas->emplace_back(lsn, delta);
              }
              break;
            }
            case PageKind::kPage: {
              PageImage mapped = page;
              mapped.primary = MapNt(page.primary);
              if (page.secondary != kNoLba) {
                mapped.secondary = MapNt(page.secondary);
                std::uint32_t seq = 0;
                if (NtStore::ParseTrailer(mapped.data, &seq)) {
                  nt_store_->MergeSeq(seq);
                }
              }
              (*replay)[mapped.primary] = std::move(mapped);
              break;
            }
          }
        }
        return OkStatus();
      },
      boot_count_);
}

Status Fsd::PreloadNameTable(NtImages* winners) {
  const std::uint32_t n = config_.nt_pages;
  std::vector<std::uint8_t> region_a(static_cast<std::size_t>(n) * 512);
  std::vector<std::uint8_t> region_b(static_cast<std::size_t>(n) * 512);
  constexpr std::uint32_t kChunk = 1024;
  // Both regions in one elevator sweep; replica B sits below the log and
  // primary A above it, so the sweep reads B then A with a single crossing
  // instead of ping-ponging per chunk.
  const std::uint32_t chunks = (n + kChunk - 1) / kChunk;
  struct ChunkBad {
    std::uint32_t off = 0;
    std::vector<std::uint32_t>* sink = nullptr;
    std::vector<std::uint32_t> bad;
  };
  std::vector<std::uint32_t> bad_a;
  std::vector<std::uint32_t> bad_b;
  std::vector<ChunkBad> chunk_bads;
  chunk_bads.reserve(2 * static_cast<std::size_t>(chunks));
  sim::IoScheduler sched(disk_, config_.durability.batched_writeback, kChunk);
  auto queue_region = [&](std::vector<std::uint8_t>& region, sim::Lba base,
                          std::vector<std::uint32_t>& sink) {
    for (std::uint32_t off = 0; off < n; off += kChunk) {
      const std::uint32_t take = std::min(kChunk, n - off);
      chunk_bads.push_back(ChunkBad{.off = off, .sink = &sink, .bad = {}});
      sched.QueueRead(
          base + off,
          std::span<std::uint8_t>(region.data() +
                                      static_cast<std::size_t>(off) * 512,
                                  static_cast<std::size_t>(take) * 512),
          &chunk_bads.back().bad);
    }
  };
  queue_region(region_a, layout_.nta_base, bad_a);
  queue_region(region_b, layout_.ntb_base, bad_b);
  CEDAR_RETURN_IF_ERROR(sched.Flush());
  for (const ChunkBad& chunk : chunk_bads) {
    for (std::uint32_t b : chunk.bad) {
      chunk.sink->push_back(chunk.off + b);
    }
  }
  CEDAR_RETURN_IF_ERROR(PatchRemapped(layout_.nta_base, n, region_a, &bad_a));
  CEDAR_RETURN_IF_ERROR(PatchRemapped(layout_.ntb_base, n, region_b, &bad_b));
  const std::unordered_set<std::uint32_t> bad_a_set(bad_a.begin(),
                                                    bad_a.end());
  const std::unordered_set<std::uint32_t> bad_b_set(bad_b.begin(),
                                                    bad_b.end());
  HomeBatch repairs(disk_, config_.durability.batched_writeback);
  const bool degraded = degraded_.load(std::memory_order_relaxed);
  // Region A's buffer doubles as the winners: a winning B copy is copied
  // into A's slot once the election is made.
  std::vector<bool> present(n, false);
  for (std::uint32_t pid = 0; pid < n; ++pid) {
    auto a = std::span<std::uint8_t>(region_a).subspan(
        static_cast<std::size_t>(pid) * 512, 512);
    auto b = std::span<const std::uint8_t>(region_b)
                 .subspan(static_cast<std::size_t>(pid) * 512, 512);
    const NtVote vote =
        VoteNtCopies(a, !bad_a_set.contains(pid), b, !bad_b_set.contains(pid),
                     /*read_b=*/true, c_.corruption_detected);
    if (!vote.any()) {
      continue;  // free page, or a loss the per-page read path will report
    }
    nt_store_->MergeSeq(vote.seq);
    if (vote.b_wins) {
      std::copy(b.begin(), b.end(), a.begin());
    }
    const std::span<const std::uint8_t> good = a;
    present[pid] = true;
    if (vote.diverged && !degraded) {
      repairs.QueueWrite(MapNt(NtLoserHome(vote, pid)), good);
      c_.nt_repairs->Increment();
      c_.repairs->Increment();
    }
    cache_.Insert(pid, std::vector<std::uint8_t>(good.begin(), good.end()));
  }
  CEDAR_RETURN_IF_ERROR(FlushHomeBatch(repairs));
  if (winners != nullptr) {
    winners->sectors = std::move(region_a);
    winners->present = std::move(present);
  }
  return OkStatus();
}

Status Fsd::RebuildVolatileState() {
  // Reconstruct the VAM from the name table (paper section 5.5): the name
  // table is compact and local, so this scan is fast; the cost is mostly
  // per-entry CPU. Both regions are slurped in one sweep first, and the
  // walk reads the images that sweep elected, never the bounded cache.
  NtImages images;
  CEDAR_RETURN_IF_ERROR(PreloadNameTable(&images));
  NtImageStore store(this, &images);
  btree::BTree tree(&store, tree_->root());
  vam_.free().SetRange(0, vam_.free().size(), true);
  CEDAR_RETURN_IF_ERROR(MarkSystemRegionsUsed());
  vam_.nt_free().SetRange(0, config_.nt_pages, true);

  std::vector<btree::PageId> pages;
  CEDAR_RETURN_IF_ERROR(tree.CollectPages(&pages));
  for (btree::PageId pid : pages) {
    vam_.nt_free().Set(pid, false);
  }

  Status scan = tree.Scan({}, [&](std::span<const std::uint8_t>,
                                  std::span<const std::uint8_t> value) {
    FsdEntry entry;
    if (ParseEntry(value, &entry).ok()) {
      vam_.MarkUsed(fs::Extent{.start = entry.leader_lba, .count = 1});
      for (const fs::Extent& run : entry.runs) {
        vam_.MarkUsed(run);
      }
      disk_->clock().AdvanceCpu(config_.cpu.per_rebuild_entry);
    }
    return true;
  });
  return scan;
}

Status Fsd::SweepHome(std::span<const HomeImage> pages) {
  HomeBatch primary(disk_, config_.durability.batched_writeback);
  HomeBatch replica(disk_, config_.durability.batched_writeback);
  for (const HomeImage& page : pages) {
    if (page.key & kLeaderKeyBit) {
      primary.QueueWrite(page.key & ~kLeaderKeyBit, page.image);
      continue;
    }
    primary.QueueWrite(MapNt(layout_.nta_base + page.key), page.image);
    replica.QueueWrite(MapNt(layout_.ntb_base + page.key), page.image);
  }
  CEDAR_RETURN_IF_ERROR(FlushHomeBatch(primary));
  return FlushHomeBatch(replica);
}

Status Fsd::FlushHomeBatch(HomeBatch& batch) {
  if (batch.pending() == 0) {
    return OkStatus();
  }
  sim::BatchStats stats;
  Status status = batch.sched.Flush(&stats);
  c_.home_write_batches->Increment();
  c_.home_write_requests->Add(stats.requests_queued);
  c_.home_writes_coalesced->Add(stats.requests_merged);
  if (status.ok() || status.code() == ErrorCode::kDeviceCrashed) {
    return status;
  }
  // The elevator flush hit bad media somewhere in the batch; replay the
  // recorded writes individually so the one bad sector is isolated, retried,
  // and (for name-table homes) remapped instead of failing the whole sweep.
  for (const auto& [lba, image] : batch.writes) {
    CEDAR_RETURN_IF_ERROR(RetryHomeWrite(
        lba, std::span<const std::uint8_t>(image)));
  }
  return OkStatus();
}

sim::Lba Fsd::MapNt(sim::Lba lba) const {
  std::lock_guard<std::mutex> lock(remap_mu_);
  const auto it = nt_remap_.find(lba);
  return it == nt_remap_.end() ? lba : it->second;
}

std::optional<sim::Lba> Fsd::RemapOrigin(sim::Lba spare) const {
  std::lock_guard<std::mutex> lock(remap_mu_);
  for (const auto& [orig, target] : nt_remap_) {
    if (target == spare) {
      return orig;
    }
  }
  return std::nullopt;
}

Status Fsd::PatchRemapped(sim::Lba base, std::uint32_t count,
                          std::span<std::uint8_t> buf,
                          std::vector<std::uint32_t>* bad) {
  std::vector<std::pair<sim::Lba, sim::Lba>> moved;
  {
    std::lock_guard<std::mutex> lock(remap_mu_);
    for (auto it = nt_remap_.lower_bound(base);
         it != nt_remap_.end() && it->first < base + count; ++it) {
      moved.push_back(*it);
    }
  }
  for (const auto& [home, spare] : moved) {
    const auto i = static_cast<std::uint32_t>(home - base);
    bad->erase(std::remove(bad->begin(), bad->end(), i), bad->end());
    std::vector<std::uint32_t> spare_bad;
    const Status read = ReadWithRetry(
        spare, buf.subspan(static_cast<std::size_t>(i) * 512, 512),
        &spare_bad);
    if (read.code() == ErrorCode::kDeviceCrashed) {
      return read;
    }
    if (!read.ok() || !spare_bad.empty()) {
      bad->push_back(i);
    }
  }
  return OkStatus();
}

bool Fsd::IsNtHome(sim::Lba lba) const {
  return (lba >= layout_.nta_base && lba < layout_.nta_end) ||
         (lba >= layout_.ntb_base && lba < layout_.ntb_base + config_.nt_pages);
}

Status Fsd::RemapNtSector(sim::Lba from, std::span<const std::uint8_t> image) {
  if (degraded_.load(std::memory_order_relaxed)) {
    return OkStatus();  // read-only: serve what survives, write nothing
  }
  const sim::Lba spare_low = layout_.remap_base + FsdLayout::kRemapDirCopies;
  const sim::Lba spare_high = layout_.remap_base + layout_.remap_sectors;
  for (sim::Lba spare = spare_low; spare < spare_high; ++spare) {
    // A spare already serving any mapping is off limits — including
    // `from`'s own current spare, which is exactly the sector that just
    // failed when a remap moves.
    if (RemapOrigin(spare).has_value()) {
      continue;
    }
    const Status wrote = disk_->Write(spare, image);
    if (wrote.code() == ErrorCode::kDeviceCrashed) {
      return wrote;
    }
    if (!wrote.ok()) {
      continue;  // this spare is bad too; try the next
    }
    {
      std::lock_guard<std::mutex> lock(remap_mu_);
      nt_remap_[from] = spare;
    }
    CEDAR_RETURN_IF_ERROR(SaveRemapTable());
    c_.remaps->Increment();
    return OkStatus();
  }
  NoteUnrepairable("spare pool exhausted remapping name-table home lba " +
                   std::to_string(from));
  return MakeError(ErrorCode::kNoFreeSpace,
                   "name-table spare pool exhausted");
}

Status Fsd::RetryHomeWrite(sim::Lba lba, std::span<const std::uint8_t> image) {
  const Status status = disk_->Write(lba, image);
  if (status.ok() || status.code() == ErrorCode::kDeviceCrashed) {
    return status;
  }
  if (IsNtHome(lba)) {
    return RemapNtSector(lba, image);
  }
  // A spare serving a remapped home can itself go bad; move the mapping.
  if (const std::optional<sim::Lba> original = RemapOrigin(lba)) {
    return RemapNtSector(*original, image);
  }
  // A leader page: reconstructible from its name-table entry, so the loss
  // degrades reads (served via RepairLeader / the entry) but never the
  // namespace. Attribute it and keep going.
  NoteUnrepairable("unwritable sector at lba " + std::to_string(lba) + ": " +
                   status.message());
  return OkStatus();
}

Status Fsd::RepairNtCopy(sim::Lba home, std::span<const std::uint8_t> image) {
  if (degraded_.load(std::memory_order_relaxed)) {
    return OkStatus();  // reads keep serving the surviving copy
  }
  const Status wrote = disk_->Write(MapNt(home), image);
  if (wrote.ok()) {
    c_.nt_repairs->Increment();
    c_.repairs->Increment();
    return OkStatus();
  }
  if (wrote.code() == ErrorCode::kDeviceCrashed) {
    return wrote;
  }
  const Status remapped = RemapNtSector(home, image);
  if (remapped.code() == ErrorCode::kDeviceCrashed) {
    return remapped;
  }
  // Remap exhaustion was already attributed; the page still has one good
  // copy, so the read succeeds either way.
  return OkStatus();
}

Status Fsd::SaveRemapTable() {
  std::vector<std::pair<sim::Lba, sim::Lba>> entries;
  {
    std::lock_guard<std::mutex> lock(remap_mu_);
    entries.assign(nt_remap_.begin(), nt_remap_.end());
  }
  ByteWriter w;
  w.U32(kRemapMagic);
  w.U32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [from, to] : entries) {
    // Wire stays 32-bit: volume LBAs are bounded to 2^31 by FsdLayout.
    w.U32(static_cast<std::uint32_t>(from));
    w.U32(static_cast<std::uint32_t>(to));
  }
  std::vector<std::uint8_t> dir = w.Take();
  const std::uint32_t crc = Crc32(dir);
  ByteWriter tail(&dir);
  tail.U32(crc);
  dir.resize(512, 0);
  // Two directory copies; losing one is survivable, losing both means the
  // table cannot be made durable (in-memory mappings still serve reads).
  Status first;
  bool any_ok = false;
  for (std::uint32_t copy = 0; copy < FsdLayout::kRemapDirCopies; ++copy) {
    const Status wrote = disk_->Write(layout_.remap_base + copy, dir);
    if (wrote.code() == ErrorCode::kDeviceCrashed) {
      return wrote;
    }
    if (wrote.ok()) {
      any_ok = true;
    } else if (first.ok()) {
      first = wrote;
    }
  }
  if (any_ok) {
    return OkStatus();
  }
  NoteUnrepairable("remap directory unwritable: " + first.message());
  return first;
}

Status Fsd::LoadRemapTable() {
  {
    std::lock_guard<std::mutex> lock(remap_mu_);
    nt_remap_.clear();
  }
  bool damage_seen = false;
  for (std::uint32_t copy = 0; copy < FsdLayout::kRemapDirCopies; ++copy) {
    std::vector<std::uint8_t> dir(512);
    std::vector<std::uint32_t> bad;
    const Status read = ReadWithRetry(layout_.remap_base + copy, dir, &bad);
    if (read.code() == ErrorCode::kDeviceCrashed) {
      return read;
    }
    if (!read.ok() || !bad.empty()) {
      damage_seen = true;
      continue;
    }
    ByteReader r(dir);
    if (r.U32() != kRemapMagic) {
      continue;  // a fresh volume formatted before the table existed
    }
    const std::uint32_t count = r.U32();
    if (count > (512 - 12) / 8) {
      damage_seen = true;
      continue;
    }
    std::map<sim::Lba, sim::Lba> parsed;
    for (std::uint32_t i = 0; i < count; ++i) {
      const sim::Lba from = r.U32();
      const sim::Lba to = r.U32();
      parsed[from] = to;
    }
    if (!r.ok()) {
      damage_seen = true;
      continue;
    }
    const std::size_t body = r.position();
    ByteReader cr(std::span<const std::uint8_t>(dir).subspan(body, 4));
    if (cr.U32() != Crc32(std::span<const std::uint8_t>(dir).subspan(0,
                                                                     body))) {
      damage_seen = true;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(remap_mu_);
      nt_remap_ = std::move(parsed);
    }
    if (copy != 0 && !degraded_.load(std::memory_order_relaxed)) {
      // Copy 0 was lost or stale; refresh it from the survivor.
      if (disk_->Write(layout_.remap_base, dir).ok()) {
        c_.repairs->Increment();
      }
    }
    return OkStatus();
  }
  // No valid directory. An empty table is the common (undamaged) case; only
  // note when we actually saw damage — mappings may exist that we cannot
  // recover, and reads through dead originals will surface per page.
  if (damage_seen) {
    NoteUnrepairable("remap directory unreadable (both copies)");
  }
  return OkStatus();
}

void Fsd::NoteUnrepairable(const std::string& note) {
  std::lock_guard<std::mutex> lock(health_mu_);
  health_notes_.push_back(note);
  ++unrepairable_;
}

void Fsd::NoteLostNtPage(std::uint32_t pid) {
  std::lock_guard<std::mutex> lock(health_mu_);
  health_notes_.push_back("name-table page " + std::to_string(pid) +
                          ": both home copies unreadable");
  ++nt_pages_lost_;
  ++unrepairable_;
}

fs::HealthStats Fsd::Health() {
  fs::HealthStats h;
  h.degraded = degraded_.load(std::memory_order_relaxed);
  h.repairs = c_.repairs->value();
  h.remaps = c_.remaps->value();
  h.corruption_detected = c_.corruption_detected->value();
  h.read_retry_exhausted = c_.read_retry_exhausted->value();
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    h.nt_pages_lost = nt_pages_lost_;
    h.unrepairable = unrepairable_;
    h.notes = health_notes_;
  }
  return h;
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
  {
    util::RankedLockGuard lock(pending_mu_, util::LockRank::kPending);
    tombstones.swap(pending_tombstones_);
    alloc_deltas.swap(pending_alloc_deltas_);
    free_deltas.swap(pending_free_deltas_);
  }
  Vam::Shadow shadow;
  {
    util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
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
      page.primary = MapNt(layout_.nta_base + key);
      page.secondary = MapNt(layout_.ntb_base + key);
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
  // group (rare — the default group holds log_group_records records) split
  // into maximal groups; the delta ordering above bounds the damage of a
  // between-groups crash to leaked sectors.
  const std::size_t group_pages = std::min<std::size_t>(
      static_cast<std::size_t>(
          std::max<std::uint32_t>(1, config_.commit.group_records)) *
          FsdLog::kMaxPagesPerRecord,
      log_->MaxGroupPages());
  Status status = OkStatus();
  std::size_t logged_upto = 0;
  while (logged_upto < images.size()) {
    const std::size_t n = std::min(group_pages, images.size() - logged_upto);
    Result<std::uint64_t> lsn = log_->AppendGroup(
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
      util::RankedLockGuard lock(pending_mu_, util::LockRank::kPending);
      pending_tombstones_.insert(pending_tombstones_.begin(),
                                 tombstones.begin(), tombstones.end());
      pending_alloc_deltas_.insert(pending_alloc_deltas_.begin(),
                                   alloc_deltas.begin(), alloc_deltas.end());
      pending_free_deltas_.insert(pending_free_deltas_.begin(),
                                  free_deltas.begin(), free_deltas.end());
    }
    gate_.NotePendingCapture(
        tombstones.size() +
        (alloc_deltas.size() + kVamDeltasPerPage - 1) / kVamDeltasPerPage +
        (free_deltas.size() + kVamDeltasPerPage - 1) / kVamDeltasPerPage);
    {
      util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
      vam_.MergeShadow(shadow);
    }
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
  if (log_->LiveSectors() > CheckpointWindowSectors()) {
    ckpt_rounds_.Request();
  }
  return OkStatus();
}

Status Fsd::MaybeDeadlineForce(std::uint64_t* ticket) {
  if (!mounted_ || degraded_.load(std::memory_order_relaxed)) {
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
    return log_->third_sectors();  // what third entry alone would allow
  }
  return std::min(window, log_->record_area_sectors());
}

void Fsd::CkptRound() {
  util::RankedLockGuard lock(force_mu_, util::LockRank::kForce);
  if (!mounted_ || degraded_.load(std::memory_order_relaxed)) {
    return;
  }
  const std::uint32_t window = CheckpointWindowSectors();
  // Drain to half the window, not to the edge, so hot pages keep absorbing
  // re-dirties between rounds instead of going home after every force.
  for (;;) {
    const std::uint32_t live = log_->LiveSectors();
    if (live <= window) {
      break;
    }
    const std::uint64_t target = log_->CheckpointTarget(window / 2);
    if (target == 0 || !CheckpointTo(target, Checkpointer::kCheckpoint).ok()) {
      break;
    }
    if (log_->LiveSectors() >= live) {
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
    victims.push_back(
        Victim{.key = key, .lsn = frame.logged_lsn, .image = frame.logged_image});
  });
  std::vector<HomeImage> homes;
  for (const Victim& victim : victims) {
    homes.push_back(HomeImage{.key = victim.key, .image = victim.image});
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
  const std::size_t chunk =
      third_entry ? std::max<std::size_t>(1, victims.size())
                  : std::max<std::uint32_t>(1, config_.checkpoint.batch_pages);
  for (std::size_t begin = 0; begin < victims.size(); begin += chunk) {
    const std::size_t n = std::min(chunk, victims.size() - begin);
    CEDAR_RETURN_IF_ERROR(
        SweepHome(std::span<const HomeImage>(homes).subspan(begin, n)));
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
                                    log_->next_lsn()));
  }
  if (third_entry) {
    return OkStatus();  // the log writes the pointer past the third
  }
  // Only after every home write above is on disk does the oldest-record
  // pointer advance (a separate, later disk write) — a crash at any point
  // replays from a pointer that still covers whatever was not yet home.
  CEDAR_ASSIGN_OR_RETURN(const std::uint32_t dropped,
                         log_->AdvanceCheckpoint(target));
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
  const std::uint64_t target = log_->CheckpointTarget(0);
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
  return static_cast<std::uint64_t>(log_->LiveSectors()) * 512;
}

fs::MaintenanceStats Fsd::Maintenance() {
  fs::MaintenanceStats m;
  {
    util::RankedLockGuard lock(force_mu_, util::LockRank::kForce);
    m.log_live_bytes = static_cast<std::uint64_t>(log_->LiveSectors()) * 512;
    m.recovery_window_bytes =
        static_cast<std::uint64_t>(CheckpointWindowSectors()) * 512;
  }
  m.log_capacity_bytes =
      static_cast<std::uint64_t>(log_->record_area_sectors()) * 512;
  m.checkpoint_batches = c_.ckpt_batches->value();
  m.checkpoint_pages = c_.ckpt_pages->value();
  m.checkpoint_advances = c_.ckpt_advances->value();
  m.third_flush_fallbacks = c_.third_flush_fallbacks->value();
  return m;
}

Status Fsd::RunQuiesced(const std::function<Status()>& fn) {
  ScopedQuiesce quiesce(this);
  return fn();
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
  if (degraded_.load(std::memory_order_relaxed)) {
    // Degraded mounts are read-only: nothing to flush and the medium must
    // not be written. Tear down the volatile state only; degraded_ stays
    // set until the next Format/Mount resets it.
    open_files_.clear();
    mounted_ = false;
    return OkStatus();
  }
  CEDAR_RETURN_IF_ERROR(ForceLogImpl(GateMode::kAlreadyClosed));
  // Write every dirty page home (the force above made cache contents equal
  // to the last logged images): all primaries in one elevator sweep, then
  // all replicas.
  std::vector<HomeImage> dirty;
  cache_.ForEach([&](std::uint32_t key, cache::Frame& frame) {
    if (frame.dirty) {
      dirty.push_back(HomeImage{.key = key, .image = frame.data});
    }
  });
  CEDAR_RETURN_IF_ERROR(SweepHome(dirty));
  cache_.ForEach([](std::uint32_t, cache::Frame& frame) {
    frame.dirty = false;
    frame.logged_lsn = 0;
    frame.logged_image.clear();
  });
  CEDAR_RETURN_IF_ERROR(vam_.Save(disk_, layout_.vam_base,
                                  layout_.vam_sectors, boot_count_,
                                  log_->next_lsn()));
  CEDAR_RETURN_IF_ERROR(WriteVolumeRoot(/*clean=*/true));
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
  std::optional<std::pair<std::uint32_t, FsdEntry>> best;
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
          best = {version, std::move(entry)};
        }
        return true;
      });
  CEDAR_RETURN_IF_ERROR(scan);
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

Result<std::vector<fs::Extent>> Fsd::MapPages(const FsdEntry& entry,
                                              std::uint32_t first_page,
                                              std::uint32_t count) const {
  std::vector<fs::Extent> out;
  std::uint32_t page = 0;
  std::uint32_t need = first_page;
  std::uint32_t remaining = count;
  for (const fs::Extent& run : entry.runs) {
    if (remaining == 0) {
      break;
    }
    if (need < page + run.count) {
      const std::uint32_t skip = need > page ? need - page : 0;
      const std::uint32_t take = std::min(run.count - skip, remaining);
      out.push_back(fs::Extent{.start = run.start + skip, .count = take});
      remaining -= take;
      need += take;
    }
    page += run.count;
  }
  if (remaining != 0) {
    return MakeError(ErrorCode::kOutOfRange, "page range beyond file");
  }
  return out;
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
                std::initializer_list<std::string_view> names, bool credit,
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
    auto r = body();
    if (credit && r.ok()) {
      for (std::size_t i = 0; i < nshards; ++i) {
        shard_ops_[shards[i]].fetch_add(1, std::memory_order_relaxed);
      }
    }
    return r;
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
  return RunOp("fsd.create", h_.create, {name}, /*credit=*/true,
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

  Result<std::vector<fs::Extent>> allocated = [&] {
    util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
    return allocator_->Allocate(1 + npages);
  }();
  CEDAR_ASSIGN_OR_RETURN(std::vector<fs::Extent> extents,
                         std::move(allocated));
  for (const fs::Extent& run : extents) {
    RecordDelta(VamDelta::Op::kAlloc, run.start, run.count);
  }
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
  return RunOp("fsd.open", h_.open, {name}, /*credit=*/false,
               [&] { return OpenLocked(name); });
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
  return RunOp("fsd.read", h_.read, {state.name}, /*credit=*/false,
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
                         MapPages(entry, first_page, count));

  std::vector<std::uint8_t> buf(static_cast<std::size_t>(count) * 512);
  // File data has no redundancy by design (the paper logs only metadata),
  // so a damaged data sector is an attributed loss — named LBA, hard error,
  // never silently wrong bytes.
  auto read_data = [&](sim::Lba start, std::span<std::uint8_t> dst) {
    std::vector<std::uint32_t> bad;
    CEDAR_RETURN_IF_ERROR(ReadWithRetry(start, dst, &bad));
    if (!bad.empty()) {
      return MakeError(ErrorCode::kSectorDamaged,
                       "file data sector damaged, lba " +
                           std::to_string(start + bad.front()));
    }
    return OkStatus();
  };
  std::size_t pos = 0;
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
        CEDAR_RETURN_IF_ERROR(read_data(
            run.start,
            std::span<std::uint8_t>(buf.data() + pos,
                                    static_cast<std::size_t>(run.count) *
                                        512)));
      } else {
        // One request covering leader + data (section 5.7: "it usually
        // costs only the transfer time for a page to read the leader").
        std::vector<std::uint8_t> tmp(
            static_cast<std::size_t>(1 + run.count) * 512);
        std::vector<std::uint32_t> bad;
        CEDAR_RETURN_IF_ERROR(ReadWithRetry(entry.leader_lba, tmp, &bad));
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
            c_.corruption_detected->Increment();
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
          CEDAR_RETURN_IF_ERROR(read_data(
              run.start,
              std::span<std::uint8_t>(buf.data() + pos,
                                      static_cast<std::size_t>(run.count) *
                                          512)));
        }
        c_.piggyback_leader_verifies->Increment();
      }
      MarkLeaderVerified(file.uid);
      ChargeDataSectors(1 + run.count);
    } else {
      CEDAR_RETURN_IF_ERROR(read_data(
          run.start,
          std::span<std::uint8_t>(buf.data() + pos,
                                  static_cast<std::size_t>(run.count) * 512)));
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
  return RunOp("fsd.write", h_.write, {state.name}, /*credit=*/false,
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
                         MapPages(entry, first_page, count));

  // Read-modify-write for unaligned edges.
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(count) * 512);
  const bool aligned = (offset % 512 == 0) && (data.size() % 512 == 0);
  if (!aligned) {
    std::size_t pos = 0;
    for (const fs::Extent& run : extents) {
      CEDAR_RETURN_IF_ERROR(ReadWithRetry(
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
  return RunOp("fsd.extend", h_.extend, {state.name}, /*credit=*/true,
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
    if (entry.runs.size() > RunAllocator::kMaxRuns) {
      util::RankedLockGuard lock(alloc_mu_, util::LockRank::kAlloc);
      allocator_->Release(extents);
      return MakeError(ErrorCode::kNoFreeSpace,
                       "file too fragmented to extend");
    }
    for (const fs::Extent& run : extents) {
      RecordDelta(VamDelta::Op::kAlloc, run.start, run.count);
    }
    if (move_leader) {  // free the old leader as a delete would
      vam_.MarkFreeShadow(fs::Extent{.start = old_leader, .count = 1});
      RecordDelta(VamDelta::Op::kFree, old_leader, 1);
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
    util::RankedLockGuard lock(pending_mu_, util::LockRank::kPending);
    pending_tombstones_.push_back(kLeaderKeyBit | lba);
  }
  gate_.NotePendingCapture(1);
}

Status Fsd::DeleteVersion(std::string_view name, std::uint32_t version,
                          const FsdEntry& entry) {
  // Pages are not really free until the delete commits (section 5.5): park
  // them in the shadow map. The bookkeeping is pure CPU, proportional to
  // the file size.
  std::uint64_t freed = 1;
  vam_.MarkFreeShadow(fs::Extent{.start = entry.leader_lba, .count = 1});
  RecordDelta(VamDelta::Op::kFree, entry.leader_lba, 1);
  for (const fs::Extent& run : entry.runs) {
    vam_.MarkFreeShadow(run);
    RecordDelta(VamDelta::Op::kFree, run.start, run.count);
    freed += run.count;
  }
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
  return RunOp("fsd.delete", h_.del, {name}, /*credit=*/true,
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
  return RunOp("fsd.setkeep", h_.setkeep, {name}, /*credit=*/true,
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
  return RunOp("fsd.list", h_.list, {}, /*credit=*/false,
               [&] { return ListLocked(prefix); });
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
          out.push_back(fs::FileInfo{.name = std::move(name),
                                     .version = version,
                                     .uid = entry.uid,
                                     .byte_size = entry.byte_size,
                                     .create_time = entry.create_time,
                                     .last_used = entry.last_used,
                                     .keep = entry.keep});
        }
        return true;
      });
  CEDAR_RETURN_IF_ERROR(scan);
  return out;
}

Status Fsd::Touch(std::string_view name) {
  return RunOp("fsd.touch", h_.touch, {name}, /*credit=*/true,
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

  // Pass 0: name-table media patrol (section 4h). Every live tree page has
  // two home copies; read both (through the remap table), validate the CRC
  // trailers, and settle any disagreement from the newest valid copy — the
  // scrub is where latent faults are found BEFORE a second fault makes the
  // page unrecoverable.
  {
    std::vector<btree::PageId> live;
    CEDAR_RETURN_IF_ERROR(tree_->CollectPages(&live));
    for (btree::PageId pid : live) {
      std::array<std::array<std::uint8_t, 512>, 2> copy{};
      std::array<bool, 2> readable{};
      for (int c = 0; c < 2; ++c) {
        const sim::Lba base = c == 0 ? layout_.nta_base : layout_.ntb_base;
        std::vector<std::uint32_t> bad;
        const Status read = ReadWithRetry(MapNt(base + pid), copy[c], &bad);
        if (read.code() == ErrorCode::kDeviceCrashed) {
          return read;
        }
        readable[c] = read.ok() && bad.empty();
      }
      ChargeSectors(2);
      const NtVote vote =
          VoteNtCopies(copy[0], readable[0], copy[1], readable[1],
                       /*read_b=*/true, c_.corruption_detected);
      if (!vote.any()) {
        NoteLostNtPage(pid);
        ++report.unrepairable;
        c_.scrub_unrepairable->Increment();
        continue;
      }
      if (!vote.diverged) {
        continue;
      }
      const std::uint64_t remaps_before = c_.remaps->value();
      const Status fixed = RetryHomeWrite(MapNt(NtLoserHome(vote, pid)),
                                          copy[vote.b_wins ? 1 : 0]);
      if (fixed.code() == ErrorCode::kDeviceCrashed) {
        return fixed;
      }
      if (!fixed.ok()) {
        // Spare pool exhausted: the page still has one good copy, but the
        // redundancy cannot be restored.
        ++report.unrepairable;
        c_.scrub_unrepairable->Increment();
      } else if (c_.remaps->value() > remaps_before) {
        ++report.remapped;
      } else {
        ++report.healed;
        c_.scrub_healed->Increment();
        c_.nt_repairs->Increment();
        c_.repairs->Increment();
      }
    }
  }

  // Pass 1: walk every entry, verify its leader, and accumulate the set of
  // sectors the name table actually references.
  Bitmap referenced(disk_->geometry().TotalSectors(), false);
  struct Damaged {
    std::string name;
    std::uint32_t version;
    FsdEntry entry;
  };
  std::vector<Damaged> stale_leaders;
  Status scan = tree_->Scan({}, [&](std::span<const std::uint8_t> key,
                                    std::span<const std::uint8_t> value) {
    std::string name;
    std::uint32_t version = 0;
    FsdEntry entry;
    if (!fs::DecodeNameKey(key, &name, &version) ||
        !ParseEntry(value, &entry).ok()) {
      return true;
    }
    ++report.files_checked;
    referenced.Set(entry.leader_lba, true);
    for (const fs::Extent& run : entry.runs) {
      referenced.SetRange(run.start, run.count, true);
    }
    // Leader check: prefer the buffered copy if one is pending.
    std::vector<std::uint8_t> sector(512);
    bool ok;
    if (cache::Frame* frame = cache_.Find(kLeaderKeyBit | entry.leader_lba);
        frame != nullptr && frame->dirty) {
      ok = VerifyLeader(frame->data, entry, version).ok();
    } else {
      std::vector<std::uint32_t> bad;
      ok = ReadWithRetry(entry.leader_lba, sector, &bad).ok() &&
           bad.empty() && VerifyLeader(sector, entry, version).ok();
      ChargeSectors(1);
    }
    if (!ok) {
      stale_leaders.push_back(Damaged{.name = std::move(name),
                                      .version = version,
                                      .entry = std::move(entry)});
    }
    return true;
  });
  CEDAR_RETURN_IF_ERROR(scan);

  // Repair stale leaders from the authoritative name-table entries, one
  // write each so a bad leader sector fails (and is attributed) alone
  // instead of sinking a whole elevator batch.
  for (const Damaged& damaged : stale_leaders) {
    const Status repaired = RepairLeader(damaged.entry, damaged.version);
    if (repaired.code() == ErrorCode::kDeviceCrashed) {
      return repaired;
    }
    if (repaired.ok()) {
      ++report.leaders_repaired;
      ++report.healed;
      c_.scrub_healed->Increment();
    } else {
      ++report.unrepairable;
      c_.scrub_unrepairable->Increment();
    }
  }

  // Pass 2: reconcile the VAM. A data sector is leaked if it is marked
  // used but nothing references it; it is missing-used (a latent double
  // allocation) if referenced but marked free.
  // The layout bounds a volume to 2^31 sectors, so an LBA fits an Extent.
  for (auto lba = static_cast<std::uint32_t>(layout_.data_low);
       lba < layout_.data_high; ++lba) {
    if (lba >= layout_.ntb_base && lba < layout_.nta_end) {
      continue;  // the central metadata complex is not file space
    }
    const bool used = !vam_.IsFree(lba);
    if (used && !referenced.Get(lba)) {
      vam_.MarkFree(fs::Extent{.start = lba, .count = 1});
      RecordDelta(VamDelta::Op::kFree, lba, 1);
      ++report.leaked_sectors_reclaimed;
    } else if (!used && referenced.Get(lba)) {
      vam_.MarkUsed(fs::Extent{.start = lba, .count = 1});
      RecordDelta(VamDelta::Op::kAlloc, lba, 1);
      ++report.missing_used_sectors_fixed;
    }
  }

  // Pass 3: reconcile the name-table page map against the live tree.
  std::vector<btree::PageId> pages;
  CEDAR_RETURN_IF_ERROR(tree_->CollectPages(&pages));
  Bitmap nt_used(config_.nt_pages, false);
  for (btree::PageId pid : pages) {
    nt_used.Set(pid, true);
  }
  for (std::uint32_t pid = 0; pid < config_.nt_pages; ++pid) {
    const bool used = !vam_.nt_free().Get(pid);
    if (used != nt_used.Get(pid)) {
      vam_.nt_free().Set(pid, !nt_used.Get(pid));
      RecordDelta(nt_used.Get(pid) ? VamDelta::Op::kNtAlloc
                                   : VamDelta::Op::kNtFree,
                  pid, 1);
      ++report.nt_pages_reconciled;
    }
  }

  // Make the reconciliation durable.
  CEDAR_RETURN_IF_ERROR(ForceLogImpl(GateMode::kAlreadyClosed));
  return report;
}

Result<fs::FileInfo> Fsd::Stat(std::string_view name) {
  ChargeOp();
  // Pure name-table read: shard lock orders it against same-name mutators;
  // no gate admission (it writes nothing the log must capture).
  util::RankedLockGuard shard(NameShard(name), util::LockRank::kNameShard);
  return StatLocked(name);
}

Status Fsd::Rename(std::string_view from, std::string_view to) {
  return RunOp("fsd.rename", /*latency=*/nullptr, {from, to}, /*credit=*/true,
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
  return fs::FileInfo{.name = std::string(name),
                      .version = version,
                      .uid = entry.uid,
                      .byte_size = entry.byte_size,
                      .create_time = entry.create_time,
                      .last_used = entry.last_used,
                      .keep = entry.keep};
}

}  // namespace cedar::core
