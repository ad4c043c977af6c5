// FSD — "FS for Dragon" — the paper's reimplemented Cedar file system.
//
// The pieces, and where each lives:
//   - File name table: a B-tree of 512-byte pages holding name!version ->
//     {uid, run table, properties} (src/core/name_table.h). Every tree page
//     is double-written: a primary copy near the central cylinder and a
//     replica on distant cylinders with independent failure modes.
//   - Redo log (src/core/log.h): physical page images of name-table pages
//     and leader pages, written in duplicated records, circular thirds.
//   - Group commit: metadata updates dirty cached pages only; the log is
//     forced every half virtual second (or by an explicit client Force()),
//     batching all updates since the last force into one log write.
//   - VAM (src/core/vam.h): volatile free map + shadow map for uncommitted
//     deletes; saved only at orderly shutdown, rebuilt from the name table
//     after a crash.
//   - Allocator (src/core/allocator.h): big/small split, leader-adjacent
//     runs.
//   - Leader pages: one sector before data page 0, software cross-check
//     only, verified by piggybacking on the first data access.
//
// Operation costs in the normal case (the paper's headline):
//   create  = ONE synchronous I/O (leader + data in a single write)
//   open    = no I/O (name table cached)
//   delete  = no I/O (shadow free + cached tree update)
//   list    = no I/O (properties live in the name table)
//   touch   = no I/O (hot-spot absorbed by group commit)
// Crash recovery = read the log, rewrite the logged pages (a second or
// two), plus a name-table scan to rebuild the VAM (~20 s).

#ifndef CEDAR_CORE_FSD_H_
#define CEDAR_CORE_FSD_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/btree/btree.h"
#include "src/btree/page_store.h"
#include "src/cache/page_cache.h"
#include "src/core/allocator.h"
#include "src/core/layout.h"
#include "src/core/log.h"
#include "src/core/name_table.h"
#include "src/core/opgate.h"
#include "src/core/rounds.h"
#include "src/core/vam.h"
#include "src/fsapi/file_system.h"
#include "src/obs/metrics.h"
#include "src/sim/device.h"
#include "src/sim/scheduler.h"
#include "src/util/lockrank.h"

namespace cedar::core {

// One finding from Fsd::Fsck(). Warnings are conditions the system repairs
// in the normal course of operation (a stale leader, a leaked sector, a
// replica divergence with a readable primary); violations are states that
// can lose or corrupt data (both copies of a live page unreadable, a
// referenced sector marked free, a structurally broken tree).
struct FsckIssue {
  enum class Severity : std::uint8_t { kWarning = 0, kViolation = 1 };
  Severity severity = Severity::kWarning;
  // Machine-readable class, e.g. "nt-both-copies-bad", "vam-referenced-free".
  std::string code;
  std::string detail;
};

struct FsckReport {
  std::uint64_t files_checked = 0;
  std::uint64_t nt_pages_checked = 0;
  std::uint64_t leaders_checked = 0;
  std::vector<FsckIssue> issues;

  std::uint64_t violations() const {
    std::uint64_t n = 0;
    for (const FsckIssue& issue : issues) {
      if (issue.severity == FsckIssue::Severity::kViolation) {
        ++n;
      }
    }
    return n;
  }
  std::uint64_t warnings() const {
    return issues.size() - static_cast<std::size_t>(violations());
  }
  // No violations (warnings are allowed — they are self-healing states).
  bool Clean() const { return violations() == 0; }
  std::string Summary() const;
};

// Thread safety (DESIGN.md section 4f): every public operation is safe to
// call from any number of client threads, and operations on names in
// different shards run in parallel — there is no global operation lock.
//
// The protocol, in acquisition order (ranks in src/util/lockrank.h):
//   1. Shard lock(s): a name-keyed op takes the shard mutex for its name;
//      cross-name ops (Rename) take both shards in index order.
//   2. Admission through the OpGate: a begin_op/end_op-style reservation
//      that admits ops while the log can still absorb their dirty pages in
//      one force, and drains them when a force captures. An op that cannot
//      be admitted forces (or waits for) the log first — the analogue of
//      the paper's "force the log when the group is full".
//   3. Inside the gate, shared structures use their own fine-grained locks:
//      the B-tree's reader/writer lock + leaf latches, the cache's internal
//      mutex (closure-based access only on concurrent paths), alloc_mu_ for
//      the VAM bitmaps + allocator, pending_mu_ for the tombstone/delta
//      queues, open_mu_ for the open-file table.
//
// A log force (a commit round, or a quiesced lifecycle force) runs
// under force_mu_ and splits into two phases: a short CAPTURE with the gate
// closed (copy dirty images, swap pending queues, take the delete shadow —
// a consistent prefix of the update history), then the long APPEND with the
// gate reopened, so mutators overlap the log write. Clients needing
// durability wait on the CommitQueue holding no lock a round takes, so a
// round in flight commits every waiter it covers with a single log write
// (group commit, paper section 3.2). Fsck/Scrub/lifecycle ops quiesce:
// they hold force_mu_ and close the gate for their whole run.
class Fsd : public fs::FileSystem {
 public:
  explicit Fsd(sim::BlockDevice* disk, FsdConfig config = {});
  ~Fsd() override;

  // Initializes an empty volume and leaves it mounted.
  Status Format();

  // Attaches to a volume. After a crash this runs log recovery (replaying
  // page images to both name-table copies) and reconstructs the VAM from
  // the name table; after a clean shutdown it loads the saved VAM.
  Status Mount();

  // Degraded read-only mount (DESIGN.md section 4h): the fallback when
  // Mount() fails because media damage exceeds what the A/B redundancy and
  // the remap table can absorb. Replayed log images and whatever home
  // copies still validate are served from the cache; NOTHING is written to
  // the disk (no root update, no repairs, no log format), so the medium is
  // preserved for offline salvage. Every mutating operation (and Force)
  // fails with kFailedPrecondition; reads succeed where at least one good
  // copy of the metadata survives and fail with attribution elsewhere.
  // Health() reports what was lost.
  Status MountDegraded();

  // fs::FileSystem:
  Result<fs::FileUid> CreateFile(std::string_view name,
                                 std::span<const std::uint8_t> contents) override;
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
  Status Force() override;     // client log force
  Status Shutdown() override;  // force, flush home, save VAM, mark clean
  const obs::MetricsRegistry& Metrics() const override { return metrics_; }

  // Maintenance surface (fs::FileSystem): Checkpoint() runs one synchronous
  // maximal checkpoint round (flush the pages backing every droppable log
  // record, then advance the persisted pointer up to the newest commit
  // group); RecoveryWindow() reports the live log in bytes — what a
  // crash-now mount would replay; Maintenance() snapshots the checkpoint
  // counters. All three are safe from any thread.
  Status Checkpoint() override;
  Result<std::uint64_t> RecoveryWindow() override;
  fs::MaintenanceStats Maintenance() override;

  // Media-health snapshot: the fault counters plus degraded-mount state and
  // per-find attribution notes. Safe from any thread.
  fs::HealthStats Health() override;

  // Moves the highest version of `from` to `to` (becoming to's next
  // version); the uid is unchanged, so open handles keep working. Takes
  // both name shards in index order — the one cross-shard operation.
  Status Rename(std::string_view from, std::string_view to) override;

  // Drives the half-second group-commit timer; benchmarks and tests call
  // this after advancing virtual time (every public op also checks).
  Status Tick();

  // Properties of the highest version (no I/O when the tree is cached).
  Result<fs::FileInfo> Stat(std::string_view name);

  // Online consistency scrub: verifies every file's leader page against its
  // name-table entry (repairing stale leaders from the authoritative
  // entry), and reconciles the VAM against the name table — reclaiming
  // leaked sectors (e.g. from a force torn between an allocation delta and
  // its tree pages under VAM logging) and re-marking any sector a file
  // references. The mutual-checking discipline of section 5.8, packaged as
  // a maintenance operation instead of CFS's offline scavenge.
  struct ScrubReport {
    std::uint64_t files_checked = 0;
    std::uint64_t leaders_repaired = 0;
    std::uint64_t leaked_sectors_reclaimed = 0;
    std::uint64_t missing_used_sectors_fixed = 0;
    std::uint64_t nt_pages_reconciled = 0;
    // Latent-error patrol outcomes (section 4h): healed counts every repair
    // the pass completed (leader rebuilds that reached the disk plus
    // name-table copies re-written from the surviving copy), remapped the
    // name-table home sectors moved to spares because the rewrite hit a
    // permanently bad sector, unrepairable the damage no redundancy covered
    // (e.g. a leader whose home sector cannot be written — the entry stays
    // authoritative, but the on-disk leader is gone for good).
    std::uint64_t healed = 0;
    std::uint64_t remapped = 0;
    std::uint64_t unrepairable = 0;
  };
  Result<ScrubReport> Scrub();

  // Read-only fsck-style invariant checker (src/core/fsck.cc): verifies the
  // name-table A/B copies agree or are repairable, the tree is structurally
  // sound, every entry's leader cross-checks, the VAM covers exactly the
  // reachable sectors (modulo repairable leaks), and the log's on-disk
  // pointer is well-formed. Mutates nothing — the crash harness runs it
  // after every enumerated recovery and treats violations as failures.
  // Quiesces in-flight operations for its duration (no global lock to
  // take — it drains the op gate like a capture does).
  Result<FsckReport> Fsck();

  // Runs `fn` with the file system quiesced: force_mu_ held and the op gate
  // closed for the whole call — the same exclusive view Format/Mount/
  // Shutdown/Fsck/Scrub get. Re-entrant per the ScopedQuiesce contract:
  // calling RunQuiesced from inside a quiesced section on the same thread
  // nests (the inner call runs under the existing quiesce; the gate reopens
  // only when the outermost scope exits). Commit and checkpoint rounds are
  // blocked, not stopped, for the duration.
  Status RunQuiesced(const std::function<Status()>& fn);

  // Name-shard geometry, exposed so benches and tests can construct
  // shard-disjoint (or deliberately colliding) name sets.
  static constexpr std::size_t kNameShardCount = 16;
  static std::size_t ShardOf(std::string_view name) {
    return std::hash<std::string_view>{}(name) % kNameShardCount;
  }
  // Completed name-keyed operations per shard (monotonic, relaxed reads;
  // tests use this to prove shard-parallel ops all ran).
  std::uint64_t ShardOpCount(std::size_t shard) const {
    return shard_ops_[shard].load(std::memory_order_relaxed);
  }

  const FsdLayout& layout() const { return layout_; }
  const FsdConfig& config() const { return config_; }
  std::uint32_t FreeSectors() const;
  // Whether the allocation map marks `lba` used (by a file, or as part of
  // a system region).
  bool SectorInUse(sim::Lba lba) const;
  std::uint32_t ShadowSectors() const;
  bool HasPendingUpdates() const;
  Status CheckNameTableInvariants() { return tree_->CheckInvariants(); }

  // Cache keys: name-table pages use their PageId; leader pages use their
  // LBA with the top bit set.
  static constexpr std::uint32_t kLeaderKeyBit = 0x80000000u;

  // Bounded retry for soft (transient) read errors: ReadWithRetry reissues
  // a kReadTransient read up to this many times (each counted in
  // fsd.read_retries) before it surfaces the error.
  static constexpr std::uint32_t kReadRetryLimit = 3;

  // The one election between a name-table page's two home copies (DESIGN.md
  // section 4h), shared by the miss path, the mount sweep, scrub and fsck.
  // `a` is the primary's sector and `b` the replica's; readable_* says the
  // device returned the sector; read_b is false when the caller never read
  // the replica. A copy is ok when readable with a valid CRC trailer. The
  // winner is the ok copy with the higher write sequence, the primary on a
  // tie; seq is the higher ok sequence (for the clock's max-merge), and
  // diverged says the replica was read and the loser must be rewritten
  // from the winner. A readable copy whose CRC fails while the other copy
  // is ok is silent corruption caught, counted in *corruption (when
  // non-null).
  struct NtVote {
    bool ok_a = false;
    bool ok_b = false;
    bool b_wins = false;
    std::uint32_t seq = 0;
    bool diverged = false;
    bool any() const { return ok_a || ok_b; }
  };
  static NtVote VoteNtCopies(std::span<const std::uint8_t> a, bool readable_a,
                             std::span<const std::uint8_t> b, bool readable_b,
                             bool read_b, obs::Counter* corruption);

  // The page cache's classifier: a name-table frame holding a B-tree
  // interior node. Leader frames are never interior, whatever their bytes.
  static bool IsInteriorFrame(std::uint32_t key,
                              std::span<const std::uint8_t> data);

 protected:
  // As the public constructor, with the page cache's interior classifier
  // given explicitly; nullptr classes every frame a leaf (plain LRU), which
  // lets a test measure the same volume under both victim orders.
  Fsd(sim::BlockDevice* disk, FsdConfig config,
      cache::PageCache::Classifier interior);

 private:
  class NtStore;
  class NtImageStore;

  struct OpenState {
    std::string name;
    std::uint32_t version = 0;
    bool leader_verified = false;
  };

  // RAII quiesce: holds force_mu_ and closes the op gate, so the holder has
  // the same exclusive view a capture has — no op in flight, cache flags
  // and pending queues frozen — for its whole scope. Used by Fsck, Scrub,
  // and the lifecycle paths (Format/Mount/Shutdown); forces issued inside
  // use GateMode::kAlreadyClosed.
  //
  // Re-entrancy contract (tested in ckpt_test.cc): the outermost scope on a
  // thread records itself as the quiesce owner; nested constructions by the
  // SAME thread are counted, not re-locked — they observe the already
  // quiesced state and release nothing on destruction. The gate reopens and
  // force_mu_ unlocks only when the outermost scope exits. Distinct threads
  // still exclude each other on force_mu_ as before. This is what lets a
  // quiesced lifecycle path call a helper that itself quiesces (e.g.
  // RunQuiesced from inside Shutdown) without self-deadlock.
  class ScopedQuiesce {
   public:
    explicit ScopedQuiesce(Fsd* fsd) : fsd_(fsd) {
      if (fsd_->quiesce_owner_.load(std::memory_order_acquire) ==
          std::this_thread::get_id()) {
        nested_ = true;
        ++fsd_->quiesce_depth_;
        return;
      }
      rank_.emplace(util::LockRank::kForce);
      fsd_->force_mu_.lock();
      fsd_->gate_.CloseForCommit();
      fsd_->quiesce_owner_.store(std::this_thread::get_id(),
                                 std::memory_order_release);
      fsd_->quiesce_depth_ = 1;
    }
    ~ScopedQuiesce() {
      if (nested_) {
        --fsd_->quiesce_depth_;
        return;
      }
      fsd_->quiesce_depth_ = 0;
      fsd_->quiesce_owner_.store(std::thread::id{},
                                 std::memory_order_release);
      fsd_->gate_.Reopen();
      fsd_->force_mu_.unlock();
    }
    ScopedQuiesce(const ScopedQuiesce&) = delete;
    ScopedQuiesce& operator=(const ScopedQuiesce&) = delete;

   private:
    Fsd* fsd_;
    bool nested_ = false;
    std::optional<util::LockRankFrame> rank_;
  };

  void ChargeOp() const { disk_->clock().AdvanceCpu(config_.cpu.per_op); }
  void ChargeSectors(std::uint64_t n) const {
    disk_->clock().AdvanceCpu(config_.cpu.per_sector_io * n);
  }
  void ChargeDataSectors(std::uint64_t n) const {
    disk_->clock().AdvanceCpu(config_.cpu.per_data_sector * n);
  }

  // Locked bodies of the public lifecycle entry points. Format/Mount/
  // Shutdown wrappers stop the round runners first, then run these
  // quiesced (FormatLocked ends by calling MountLocked).
  Status FormatLocked();
  Status MountLocked();
  Status MountDegradedLocked();
  Status ShutdownLocked();

  // kFailedPrecondition unless mounted read-write; every mutating locked
  // body calls this first (degraded mounts are read-only).
  Status CheckWritable() const {
    if (!mounted_) {
      return MakeError(ErrorCode::kFailedPrecondition, "not mounted");
    }
    if (degraded_.load(std::memory_order_relaxed)) {
      return MakeError(ErrorCode::kFailedPrecondition,
                       "degraded read-only mount");
    }
    return OkStatus();
  }

  // Bodies of the public file operations; each runs with its name's shard
  // mutex held (handle ops: the shard of the handle's resolved name) and
  // admitted through the op gate by RunOp.
  Result<fs::FileUid> CreateFileLocked(std::string_view name,
                                       std::span<const std::uint8_t> contents);
  Result<fs::FileHandle> OpenLocked(std::string_view name);
  Status ReadLocked(const fs::FileHandle& file, const OpenState& state,
                    std::uint64_t offset, std::span<std::uint8_t> out);
  Status WriteLocked(const OpenState& state, std::uint64_t offset,
                     std::span<const std::uint8_t> data);
  Status ExtendLocked(const OpenState& state, std::uint64_t bytes);
  Status DeleteFileLocked(std::string_view name);
  Result<std::vector<fs::FileInfo>> ListLocked(std::string_view prefix);
  Status TouchLocked(std::string_view name);
  Status SetKeepLocked(std::string_view name, std::uint16_t keep);
  Status RenameLocked(std::string_view from, std::string_view to);
  Result<fs::FileInfo> StatLocked(std::string_view name);
  Result<ScrubReport> ScrubLocked();

  // Round plumbing (src/core/rounds.h). StartRounds arms the commit runner,
  // and the checkpoint runner when checkpoint.daemon is set, after a
  // successful Format/Mount; StopRounds disarms both (joining their threads
  // under the thread executor) and fails any commit waiter left behind.
  // Both are called while NOT holding force_mu_: a round takes it itself.
  void StartRounds();
  void StopRounds();
  // The commit round: BeginForce, then ForceLogImpl under force_mu_, then
  // Publish of the sequence the capture covered.
  void CommitRound();
  // The checkpoint round: while the live log exceeds the window, pick a
  // target and checkpoint toward window/2.
  void CkptRound();
  // Effective recovery-window bound in log sectors: the configured value,
  // or one log third when checkpoint.window_sectors == 0.
  std::uint32_t CheckpointWindowSectors() const;
  // The one home-writeback path (DESIGN.md section 4g). Writes home every
  // cached page whose latest logged image is in a record with lsn <
  // `target`, retires those frames, and saves the VAM base under VAM
  // logging, so no record below `target` is needed any more. kCheckpoint
  // (Checkpoint(), the checkpoint round) writes in batch_pages chunks,
  // then advances the log's pointer to `target`; kThirdEntry (the log's
  // callback, inside a force's append) writes one sweep and the log moves
  // the pointer.
  // Caller holds force_mu_ with the gate OPEN. A frame the in-flight force
  // captured (capture_keys_) stays dirty: its new image is en route.
  enum class Checkpointer { kCheckpoint, kThirdEntry };
  Status CheckpointTo(std::uint64_t target, Checkpointer caller);
  // The shell shared by the ten public file operations: tracer op scope
  // and latency histogram (`latency` may be null), the shard mutexes of
  // `names` in index order (none for List), gate admission, `body()` with
  // the gate held, a shard_ops_ credit per locked shard when `credit` is
  // set and the body succeeded, and — after every lock is dropped — the
  // wait for a deadline round run by a thread, then a due stepped
  // checkpoint round. The gate is released before the shard locks drop,
  // so a drained gate really means no mutator is touching anything.
  template <typename Fn>
  auto RunOp(const char* trace_name, obs::Histogram* latency,
             std::initializer_list<std::string_view> names, bool credit,
             Fn&& body) -> decltype(body());
  // Marks one durable-metadata mutation for the group-commit rendezvous.
  void BumpUpdateSeq() { queue_.RecordUpdate(); }
  // Shard mutex for a file name (rank kNameShard; taken before everything
  // else; cross-name ops take two, ordered by shard index).
  std::mutex& NameShard(std::string_view name) {
    return name_mu_[ShardOf(name)];
  }

  // Admission protocol (wrapper side, shard lock held): deadline check,
  // then gate admission, forcing the log for space when the capture budget
  // is exhausted. On success the caller MUST call gate_.End() (wrappers use
  // a scope guard).
  Status BeginOp(std::uint64_t* ticket);
  // Makes room when TryBegin fails: requests a fresh commit round and
  // waits for it.
  Status SpaceForce();
  // Half-second timer: requests a commit round once the interval expired.
  // A stepped round runs here and its status is returned; a thread round
  // leaves its ticket in *ticket for the wrapper to await after releasing
  // its locks.
  Status MaybeDeadlineForce(std::uint64_t* ticket);

  // The group-commit force. Caller holds force_mu_. kCloseAndReopen closes
  // the gate for the capture phase and reopens it for the append phase;
  // kAlreadyClosed is for quiesced callers (ScopedQuiesce held) — the gate
  // stays closed throughout.
  enum class GateMode { kCloseAndReopen, kAlreadyClosed };
  Status ForceLogImpl(GateMode mode, std::uint64_t* covered_seq = nullptr);
  // Queues an allocation-map delta for the next log record (VAM logging).
  // Alloc-type deltas are logged before the tree pages they correspond to,
  // free-type deltas after, so a torn force can only leak sectors, never
  // double-allocate them.
  void RecordDelta(VamDelta::Op op, std::uint32_t start, std::uint32_t count);
  // A batch of home-sector writes: the elevator scheduler plus a record of
  // every queued (lba, image) pair, so a flush that hits a bad sector can
  // replay the batch per-write through the repair/remap path instead of
  // failing the whole operation. Queued spans are borrowed until Flush.
  struct HomeBatch {
    HomeBatch(sim::BlockDevice* disk, bool reorder) : sched(disk, reorder) {}
    void QueueWrite(sim::Lba lba, std::span<const std::uint8_t> image) {
      sched.QueueWrite(lba, image);
      writes.emplace_back(lba, image);
    }
    std::size_t pending() const { return writes.size(); }
    sim::IoScheduler sched;
    std::vector<std::pair<sim::Lba, std::span<const std::uint8_t>>> writes;
  };

  // One page for SweepHome: a cache key and the image its home gets.
  struct HomeImage {
    std::uint32_t key = 0;
    std::span<const std::uint8_t> image;
  };
  // Writes each image to its home sector(s) — the single home of a leader
  // key, else the remapped primary and replica — as two elevator sweeps:
  // every primary (and leader) first, then every replica, so coalescing
  // can never merge a page's two copies.
  Status SweepHome(std::span<const HomeImage> pages);
  // Issues a queued batch and counts it in the registry. When the
  // elevator flush hits a media error, the batch is replayed one write at a
  // time: name-table homes on permanently bad sectors are remapped to
  // spares; other targets (leader pages) are recorded as unrepairable in
  // health_ and dropped — their content is reconstructible from the entry,
  // so losing the home copy degrades reads, never the namespace.
  Status FlushHomeBatch(HomeBatch& batch);

  // ---- Bad-sector remap table (section 4h). nt_remap_ maps an original
  // name-table home LBA to the spare currently serving it; the table lives
  // in layout_.remap_base's duplicated directory sector and is loaded at
  // mount. MapNt is applied on every name-table home read and write (and at
  // force capture time, so log records carry post-remap addresses and
  // recovery replay is self-contained).
  sim::Lba MapNt(sim::Lba lba) const;
  // The reverse lookup: the original home `spare` currently serves, or
  // nullopt when no mapping targets it.
  std::optional<sim::Lba> RemapOrigin(sim::Lba spare) const;
  // True if `lba` is inside either name-table home region.
  bool IsNtHome(sim::Lba lba) const;
  // The (unmapped) home of the copy `vote` lost, for page `pid`.
  sim::Lba NtLoserHome(const NtVote& vote, std::uint32_t pid) const {
    return (vote.b_wins ? layout_.nta_base : layout_.ntb_base) + pid;
  }
  // The remap patch: a bulk read of homes [base, base + count) saw the dead
  // originals of remapped sectors, so each one is re-read from its spare
  // into its 512-byte slot of `buf`, and `bad` (slot indexes) is updated to
  // what the spare read returned.
  Status PatchRemapped(sim::Lba base, std::uint32_t count,
                       std::span<std::uint8_t> buf,
                       std::vector<std::uint32_t>* bad);
  // Durably remaps the (original) name-table home `from` to a fresh spare
  // and writes `image` there. Fails when the spare pool is exhausted or the
  // directory cannot be persisted.
  Status RemapNtSector(sim::Lba from, std::span<const std::uint8_t> image);
  // Per-write fallback after a failed batch flush: retries `lba`, remapping
  // a name-table home whose sector is permanently bad; non-remappable
  // targets are attributed in health_ and dropped (returns OK).
  Status RetryHomeWrite(sim::Lba lba, std::span<const std::uint8_t> image);
  // Rewrites one stale/corrupt name-table home copy from the surviving
  // copy's image, remapping `home` when its sector is permanently bad.
  // A no-op in degraded mode (reads still serve the surviving copy).
  Status RepairNtCopy(sim::Lba home, std::span<const std::uint8_t> image);
  Status LoadRemapTable();
  Status SaveRemapTable();

  // Health bookkeeping: counters live in the metrics registry; notes and
  // the lost-page tally live here under health_mu_.
  void NoteUnrepairable(const std::string& note);
  // Records a name-table page with no usable copy anywhere (health note +
  // nt_pages_lost tally).
  void NoteLostNtPage(std::uint32_t pid);

  // SimDisk::Read with bounded retry on kReadTransient (satellite of the
  // paper's section 5.8 transient-error class); every retry is counted in
  // fsd.read_retries. When the retry budget is exhausted the error comes
  // back annotated with the failing LBA span and is counted in
  // fsd.read_retry_exhausted — a permanently soft-failing sector surfaces
  // cleanly instead of as a bare device error.
  Status ReadWithRetry(sim::Lba start, std::span<std::uint8_t> out,
                       std::vector<std::uint32_t>* bad = nullptr);

  // Rebuilds `entry`'s leader page from the authoritative name-table entry
  // and writes it home, counting the outcome (fsd.repairs on success, an
  // unrepairable health note when the sector cannot be written).
  Status RepairLeader(const FsdEntry& entry, std::uint32_t version);

  Status WriteVolumeRoot(bool clean);
  Status ReadVolumeRoot(bool* clean);
  // The one log-replay collector of both mounts: the committed images of an
  // unclean volume, keyed on their remapped home so a record captured
  // before a remap and one captured after collapse to one page (LSN order
  // keeps the newest); a tombstone cancels its leader's image, and every
  // name-table image's trailer sequence is merged into the clock. VAM delta
  // pages are parsed into *deltas, with their record LSNs, only when
  // `deltas` is non-null: the degraded mount passes null, so a damaged
  // delta page cannot void its replay.
  Status CollectReplay(
      std::map<sim::Lba, PageImage>* replay,
      std::vector<std::pair<std::uint64_t, VamDelta>>* deltas);
  Status RebuildVolatileState();  // VAM + name-table page map from the tree
  // The elected winner of every name-table page, in page order: page p's
  // 512-byte sector sits at sectors[p * 512] when present[p]; present[p] is
  // false when neither copy validated (a free page, or a lost one).
  struct NtImages {
    std::vector<std::uint8_t> sectors;
    std::vector<bool> present;
  };
  // One elevator sweep over both name-table regions: elects each page's
  // winner (newest valid copy), counts corruption, repairs the loser, and
  // fills the cache. When `winners` is non-null the elected images are
  // also handed back, so the rebuild walks them in memory instead of
  // re-reading through a cache smaller than the table.
  Status PreloadNameTable(NtImages* winners = nullptr);
  Status MarkSystemRegionsUsed();

  // The newest version of `name`. HighestVersion fails with kNotFound
  // when there is none; FindHighestVersion returns nullopt instead, so the
  // expected miss of a create or rename target builds no error message.
  Result<std::pair<std::uint32_t, FsdEntry>> HighestVersion(
      std::string_view name);
  Result<std::optional<std::pair<std::uint32_t, FsdEntry>>> FindHighestVersion(
      std::string_view name);
  Result<FsdEntry> GetEntry(std::string_view name, std::uint32_t version);
  Status PutEntry(std::string_view name, std::uint32_t version,
                  const FsdEntry& entry);
  // All versions of `name`, ascending.
  Result<std::vector<std::pair<std::uint32_t, FsdEntry>>> ListVersions(
      std::string_view name);
  // Drops the buffered image of the leader at `lba` and queues its
  // tombstone, so neither a write-back nor log replay can put it over the
  // sector's next owner.
  void DropLeaderImage(std::uint32_t lba);
  // Removes one specific version: shadow-frees its sectors, erases the
  // name-table entry, queues the leader tombstone.
  Status DeleteVersion(std::string_view name, std::uint32_t version,
                       const FsdEntry& entry);
  // Enforces the keep count after a create.
  Status PruneVersions(std::string_view name, std::uint16_t keep);

  // Rewrites a file's cached leader page (Insert semantics: logged-state
  // bookkeeping reset, dirty + pending capture), crediting the gate when
  // the frame transitions clean -> pending.
  void UpsertLeader(std::uint32_t key, const std::vector<std::uint8_t>& image);

  fs::FileUid NextUid() {
    return (static_cast<std::uint64_t>(boot_count_ + 1) << 32) |
           (uid_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  // Maps file page range to disk extents using the entry's run table.
  Result<std::vector<fs::Extent>> MapPages(const FsdEntry& entry,
                                           std::uint32_t first_page,
                                           std::uint32_t count) const;

  // Copy of the open-file entry for `uid` (wrappers resolve the name BEFORE
  // taking its shard lock); kFailedPrecondition when the handle is stale.
  Result<OpenState> LookupOpenState(fs::FileUid uid) const;
  // Records a successful piggyback leader verification on the open handle.
  void MarkLeaderVerified(fs::FileUid uid);

  sim::BlockDevice* disk_;
  FsdConfig config_;
  FsdLayout layout_;
  // Every counter lives here (exposed via fs::FileSystem::Metrics()),
  // including the page cache's "cache.*" counters; declared before cache_,
  // which registers into it on construction.
  obs::MetricsRegistry metrics_;

  std::unique_ptr<NtStore> nt_store_;
  std::unique_ptr<btree::BTree> tree_;
  std::unique_ptr<FsdLog> log_;
  Vam vam_;
  std::unique_ptr<RunAllocator> allocator_;
  cache::PageCache cache_;

  std::uint32_t boot_count_ = 0;
  std::atomic<std::uint32_t> uid_counter_{0};
  // Leader keys of deleted files whose tombstone awaits the next force.
  // Guarded by pending_mu_, swapped out whole by the capture phase.
  std::vector<std::uint32_t> pending_tombstones_;
  // VAM deltas awaiting the next force (VAM logging only). Same guard.
  std::vector<VamDelta> pending_alloc_deltas_;
  std::vector<VamDelta> pending_free_deltas_;
  std::atomic<sim::Micros> last_force_{0};
  // Keys captured by the force currently in its append phase. Guarded by
  // force_mu_ (only the force path reads or writes it): a third-entry
  // checkpoint must keep these frames dirty — their captured image is en
  // route to the log, so eviction would orphan it.
  std::unordered_set<std::uint32_t> capture_keys_;
  std::atomic<bool> mounted_{false};  // written quiesced; read lock-free
  // Degraded read-only mount (section 4h): set by MountDegraded, cleared by
  // Format/Mount/Shutdown. Read lock-free on every mutating path.
  std::atomic<bool> degraded_{false};

  // Bad-sector remap table: original name-table home LBA -> spare LBA.
  // remap_mu_ is a leaf mutex (taken with any of the structure locks held,
  // never the other way around; critical sections are map lookups only).
  mutable std::mutex remap_mu_;
  std::map<sim::Lba, sim::Lba> nt_remap_;

  // Health attribution: notes and the lost-metadata tallies that have no
  // natural counter. Leaf mutex, same discipline as remap_mu_.
  mutable std::mutex health_mu_;
  std::vector<std::string> health_notes_;
  std::uint64_t nt_pages_lost_ = 0;
  std::uint64_t unrepairable_ = 0;

  // Locking hierarchy (DESIGN.md section 4f, ranks in util/lockrank.h):
  //   name shard (10) -> force_mu_ (20) -> op gate (30) -> tree (40/45) ->
  //   alloc_mu_ (50) -> pending_mu_ (55) -> open_mu_ (58) -> cache (60) ->
  //   disk -> clock/tracer/metrics. The commit queue's mutex (90) is
  //   waited on with at most a name shard held; the round runners' (95)
  //   is a leaf.
  mutable std::array<std::mutex, kNameShardCount> name_mu_;
  // Serializes log forces (commit rounds, checkpoint rounds, quiesced
  // sections). Never held by an admitted op.
  mutable std::mutex force_mu_;
  // Admission gate: bounds in-flight ops by log capture budget and drains
  // them for the capture phase of a force.
  OpGate gate_;
  // VAM free/nt-free bitmaps (raw accessors + allocator scans) and vam
  // Save/Load/Reset. The shadow map has its own internal lock.
  mutable std::mutex alloc_mu_;
  // pending_tombstones_ / pending_*_deltas_.
  mutable std::mutex pending_mu_;
  // open_files_.
  mutable std::mutex open_mu_;
  // The two round runners (one executor, chosen by commit.daemon) and the
  // group-commit rendezvous in front of the commit runner.
  RoundRunner commit_rounds_;
  RoundRunner ckpt_rounds_;
  CommitQueue queue_;

  // ScopedQuiesce re-entrancy bookkeeping: the owning thread's id (set by
  // the outermost scope while force_mu_ is held, cleared on exit) and the
  // nesting depth (touched only by the owner).
  std::atomic<std::thread::id> quiesce_owner_{};
  int quiesce_depth_ = 0;

  // Completed name-keyed ops per shard (relaxed; test/bench telemetry).
  std::array<std::atomic<std::uint64_t>, kNameShardCount> shard_ops_{};

  // FSD's counters and per-operation latency histograms, each registered
  // in metrics_ under the name on its line — the one place that name is
  // written. Members cache the registry pointers so hot paths skip the name
  // lookup; Format resets the values, never the names. Disk time per phase
  // comes from the disk tracer's op classes ("fsd.log_force", "fsd.ckpt",
  // "fsd.flush_third"), not from here.
  struct Counters {
    obs::MetricsRegistry& m;
    // Group commit (section 4b): forces that wrote the log, timer rounds
    // that found nothing dirty, and the page images handed to the log.
    obs::Counter* forces = m.GetCounter("fsd.forces");
    obs::Counter* empty_forces = m.GetCounter("fsd.empty_forces");
    obs::Counter* pages_captured = m.GetCounter("fsd.pages_captured");
    // Ops that forced (or waited for) the log because the capture budget
    // was exhausted (section 4f; depends on thread scheduling).
    obs::Counter* space_forces = m.GetCounter("fsd.space_forces");
    // Leader pages written or verified by piggybacking on a data access.
    obs::Counter* piggyback_leader_writes =
        m.GetCounter("fsd.piggyback_leader_writes");
    obs::Counter* piggyback_leader_verifies =
        m.GetCounter("fsd.piggyback_leader_verifies");
    // Recovery: pages replayed from the log, and mounts that took the
    // VAM-logging fast path.
    obs::Counter* recovery_pages_replayed =
        m.GetCounter("fsd.recovery_pages_replayed");
    obs::Counter* fast_recoveries = m.GetCounter("fsd.fast_recoveries");
    // Writeback scheduler: every home write (checkpoints, shutdown, format,
    // recovery replay, repairs) goes through elevator-ordered, coalesced
    // batches — non-empty flushes, page writes queued, requests merged.
    obs::Counter* home_write_batches = m.GetCounter("fsd.home_write_batches");
    obs::Counter* home_write_requests =
        m.GetCounter("fsd.home_write_requests");
    obs::Counter* home_writes_coalesced =
        m.GetCounter("fsd.home_writes_coalesced");
    // Checkpointing (section 4g): one home-writeback path with two callers,
    // Checkpoint()/the checkpoint round and third entry. ckpt_pages counts
    // the home pages either caller wrote; ckpt_batches the Checkpoint()/
    // round batches and ckpt_advances their durable pointer moves;
    // third_flush_fallbacks the third entries that still found pages to
    // write home — zero when the checkpoint round keeps up.
    obs::Counter* ckpt_batches = m.GetCounter("fsd.ckpt_batches");
    obs::Counter* ckpt_pages = m.GetCounter("fsd.ckpt_pages");
    obs::Counter* ckpt_advances = m.GetCounter("fsd.ckpt_advances");
    obs::Counter* third_flush_fallbacks =
        m.GetCounter("fsd.third_flush_fallbacks");
    // Media faults (section 4h). nt_repairs counts name-table replica
    // repairs on read; repairs every successful repair from redundancy
    // (name-table copy rewrites, leader rebuilds, volume-root restores);
    // remaps name-table home sectors durably moved to spares;
    // corruption_detected content-CRC mismatches on otherwise-successful
    // reads; read_retries soft read errors absorbed by the bounded retry,
    // read_retry_exhausted the reads whose retry gave up.
    obs::Counter* nt_repairs = m.GetCounter("fsd.nt_repairs");
    obs::Counter* repairs = m.GetCounter("fsd.repairs");
    obs::Counter* remaps = m.GetCounter("fsd.remaps");
    obs::Counter* corruption_detected =
        m.GetCounter("fsd.corruption_detected");
    obs::Counter* read_retries = m.GetCounter("fsd.read_retries");
    obs::Counter* read_retry_exhausted =
        m.GetCounter("fsd.read_retry_exhausted");
    // Scrub repair-pass outcomes (the ScrubReport's, cumulatively).
    obs::Counter* scrub_healed = m.GetCounter("fsd.scrub_healed");
    obs::Counter* scrub_unrepairable = m.GetCounter("fsd.scrub_unrepairable");
    // Name-table cache misses, split by the requested page's kind
    // (section 4l).
    obs::Counter* nt_misses_interior = m.GetCounter("nt.misses_interior");
    obs::Counter* nt_misses_leaf = m.GetCounter("nt.misses_leaf");
  } c_{metrics_};
  struct Histograms {  // virtual microseconds per public operation
    obs::MetricsRegistry& m;
    obs::Histogram* create = m.GetHistogram("op.fsd.create.us");
    obs::Histogram* open = m.GetHistogram("op.fsd.open.us");
    obs::Histogram* read = m.GetHistogram("op.fsd.read.us");
    obs::Histogram* write = m.GetHistogram("op.fsd.write.us");
    obs::Histogram* extend = m.GetHistogram("op.fsd.extend.us");
    obs::Histogram* del = m.GetHistogram("op.fsd.delete.us");
    obs::Histogram* list = m.GetHistogram("op.fsd.list.us");
    obs::Histogram* touch = m.GetHistogram("op.fsd.touch.us");
    obs::Histogram* setkeep = m.GetHistogram("op.fsd.setkeep.us");
    obs::Histogram* force = m.GetHistogram("op.fsd.force.us");
  } h_{metrics_};

  std::map<fs::FileUid, OpenState> open_files_;
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_FSD_H_
