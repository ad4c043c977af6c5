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
#include <unordered_set>
#include <vector>

#include "src/btree/btree.h"
#include "src/btree/page_store.h"
#include "src/cache/page_cache.h"
#include "src/core/allocator.h"
#include "src/core/layout.h"
#include "src/core/log.h"
#include "src/core/name_table.h"
#include "src/core/nt_store.h"
#include "src/core/opgate.h"
#include "src/core/recovery.h"
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
//      the VAM maps, the allocator and the tombstone/delta queues, open_mu_
//      for the open-file table.
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
  fs::HealthStats Health() override { return health_.Snapshot(); }

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

  // Name-shard geometry, exposed so benches and tests can construct
  // shard-disjoint (or deliberately colliding) name sets.
  static constexpr std::size_t kNameShardCount = 16;
  static std::size_t ShardOf(std::string_view name) {
    return std::hash<std::string_view>{}(name) % kNameShardCount;
  }

  // Home pages per write batch of a checkpoint round or Checkpoint(): small
  // batches keep a round's disk occupancy polite, so mutators only ever
  // wait behind one batch, not a whole third drain.
  static constexpr std::uint32_t kCheckpointBatchPages = 32;

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

 protected:
  // As the public constructor, with the page cache's interior classifier
  // given explicitly; nullptr classes every frame a leaf (plain LRU), which
  // lets a test measure the same volume under both victim orders.
  Fsd(sim::BlockDevice* disk, FsdConfig config,
      cache::PageCache::Classifier interior);

 private:
  class NtPages;

  struct OpenState {
    std::string name;
    std::uint32_t version = 0;
    bool leader_verified = false;
  };

  // RAII quiesce: holds force_mu_ and closes the op gate, so the holder has
  // the same exclusive view a capture has — no op in flight, cache flags
  // and pending queues frozen — for its whole scope. Used by Fsck, Scrub,
  // and the lifecycle paths (Format/Mount/Shutdown); forces issued inside
  // use GateMode::kAlreadyClosed. Not re-entrant: a nested scope on the
  // same thread is a rank inversion (the checker aborts on it).
  class ScopedQuiesce {
   public:
    explicit ScopedQuiesce(Fsd* fsd)
        : fsd_(fsd), lock_(fsd->force_mu_, util::LockRank::kForce) {
      fsd_->gate_.CloseForCommit();
    }
    ~ScopedQuiesce() { fsd_->gate_.Reopen(); }
    ScopedQuiesce(const ScopedQuiesce&) = delete;
    ScopedQuiesce& operator=(const ScopedQuiesce&) = delete;

   private:
    Fsd* fsd_;
    util::RankedLockGuard<std::mutex> lock_;
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
    if (health_.degraded()) {
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
  // (Checkpoint(), the checkpoint round) writes in kCheckpointBatchPages
  // chunks, then advances the log's pointer to `target`; kThirdEntry (the
  // log's callback, inside a force's append) writes one sweep and the log
  // moves the pointer.
  // Caller holds force_mu_ with the gate OPEN. A frame the in-flight force
  // captured (capture_keys_) stays dirty: its new image is en route.
  enum class Checkpointer { kCheckpoint, kThirdEntry };
  Status CheckpointTo(std::uint64_t target, Checkpointer caller);
  // The shell shared by the ten public file operations: tracer op scope
  // and latency histogram (`latency` may be null), the shard mutexes of
  // `names` in index order (none for List), gate admission, `body()` with
  // the gate held, and — after every lock is dropped — the wait for a
  // deadline round run by a thread, then a due stepped checkpoint round.
  // The gate is released before the shard locks drop, so a drained gate
  // really means no mutator is touching anything.
  template <typename Fn>
  auto RunOp(const char* trace_name, obs::Histogram* latency,
             std::initializer_list<std::string_view> names, Fn&& body)
      -> decltype(body());
  // Marks one durable-metadata mutation for the group-commit rendezvous.
  void BumpUpdateSeq() { queue_.RecordUpdate(); }

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
  // Queues an allocation-map delta for the next log record (VAM logging; a
  // no-op otherwise). Alloc-type deltas are logged before the tree pages
  // they correspond to, free-type deltas after, so a torn force can only
  // leak sectors, never double-allocate them. Caller holds alloc_mu_, in
  // the same critical section as the map change the delta records. Returns
  // the pending-capture pages the push started (0 or 1); the caller notes
  // them in the op gate after dropping alloc_mu_.
  std::size_t QueueDelta(VamDelta::Op op, std::uint32_t start,
                         std::uint32_t count);
  // Where cache key `key`'s image goes home: a leader key's single home,
  // else the page's two homes as the name-table store maps them.
  NtStore::HomeWrite HomeFor(std::uint32_t key,
                             std::span<const std::uint8_t> image) const;
  // Format and Shutdown: every dirty cached page home in one sweep, then
  // every frame clean — nothing pending capture, no logged image left to
  // retire.
  Status WriteDirtyHome();
  // Whether `entry`'s leader page agrees with it — the buffered image when
  // one is pending, else the home sector, read (and, when `charge`, its
  // CPU charged). Scrub and Fsck share it.
  bool LeaderMatches(const FsdEntry& entry, std::uint32_t version,
                     bool charge);
  // Rebuilds `entry`'s leader page from the authoritative name-table entry
  // and writes it home, counting the outcome (fsd.repairs on success, an
  // unrepairable health note when the sector cannot be written).
  Status RepairLeader(const FsdEntry& entry, std::uint32_t version);

  // Both mounts (and Format, at boot 0): the volatile state of a fresh
  // boot — no open files, an empty cache, an all-used allocation map.
  void ResetVolatileState(std::uint32_t boot_count);
  // Both mounts' last step: restart the commit timer, arm the admission gate
  // for this volume's log geometry (the cache was cleared, so no capture
  // reservations carry over), and mark the volume mounted.
  void ArmMounted();
  // The name-table store's mount sweep (elect, merge, repair), then every
  // elected page into the cache. The images stay in *winners, so the
  // rebuild walks them in memory instead of re-reading through a cache
  // smaller than the table.
  Status PreloadNameTable(NtImages* winners);

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

  // Copy of the open-file entry for `uid` (wrappers resolve the name BEFORE
  // taking its shard lock); kFailedPrecondition when the handle is stale.
  Result<OpenState> LookupOpenState(fs::FileUid uid) const;
  // Records a successful piggyback leader verification on the open handle.
  void MarkLeaderVerified(fs::FileUid uid);

  sim::BlockDevice* disk_;
  FsdConfig config_;
  // config_.Validate(geometry), kept from construction: Format and the
  // mounts return it. layout_ is the planned layout when it is ok and an
  // empty one otherwise, which nothing reads.
  Status config_status_;
  FsdLayout layout_;
  // Every counter lives here (exposed via fs::FileSystem::Metrics()),
  // including the page cache's "cache.*" counters; declared before cache_,
  // which registers into it on construction.
  obs::MetricsRegistry metrics_;

  // The media-health sink and the name table's two home copies (section
  // 4h); both register into metrics_.
  MediaHealth health_{disk_, &metrics_};
  NtStore nt_{disk_, layout_, config_, &metrics_, &health_};
  FsdLog log_{disk_, layout_.log_base, config_.log_sectors, &metrics_};
  // The mount-time half (section 5.5): root, replay, VAM rebuild, the walk.
  Recovery recovery_{disk_, layout_, config_, &log_, &nt_, &health_, &metrics_};
  // The tree's cache-facing page store over nt_.
  std::unique_ptr<NtPages> nt_pages_;
  std::unique_ptr<btree::BTree> tree_;
  Vam vam_;
  std::unique_ptr<RunAllocator> allocator_;
  cache::PageCache cache_;

  std::uint32_t boot_count_ = 0;
  std::atomic<std::uint32_t> uid_counter_{0};
  // Leader keys of deleted files whose tombstone awaits the next force.
  // Guarded by alloc_mu_, swapped out whole by the capture phase.
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

  // Locking hierarchy (DESIGN.md section 4f, ranks in util/lockrank.h):
  //   name shard (10) -> force_mu_ (20) -> op gate (30) -> tree (40/45) ->
  //   alloc_mu_ (50) -> open_mu_ (58), then the unranked leaves: cache ->
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
  // vam_ (all four maps), the allocator scans, pending_tombstones_ and
  // pending_*_deltas_. Measured, it is barely contended (EXPERIMENTS.md).
  mutable std::mutex alloc_mu_;
  // open_files_.
  mutable std::mutex open_mu_;
  // The two round runners (one executor, chosen by commit.daemon) and the
  // group-commit rendezvous in front of the commit runner.
  RoundRunner commit_rounds_;
  RoundRunner ckpt_rounds_;
  CommitQueue queue_;

  // FSD's counters and per-operation latency histograms, each registered
  // in metrics_ under the name on its line — the one place that name is
  // written. Members cache the registry pointers so hot paths skip the name
  // lookup; Format resets the values, never the names. The media-fault,
  // home-write and recovery counters are registered by health_, nt_ and
  // recovery_. Disk time per phase comes from the disk tracer's op classes
  // ("fsd.log_force", "fsd.ckpt", "fsd.flush_third"), not from here.
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

// The page cache's classifier for Fsd's keys: a name-table frame holding a
// B-tree interior node. Leader frames (Fsd::kLeaderKeyBit) are never
// interior, whatever their bytes.
bool IsInteriorFrame(std::uint32_t key, std::span<const std::uint8_t> data);

}  // namespace cedar::core

#endif  // CEDAR_CORE_FSD_H_
