// The FSD redo log (paper section 5.3).
//
// A circular region of the disk, placed near the central cylinder, holding
// physical page images of file-name-table pages and leader pages. Layout:
//
//   base+0   pointer page: offset of the first valid record in the oldest
//            third (replicated at base+2 with a blank page between — the
//            same data is never written to adjacent sectors)
//   base+1   blank
//   base+2   pointer copy
//   base+3   blank
//   base+4.. record area, divided into three equal "thirds"
//
// A record with n pages occupies 2n+5 sectors, written in ONE disk request:
//
//   [header][blank][header'][D1..Dn][end][D1'..Dn'][end']
//
// so a one-page record is seven 512-byte sectors (the paper's number), and
// any one- or two-sector failure inside the record is repairable from the
// copies and detectable by matching the header and end pairs.
//
// Records never straddle a third boundary (or the end of the area): a skip
// marker sector is written and the record starts at the boundary. Entering
// a new third first invokes the owner's third-entry callback — a
// synchronous checkpoint that writes home every page whose only durable
// copy lives in that third — then durably advances the oldest-third
// pointer. This simple scheme keeps an average of 5/6 of the log in use.

#ifndef CEDAR_CORE_LOG_H_
#define CEDAR_CORE_LOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "src/sim/device.h"
#include "src/util/status.h"

namespace cedar::core {

inline constexpr sim::Lba kNoLba = 0xFFFFFFFFu;

// Group-commit rendezvous between N client threads and the one commit
// daemon (paper section 3.2: "if several processes are waiting, one log
// write commits them all").
//
// Sequence discipline:
//   - Every mutating FS operation calls RecordUpdate() after applying its
//     change, obtaining a monotonically increasing update sequence number.
//   - A client needing durability calls AwaitDurable(seq), which blocks —
//     holding NO file-system locks — until some daemon force whose capture
//     covers `seq` completes. If a force already in flight will cover it,
//     the client merely waits (a *piggyback*: no new log write is asked
//     for); otherwise the call flags work and wakes the daemon.
//   - The daemon loops on AwaitWork(); for each round it takes the FS core
//     lock, reads latest_update() (exact: mutators are blocked), calls
//     BeginForce(seq) so later arrivals piggyback on this round, performs
//     the log write, then Publish(seq, status) wakes every waiter with
//     seq <= captured.
//
// The queue's mutex is a leaf: it is never held while acquiring any other
// lock, and clients block on it with no FS locks held, so the daemon can
// always make progress (DESIGN.md section 4e).
class CommitQueue {
 public:
  struct Stats {
    std::uint64_t force_requests = 0;  // AwaitDurable calls that needed work
    std::uint64_t piggybacked = 0;     // satisfied by an in-flight force
    std::uint64_t daemon_forces = 0;   // forces the daemon performed
  };

  // Called by mutating operations (with the core lock held); returns the
  // operation's update sequence number.
  std::uint64_t RecordUpdate() {
    return update_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  std::uint64_t latest_update() const {
    return update_seq_.load(std::memory_order_relaxed);
  }
  std::uint64_t durable_seq() const {
    std::lock_guard<std::mutex> lock(mu_);
    return durable_seq_;
  }

  // Client side. Blocks until updates up to `seq` are durable; returns the
  // status of the force that satisfied the wait (or kUnavailable if the
  // queue is stopped first). MUST be called with no FS locks held.
  Status AwaitDurable(std::uint64_t seq) {
    std::unique_lock<std::mutex> lock(mu_);
    if (durable_seq_ >= seq) return last_status_;
    // A pending (not yet started) force also covers `seq`: the daemon reads
    // latest_update() when it begins, and `seq` was recorded before now.
    if (work_pending_ || (in_flight_ && requested_seq_ >= seq)) {
      ++stats_.piggybacked;
    } else {
      ++stats_.force_requests;
      work_pending_ = true;
      work_cv_.notify_one();
    }
    done_cv_.wait(lock, [&] { return durable_seq_ >= seq || stopped_; });
    if (durable_seq_ >= seq) return last_status_;
    return MakeError(ErrorCode::kFailedPrecondition, "commit queue stopped");
  }

  // Daemon side. Blocks until there is work or Stop(); false means stop.
  bool AwaitWork() {
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [&] { return work_pending_ || stopped_; });
    if (stopped_) return false;
    work_pending_ = false;
    return true;
  }

  // Daemon side, called with the FS core lock held just before capturing:
  // arrivals with seq <= `seq` now piggyback instead of flagging new work.
  void BeginForce(std::uint64_t seq) {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_ = true;
    requested_seq_ = seq;
  }

  // Daemon side: publishes the force outcome and wakes every waiter whose
  // seq is covered.
  void Publish(std::uint64_t captured_seq, const Status& status) {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_ = false;
    ++stats_.daemon_forces;
    if (captured_seq > durable_seq_) durable_seq_ = captured_seq;
    last_status_ = status;
    done_cv_.notify_all();
  }

  // Wakes the daemon (AwaitWork returns false) and any stray waiters.
  // Shutdown calls this before joining the daemon thread.
  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    work_cv_.notify_all();
    done_cv_.notify_all();
  }

  // Re-arms the queue for a fresh daemon (Mount after Shutdown). Sequence
  // numbers continue, matching the still-monotonic update counter.
  void Restart() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = false;
    work_pending_ = false;
    in_flight_ = false;
  }

  bool stopped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stopped_;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  std::atomic<std::uint64_t> update_seq_{0};

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // daemon waits here
  std::condition_variable done_cv_;  // clients wait here
  std::uint64_t durable_seq_ = 0;    // everything <= this is in the log
  std::uint64_t requested_seq_ = 0;  // covered by the in-flight force
  bool in_flight_ = false;
  bool work_pending_ = false;
  bool stopped_ = false;
  Status last_status_ = OkStatus();
  Stats stats_;
};

// One logged page: its image and where it lives on disk (secondary is
// kNoLba for leader pages, which have a single home).
//
// kTombstone cancels any earlier in-log image of the same primary LBA
// during replay. Deletes log one for the leader page: without it, a crash
// after the freed sector was reallocated would let replay write the dead
// file's leader over the new owner's data.
//
// kVamDelta pages carry serialized allocation-map changes (the paper's
// considered-but-deferred "VAM logging" extension, section 5.3); they have
// no home sectors and are interpreted by the owner at recovery.
enum class PageKind : std::uint8_t {
  kPage = 0,
  kTombstone = 1,
  kVamDelta = 2,
};

struct PageImage {
  sim::Lba primary = kNoLba;
  sim::Lba secondary = kNoLba;
  PageKind kind = PageKind::kPage;
  std::vector<std::uint8_t> data;  // exactly one sector
};

struct LogStats {
  std::uint64_t records = 0;
  std::uint64_t pages_logged = 0;
  std::uint64_t sectors_written = 0;  // record + marker + pointer sectors
  std::uint64_t markers = 0;
  std::uint64_t third_entries = 0;
  std::uint32_t max_record_sectors = 0;
  // Histogram-ish: record size accumulators for the section 5.4 numbers.
  std::uint64_t total_record_sectors = 0;
};

// Thread safety: FsdLog's append/recover paths and stats run under the
// owning file system's core lock (there is exactly one log writer at a
// time — the group-commit discipline demands it). The embedded CommitQueue
// is the only part clients touch without that lock.
class FsdLog {
 public:
  // Third-entry callback: the third about to be overwritten holds exactly
  // the live records with lsn < `target_lsn` (the oldest live record
  // outside it, or next_lsn() when there is none). The owner must write
  // home every page whose latest logged image is in one of them.
  using ThirdEntryFn = std::function<Status(std::uint64_t target_lsn)>;

  static constexpr std::uint32_t kMaxPagesPerRecord = 52;

  FsdLog(sim::BlockDevice* disk, sim::Lba base, std::uint32_t size_sectors);

  // Initializes an empty log (pointer at offset 0).
  Status Format(std::uint32_t boot_count);

  // Appends one whole commit group, handling skip markers, third entry
  // (callback + pointer update), and wrap. The images are chunked into
  // records of at most kMaxPagesPerRecord — each one disk write — tagged
  // with group start/end flags: recovery replays a group only when its
  // final record survived, so a multi-record force stays atomic. The
  // load-bearing part: space for the ENTIRE group is reserved up front, so
  // a group never straddles a third boundary. That guarantees
  // recovery sees all of the group's records or none (no orphaned tails
  // whose start third was reclaimed mid-group), which is what makes a
  // multi-record force atomic. pages.size() must be <= MaxGroupPages().
  // Returns the LSN of the group's first record (never that of a skip
  // marker written ahead of it) — the tag the owner's checkpoint selects on.
  Result<std::uint64_t> AppendGroup(std::span<const PageImage> pages,
                                    const ThirdEntryFn& enter_third);

  // Largest page count AppendGroup accepts: the biggest group whose total
  // sectors still fit strictly inside one third.
  std::uint32_t MaxGroupPages() const;

  // Total sectors a group of n pages occupies once chunked into records.
  static std::uint32_t GroupSectors(std::uint32_t n) {
    const std::uint32_t records =
        (n + kMaxPagesPerRecord - 1) / kMaxPagesPerRecord;
    return 2 * n + 5 * records;
  }

  // Re-reads and validates the on-disk oldest-record pointer (both copies);
  // the structural well-formedness probe used by Fsck.
  Status ValidatePointer();

  // Replays the log after a crash: scans records from the oldest-third
  // pointer, repairs single-sector damage from the duplicate copies, stops
  // at the first invalid/torn record, and calls `visit(lsn, pages)` for
  // each complete record in order. Afterwards the log is positioned to
  // continue appending (with `boot_count` stamped on new records).
  Status Recover(const std::function<Status(
                     std::uint64_t, const std::vector<PageImage>&)>& visit,
                 std::uint32_t boot_count);

  // ---- Continuous checkpoint interface. Like the append path, these run
  // under the owner's force lock: there is one log writer at a time, and
  // the checkpointer counts as a writer (it moves the durable pointer).

  // Sectors of log between the oldest live record and the append position —
  // exactly what a crash-now mount would scan. 0 when the log is empty.
  std::uint32_t LiveSectors() const;

  // Picks an advance target for a checkpoint: the first group-start
  // boundary whose remaining live span is <= `goal_sectors` (0 asks for the
  // maximal safe advance). Targets are always commit-group boundaries —
  // advancing into the middle of a group would make recovery start at a
  // groupless tail — and always leave at least one live record, so the
  // persisted pointer keeps naming a real record. Returns 0 when there is
  // nothing to drop (fewer than two records, or no boundary).
  std::uint64_t CheckpointTarget(std::uint32_t goal_sectors) const;

  // Durably advances the oldest-record pointer past every record with
  // lsn < target_lsn. `target_lsn` must come from CheckpointTarget(). The
  // caller must already have written home (and flushed) every page whose
  // only durable copy lives in the dropped records. Returns the number of
  // records dropped from the replay window.
  Result<std::uint32_t> AdvanceCheckpoint(std::uint64_t target_lsn);

  // Group-commit rendezvous; safe to use from any thread.
  CommitQueue& commit_queue() { return commit_queue_; }

  const LogStats& stats() const { return stats_; }
  std::uint32_t record_area_sectors() const { return size_sectors_ - 4; }
  std::uint32_t third_sectors() const { return record_area_sectors() / 3; }
  int current_third() const { return current_third_; }
  std::uint64_t next_lsn() const { return next_lsn_; }

  // Sectors a record with n pages occupies (for capacity planning/tests).
  static std::uint32_t RecordSectors(std::uint32_t n) { return 2 * n + 5; }

 private:
  static constexpr std::uint32_t kNoOffset = 0xFFFFFFFFu;

  // One element of the live-record index: every record (and skip marker)
  // between the persisted oldest pointer and pos_, in LSN order. The front
  // is what the on-disk pointer names; checkpoints pop from the front,
  // third reclamation pops whole thirds, appends push at the back.
  struct LiveRecord {
    std::uint64_t lsn = 0;
    std::uint32_t offset = 0;      // within the record area
    bool group_boundary = true;    // group-start record or standalone marker
  };

  int ThirdOf(std::uint32_t offset) const {
    const std::uint32_t t = offset / third_sectors();
    return static_cast<int>(t > 2 ? 2 : t);
  }
  std::uint32_t ThirdStart(int third) const {
    return static_cast<std::uint32_t>(third) * third_sectors();
  }
  sim::Lba AreaLba(std::uint32_t offset) const { return base_ + 4 + offset; }

  Status WritePointer();
  Result<std::uint32_t> ReadPointer();
  // Skip-marker + third-entry handling for an append of `len` sectors:
  // ensures [pos_, pos_+len) lies inside one third, invoking `enter_third`
  // and advancing the oldest pointer when a new third is entered.
  Status PrepareSpace(std::uint32_t len, const ThirdEntryFn& enter_third);
  // Appends one already-prepared record at pos_ (no boundary handling).
  Status AppendPrepared(std::span<const PageImage> pages, bool group_start,
                        bool group_end);

  std::vector<std::uint8_t> BuildHeaderSector(std::span<const PageImage> pages,
                                              bool group_start,
                                              bool group_end) const;
  std::vector<std::uint8_t> BuildEndSector() const;
  std::vector<std::uint8_t> BuildMarkerSector() const;

  sim::BlockDevice* disk_;
  sim::Lba base_;
  std::uint32_t size_sectors_;

  std::uint64_t next_lsn_ = 1;
  std::uint32_t boot_count_ = 0;
  std::uint32_t pos_ = 0;  // next write offset within the record area
  int current_third_ = 0;
  std::uint32_t oldest_pointer_ = 0;
  std::deque<LiveRecord> live_;
  LogStats stats_;
  CommitQueue commit_queue_;
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_LOG_H_
