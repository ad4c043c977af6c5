// The name table's two home copies (paper sections 5.1 and 5.8; DESIGN.md
// section 4h). Every name-table page is written twice — a primary on the
// lower tracks of a band cylinder next to the log and a replica on the same
// cylinder's upper tracks (FsdLayout::NtHome) — and this module owns every
// decision about those copies: the sector format (payload + sequence/CRC
// trailer), the vote between the copies, the bad-sector remap table that
// moves a dead home to a spare, the miss path's cluster read, the mount
// sweep of the live tree, the per-page reader of scrub and fsck, and the
// one repair routine. It needs no Fsd: Fsd keeps
// only the cache-facing B-tree page store and calls in here, and tests
// build it on a bare disk.

#ifndef CEDAR_CORE_NT_STORE_H_
#define CEDAR_CORE_NT_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/btree/page_store.h"
#include "src/core/layout.h"
#include "src/core/log.h"
#include "src/fsapi/file_system.h"
#include "src/obs/metrics.h"
#include "src/sim/device.h"
#include "src/util/status.h"

namespace cedar::core {

// The media-health sink FSD and the name-table store share: the fault
// counters and attribution notes Health() reports, the degraded-mount flag
// every repair checks, and the bounded-retry read of every metadata path.
class MediaHealth {
 public:
  // Soft (transient) read errors are reissued up to this many times, each
  // counted in fsd.read_retries, before the error surfaces.
  static constexpr std::uint32_t kReadRetryLimit = 3;

  MediaHealth(sim::BlockDevice* disk, obs::MetricsRegistry* metrics)
      : c{*metrics}, disk_(disk) {}

  // BlockDevice::Read with bounded retry on kReadTransient (the paper's
  // section 5.8 transient-error class). When the budget is spent the error
  // names the failing LBA span and counts in fsd.read_retry_exhausted — a
  // permanently soft-failing sector surfaces cleanly, not as a bare error.
  Status ReadWithRetry(sim::Lba start, std::span<std::uint8_t> out,
                       std::vector<std::uint32_t>* bad = nullptr);

  void NoteUnrepairable(const std::string& note);
  // A name-table page with no usable copy anywhere (a note plus the
  // nt_pages_lost tally).
  void NoteLostNtPage(std::uint32_t pid);
  // One name-table copy rewritten from the other.
  void CountNtRepair() {
    c.nt_repairs->Increment();
    c.repairs->Increment();
  }
  // Format: no notes, no tallies, not degraded.
  void Reset();
  fs::HealthStats Snapshot() const;

  // Degraded read-only mount (section 4h): set by MountDegraded, cleared by
  // Format and Mount. Nothing repairs or remaps while it is set.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  void set_degraded(bool on) {
    degraded_.store(on, std::memory_order_relaxed);
  }

  // Media-fault counters (section 4h). nt_repairs counts name-table copy
  // rewrites from the other copy; repairs every successful repair from
  // redundancy (name-table copies, leader rebuilds, volume-root and
  // remap-directory restores); remaps name-table homes durably moved to
  // spares; corruption_detected content-CRC mismatches on otherwise
  // successful reads; read_retries soft read errors absorbed by the bounded
  // retry, read_retry_exhausted the reads whose retry gave up.
  struct Counters {
    obs::MetricsRegistry& m;
    obs::Counter* nt_repairs = m.GetCounter("fsd.nt_repairs");
    obs::Counter* repairs = m.GetCounter("fsd.repairs");
    obs::Counter* remaps = m.GetCounter("fsd.remaps");
    obs::Counter* corruption_detected =
        m.GetCounter("fsd.corruption_detected");
    obs::Counter* read_retries = m.GetCounter("fsd.read_retries");
    obs::Counter* read_retry_exhausted =
        m.GetCounter("fsd.read_retry_exhausted");
  } c;

 private:
  sim::BlockDevice* disk_;
  std::atomic<bool> degraded_{false};
  // Leaf mutex over the notes and tallies that have no natural counter.
  mutable std::mutex mu_;
  std::vector<std::string> notes_;
  std::uint64_t nt_pages_lost_ = 0;
  std::uint64_t unrepairable_ = 0;
};

// A batch of home-sector writes (nt_store.cc).
struct HomeBatch;

// The elected winner of every page the mount sweep reached, in page order:
// page p's 512-byte sector sits at sectors[p * 512] when present[p];
// present[p] is false for a page the walk never reached (a free page) and
// for one whose copies both failed (a lost page). sectors_read counts the
// home sectors the sweep read, both copies.
struct NtImages {
  std::vector<std::uint8_t> sectors;
  std::vector<bool> present;
  std::uint64_t sectors_read = 0;
};

class NtStore {
 public:
  // Every home sector is 504 bytes of tree payload plus an 8-byte trailer:
  // a u32 write sequence from a volume-global monotonic clock and a u32 CRC
  // over the first 508 bytes. The CRC catches silent corruption (bit rot
  // under an intact label, which the device acks as a good read); the
  // sequence arbitrates between two copies that BOTH validate but disagree
  // — a dropped home write leaves the stale copy with the lower stamp.
  // Cache frames and log images carry the full composed sector, so group
  // commit and recovery replay preserve trailers without knowing about them.
  static constexpr std::uint32_t kPayload = 504;

  // Reads durability.{double_read_check, nt_read_ahead_pages,
  // batched_writeback} and cpu.per_sector_io from `config`; the table's
  // size comes from `layout`.
  NtStore(sim::BlockDevice* disk, const FsdLayout& layout,
          const FsdConfig& config, obs::MetricsRegistry* metrics,
          MediaHealth* health);

  // ---- Sector format and the sequence clock.

  // Validates `sector`'s trailer CRC; on success stores the write sequence
  // in *seq (when non-null). Free (never-written) pages fail the CRC.
  static bool ParseTrailer(std::span<const std::uint8_t> sector,
                           std::uint32_t* seq);
  // A full 512-byte home sector: payload, fresh sequence stamp, CRC.
  std::vector<std::uint8_t> Compose(std::span<const std::uint8_t> payload);
  // The clock must dominate every stamp on disk or the vote could prefer a
  // stale copy. Mount max-merges it from the volume root (a floor persisted
  // at every root write), every page the sweep votes on and every replayed
  // log image; Format resets it. The sweep skips free pages, whose stamps
  // a newer parent image dominates (DESIGN.md section 4h).
  void MergeSeq(std::uint32_t seq);
  // MergeSeq of `sector`'s sequence when its trailer validates.
  void MergeTrailerSeq(std::span<const std::uint8_t> sector) {
    std::uint32_t seq = 0;
    if (ParseTrailer(sector, &seq)) {
      MergeSeq(seq);
    }
  }
  std::uint32_t seq_clock() const {
    return seq_clock_.load(std::memory_order_relaxed);
  }

  // ---- The vote: the one election between a page's two copies. `a` is
  // the primary's sector and `b` the replica's; readable_* says the device
  // returned the sector; read_b is false when the caller never read the
  // replica. A copy is ok when readable with a valid trailer. The winner is
  // the ok copy with the higher sequence, the primary on a tie; seq is the
  // higher ok sequence, and diverged says the replica was read and the
  // loser must be rewritten. A readable copy whose CRC fails while the
  // other copy is ok is silent corruption caught, counted in *corruption
  // (when non-null).
  struct Vote {
    bool ok_a = false;
    bool ok_b = false;
    bool b_wins = false;
    std::uint32_t seq = 0;
    bool diverged = false;
    bool any() const { return ok_a || ok_b; }
  };
  static Vote VoteCopies(std::span<const std::uint8_t> a, bool readable_a,
                         std::span<const std::uint8_t> b, bool readable_b,
                         bool read_b, obs::Counter* corruption);

  // ---- Addresses. Every home read and write goes through the remap table
  // (and so does the force's capture, so log records carry post-remap
  // addresses and replay is self-contained).

  // The sectors currently serving page `pid`'s primary and replica.
  struct Homes {
    sim::Lba primary = 0;
    sim::Lba replica = 0;
  };
  Homes HomesOf(std::uint32_t pid) const;
  // The sector currently serving home `lba` (itself unless remapped; any
  // other sector maps to itself).
  sim::Lba Map(sim::Lba lba) const;
  // The copy `lba` holds — a home, or the spare standing in for one — or
  // nullopt for a sector outside the name table.
  using CopyRef = FsdLayout::NtCopyRef;
  std::optional<CopyRef> CopyAt(sim::Lba lba) const;
  // The sector serving the copy `vote` lost, for page `pid`.
  sim::Lba LoserOf(const Vote& vote, std::uint32_t pid) const {
    const Homes homes = HomesOf(pid);
    return vote.b_wins ? homes.primary : homes.replica;
  }

  // ---- Lifecycle.

  // A fresh volume: clock at zero, both copies' bands zeroed (a reused disk
  // could hold trailers that still validate, and the vote must never
  // resurrect them; a pre-damaged sector is tolerated), and an empty remap
  // directory in both copies.
  Status Format();
  // Loads the remap directory at mount, before replay or the sweep touch a
  // home: the first copy that decodes wins, and a stale copy 0 is
  // refreshed from copy 1 unless degraded. With no valid copy the table is
  // empty, noted when damage was seen.
  Status LoadRemapTable();

  // ---- Reads.

  // The miss path: reads the aligned cluster of durability.
  // nt_read_ahead_pages around page `id` from the primaries in one request,
  // and from the replicas (same cylinder, one band later) only under
  // double_read_check or when the primary of `id` is bad (each copy
  // charged per sector), then votes page by page. Each
  // winner is offered to `accept(pid, sector)`, which returns whether it
  // cached the page; only then is the clock merged and a diverged loser
  // repaired. Fails kSectorDamaged (and notes the loss) when page `id` has
  // no valid copy; a cluster neighbour without one is skipped.
  Status ReadCluster(
      std::uint32_t id,
      const std::function<bool(std::uint32_t, std::span<const std::uint8_t>)>&
          accept);
  // The mount sweep: a walk of the tree from `root` that reads only the
  // pages it reaches (DESIGN.md section 4h). Each round reads every reached
  // page not yet buffered, both copies, in one elevator batch; a vote per
  // page, the clock merged, the winner's children reached. Every diverged
  // loser is rewritten in one batch (not when degraded), and the winners
  // are handed back. Free pages are never read: their stale stamps stay
  // below the clock because freeing a page rewrites its parent.
  Status Sweep(btree::PageId root, NtImages* images);
  // Both copies of page `pid`, read one at a time through the remap table
  // (no CPU charge), and their vote. Fails only when the device crashed.
  struct Copies {
    std::array<std::array<std::uint8_t, 512>, 2> sector{};
    Vote vote;
    std::span<const std::uint8_t> winner() const {
      return sector[vote.b_wins ? 1 : 0];
    }
  };
  Result<Copies> ReadCopies(std::uint32_t pid, obs::Counter* corruption);

  // ---- Writes and repair.

  // The one repair routine: writes `image` to the name-table copy at `lba`
  // (a home, or the spare serving one). When that sector is permanently
  // bad the copy moves to a fresh spare and the directory is saved.
  // Returns kWritten or kRemapped; fails when the device crashed, the spare
  // pool is exhausted (noted) or the directory cannot be persisted.
  enum class Repair { kWritten, kRemapped };
  Result<Repair> RepairCopy(sim::Lba lba, std::span<const std::uint8_t> image);
  // One page bound for its home: a name-table page's two sectors, or a
  // leader's single home (replica kNoLba).
  struct HomeWrite {
    sim::Lba primary = 0;
    sim::Lba replica = kNoLba;
    std::span<const std::uint8_t> image;
  };
  // The one home sweep (checkpoints, shutdown, format, recovery replay):
  // two elevator batches, every primary (and leader) first, then every
  // replica, so coalescing can never merge a page's two copies.
  Status WriteHomes(std::span<const HomeWrite> pages);

  // ---- The remap directory's wire format: magic, count, count (home,
  // spare) pairs, CRC. Decode fails kNotFound on a sector without the magic
  // and kCorruptMetadata on any other sector that is not a well-formed
  // directory whose every entry maps a distinct name-table home to a
  // distinct spare of `layout`'s pool.
  static std::vector<std::uint8_t> EncodeRemapDirectory(
      const std::map<sim::Lba, sim::Lba>& table);
  static Result<std::map<sim::Lba, sim::Lba>> DecodeRemapDirectory(
      std::span<const std::uint8_t> sector, const FsdLayout& layout);

 private:
  // Issues a batch and counts it (fsd.home_write_*). When the elevator
  // flush hits a media error the batch is replayed one write at a time:
  // name-table copies go through RepairCopy; any other sector (a leader,
  // reconstructible from its entry) is noted unrepairable and dropped.
  Status Flush(HomeBatch& batch);
  // One round of the sweep: reads `pids` (ascending) from both copies as
  // runs of pages less than a track apart within one band, into their
  // slots of the region buffers, patches remapped homes within each run,
  // and marks every page a run covered as buffered and each bad copy in
  // bad_*.
  Status ReadRound(std::span<const std::uint32_t> pids,
                   std::span<std::uint8_t> region_a,
                   std::span<std::uint8_t> region_b,
                   std::vector<bool>* in_buffer, std::vector<bool>* bad_a,
                   std::vector<bool>* bad_b, std::uint64_t* sectors_read);
  // One copy's slice of a cluster: a bulk read and the remap patch, whose
  // virtual time is added to `read_us`, then its CPU charge.
  Status ReadRegion(sim::Lba base, std::uint32_t count,
                    std::span<std::uint8_t> buf,
                    std::vector<std::uint32_t>* bad, obs::Counter* read_us);
  // A bulk read of homes [base, base + count) saw the dead originals of
  // remapped sectors: each is re-read from its spare into its slot of `buf`
  // and `bad` (slot indexes) updated to what the spare read returned.
  Status PatchRemapped(sim::Lba base, std::uint32_t count,
                       std::span<std::uint8_t> buf,
                       std::vector<std::uint32_t>* bad);
  Status SaveRemapTable();

  sim::BlockDevice* disk_;
  FsdLayout layout_;
  std::uint32_t pages_;
  FsdConfig::Durability durability_;
  std::uint64_t per_sector_io_;
  MediaHealth* health_;
  struct Counters {
    obs::MetricsRegistry& m;
    // Every home write (checkpoints, shutdown, format, recovery replay,
    // repairs) goes through elevator-ordered, coalesced batches: non-empty
    // flushes, page writes queued, requests merged.
    obs::Counter* batches = m.GetCounter("fsd.home_write_batches");
    obs::Counter* requests = m.GetCounter("fsd.home_write_requests");
    obs::Counter* coalesced = m.GetCounter("fsd.home_writes_coalesced");
    // Virtual microseconds the miss path spent reading each copy's cluster
    // (device time, remap patch included, CPU charge excluded).
    obs::Counter* miss_primary_us = m.GetCounter("fsd.nt_miss_primary_us");
    obs::Counter* miss_replica_us = m.GetCounter("fsd.nt_miss_replica_us");
  } c_;
  std::atomic<std::uint32_t> seq_clock_{0};
  // Original home -> the spare serving it. remap_mu_ is a leaf mutex
  // (critical sections are map lookups only).
  mutable std::mutex remap_mu_;
  std::map<sim::Lba, sim::Lba> remap_;
};

// A read-only B-tree page store over the sweep's elected images: the
// mount-time rebuild walks the tree through it, so a cache smaller than the
// table never sends the walk back to disk. A page neither copy held is
// lost exactly as the miss path reports it.
class NtImageStore : public btree::PageStore {
 public:
  NtImageStore(const NtImages* images, MediaHealth* health)
      : images_(images), health_(health) {}

  std::uint32_t page_size() const override { return NtStore::kPayload; }
  Status ReadPage(btree::PageId id, std::span<std::uint8_t> out) override;
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

  const NtImages* images_;
  MediaHealth* health_;
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_NT_STORE_H_
