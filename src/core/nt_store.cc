#include "src/core/nt_store.h"

#include <algorithm>

#include "src/btree/btree.h"
#include "src/sim/scheduler.h"
#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/serial.h"

namespace cedar::core {
namespace {

constexpr std::uint32_t kRemapMagic = 0x4E54524D;  // "NTRM"
constexpr std::size_t kSeqOffset = 504;
constexpr std::size_t kCrcOffset = 508;

}  // namespace

// The elevator scheduler plus a record of every queued (lba, image), so a
// flush that hits a bad sector can replay the batch one write at a time
// through NtStore::Flush's repair path. Queued spans are borrowed until the
// flush.
struct HomeBatch {
  HomeBatch(sim::BlockDevice* disk, bool reorder) : sched(disk, reorder) {}
  void QueueWrite(sim::Lba lba, std::span<const std::uint8_t> image) {
    sched.QueueWrite(lba, image);
    writes.emplace_back(lba, image);
  }
  sim::IoScheduler sched;
  std::vector<std::pair<sim::Lba, std::span<const std::uint8_t>>> writes;
};

Status MediaHealth::ReadWithRetry(sim::Lba start, std::span<std::uint8_t> out,
                                  std::vector<std::uint32_t>* bad) {
  Status status = disk_->Read(start, out, bad);
  std::uint32_t attempts = 0;
  while (status.code() == ErrorCode::kReadTransient &&
         attempts < kReadRetryLimit) {
    ++attempts;
    c.read_retries->Increment();
    status = disk_->Read(start, out, bad);
  }
  if (status.code() != ErrorCode::kReadTransient) {
    return status;
  }
  c.read_retry_exhausted->Increment();
  const sim::Lba last = start + static_cast<sim::Lba>(out.size() / 512) - 1;
  std::string span_text = "lba " + std::to_string(start);
  if (last > start) {
    span_text += ".." + std::to_string(last);
  }
  return MakeError(ErrorCode::kReadTransient,
                   "read retries exhausted (" +
                       std::to_string(kReadRetryLimit) + "), " + span_text +
                       ": " + status.message());
}

void MediaHealth::NoteUnrepairable(const std::string& note) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_.push_back(note);
  ++unrepairable_;
}

void MediaHealth::NoteLostNtPage(std::uint32_t pid) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_.push_back("name-table page " + std::to_string(pid) +
                   ": both home copies unreadable");
  ++nt_pages_lost_;
  ++unrepairable_;
}

void MediaHealth::Reset() {
  set_degraded(false);
  std::lock_guard<std::mutex> lock(mu_);
  notes_.clear();
  nt_pages_lost_ = 0;
  unrepairable_ = 0;
}

fs::HealthStats MediaHealth::Snapshot() const {
  fs::HealthStats h;
  h.degraded = degraded();
  h.repairs = c.repairs->value();
  h.remaps = c.remaps->value();
  h.corruption_detected = c.corruption_detected->value();
  h.read_retry_exhausted = c.read_retry_exhausted->value();
  std::lock_guard<std::mutex> lock(mu_);
  h.nt_pages_lost = nt_pages_lost_;
  h.unrepairable = unrepairable_;
  h.notes = notes_;
  return h;
}

NtStore::NtStore(sim::BlockDevice* disk, const FsdLayout& layout,
                 const FsdConfig& config, obs::MetricsRegistry* metrics,
                 MediaHealth* health)
    : disk_(disk),
      layout_(layout),
      pages_(layout.nt_pages),
      durability_(config.durability),
      per_sector_io_(config.cpu.per_sector_io),
      health_(health),
      c_{*metrics} {
  CEDAR_CHECK(disk != nullptr && health != nullptr);
}

bool NtStore::ParseTrailer(std::span<const std::uint8_t> sector,
                           std::uint32_t* seq) {
  CEDAR_CHECK(sector.size() == 512);
  if (!CheckSeal(sector, kCrcOffset)) {
    return false;
  }
  if (seq != nullptr) {
    *seq = ByteReader(sector.subspan(kSeqOffset, 4)).U32();
  }
  return true;
}

std::vector<std::uint8_t> NtStore::Compose(
    std::span<const std::uint8_t> payload) {
  CEDAR_CHECK(payload.size() == kPayload);
  std::vector<std::uint8_t> sector(payload.begin(), payload.end());
  ByteWriter w(&sector);
  w.U32(seq_clock_.fetch_add(1, std::memory_order_relaxed) + 1);
  w.U32(Crc32(sector));
  return sector;
}

void NtStore::MergeSeq(std::uint32_t seq) {
  std::uint32_t cur = seq_clock_.load(std::memory_order_relaxed);
  while (seq > cur && !seq_clock_.compare_exchange_weak(
                          cur, seq, std::memory_order_relaxed)) {
  }
}

NtStore::Vote NtStore::VoteCopies(std::span<const std::uint8_t> a,
                                  bool readable_a,
                                  std::span<const std::uint8_t> b,
                                  bool readable_b, bool read_b,
                                  obs::Counter* corruption) {
  readable_b = readable_b && read_b;
  Vote vote;
  std::uint32_t seq_a = 0;
  std::uint32_t seq_b = 0;
  vote.ok_a = readable_a && ParseTrailer(a, &seq_a);
  vote.ok_b = readable_b && ParseTrailer(b, &seq_b);
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

NtStore::Homes NtStore::HomesOf(std::uint32_t pid) const {
  return Homes{.primary = Map(layout_.NtHome(FsdLayout::kPrimary, pid)),
               .replica = Map(layout_.NtHome(FsdLayout::kReplica, pid))};
}

sim::Lba NtStore::Map(sim::Lba lba) const {
  std::lock_guard<std::mutex> lock(remap_mu_);
  const auto it = remap_.find(lba);
  return it == remap_.end() ? lba : it->second;
}

std::optional<NtStore::CopyRef> NtStore::CopyAt(sim::Lba lba) const {
  if (std::optional<CopyRef> home = layout_.NtCopyAt(lba)) {
    return home;
  }
  std::lock_guard<std::mutex> lock(remap_mu_);
  for (const auto& [home, spare] : remap_) {
    if (spare == lba) {
      return layout_.NtCopyAt(home);
    }
  }
  return std::nullopt;
}

Status NtStore::Format() {
  seq_clock_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(remap_mu_);
    remap_.clear();
  }
  // Both copies of every band, and the spare tail of each band cylinder
  // with them: the bands are one span of the complex.
  constexpr std::uint32_t kZeroChunk = 1024;
  const auto span =
      static_cast<std::uint32_t>(layout_.nt_end - layout_.nt_base);
  std::vector<std::uint8_t> zeros(
      static_cast<std::size_t>(std::min(kZeroChunk, span)) * 512);
  for (std::uint32_t off = 0; off < span; off += kZeroChunk) {
    const std::uint32_t take = std::min(kZeroChunk, span - off);
    const Status wiped = disk_->Write(
        layout_.nt_base + off,
        std::span<const std::uint8_t>(zeros.data(),
                                      static_cast<std::size_t>(take) * 512));
    if (wiped.code() == ErrorCode::kDeviceCrashed) {
      return wiped;
    }
  }
  return SaveRemapTable();
}

Status NtStore::ReadRegion(sim::Lba base, std::uint32_t count,
                           std::span<std::uint8_t> buf,
                           std::vector<std::uint32_t>* bad,
                           obs::Counter* read_us) {
  const sim::Micros start = disk_->clock().now();
  CEDAR_RETURN_IF_ERROR(health_->ReadWithRetry(base, buf, bad));
  CEDAR_RETURN_IF_ERROR(PatchRemapped(base, count, buf, bad));
  read_us->Add(disk_->clock().now() - start);
  disk_->clock().AdvanceCpu(per_sector_io_ * count);
  return OkStatus();
}

Status NtStore::ReadCluster(
    std::uint32_t id,
    const std::function<bool(std::uint32_t, std::span<const std::uint8_t>)>&
        accept) {
  // Tree pages allocate roughly sequentially, so siblings come along for
  // free — the clustering effect the paper gets from its larger pages.
  const std::uint32_t cluster = durability_.nt_read_ahead_pages;
  const std::uint32_t first = (id / cluster) * cluster;
  const std::uint32_t count = std::min(cluster, pages_ - first);
  std::vector<std::uint8_t> a(static_cast<std::size_t>(count) * 512);
  std::vector<std::uint8_t> b(a.size());
  std::vector<std::uint32_t> bad_a;
  std::vector<std::uint32_t> bad_b;
  CEDAR_RETURN_IF_ERROR(ReadRegion(
      layout_.NtHome(FsdLayout::kPrimary, first), count, a, &bad_a,
      c_.miss_primary_us));
  auto is_bad = [](const std::vector<std::uint32_t>& bad, std::uint32_t i) {
    return std::find(bad.begin(), bad.end(), i) != bad.end();
  };
  auto sector_of = [](std::vector<std::uint8_t>& region, std::uint32_t i) {
    return std::span<const std::uint8_t>(region).subspan(
        static_cast<std::size_t>(i) * 512, 512);
  };
  const bool read_b = durability_.double_read_check || !bad_a.empty() ||
                      !ParseTrailer(sector_of(a, id - first), nullptr);
  if (read_b) {
    CEDAR_RETURN_IF_ERROR(ReadRegion(
        layout_.NtHome(FsdLayout::kReplica, first), count, b, &bad_b,
        c_.miss_replica_us));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t pid = first + i;
    const auto page_a = sector_of(a, i);
    const auto page_b = sector_of(b, i);
    const Vote vote =
        VoteCopies(page_a, !is_bad(bad_a, i), page_b, !is_bad(bad_b, i),
                   read_b, health_->c.corruption_detected);
    if (!vote.any()) {
      if (pid == id) {
        health_->NoteLostNtPage(pid);
        return MakeError(ErrorCode::kSectorDamaged,
                         "both name-table copies unreadable, page " +
                             std::to_string(pid));
      }
      continue;  // a free page, or a loss the per-page path will report
    }
    const auto good = vote.b_wins ? page_b : page_a;
    // A page already cached keeps its (possibly dirty) frame and skips the
    // repair: a newer image will reach home through a checkpoint anyway.
    if (!accept(pid, good)) {
      continue;
    }
    MergeSeq(vote.seq);
    if (vote.diverged && !health_->degraded()) {
      // Remap exhaustion is noted by the repair; the page still has one
      // good copy, so the read succeeds either way.
      const Result<Repair> fixed = RepairCopy(LoserOf(vote, pid), good);
      if (fixed.status().code() == ErrorCode::kDeviceCrashed) {
        return fixed.status();
      }
      if (fixed.ok() && *fixed == Repair::kWritten) {
        health_->CountNtRepair();
      }
    }
  }
  return OkStatus();
}

Status NtStore::Sweep(btree::PageId root, NtImages* images) {
  const std::uint32_t n = pages_;
  std::vector<std::uint8_t> region_a(static_cast<std::size_t>(n) * 512);
  std::vector<std::uint8_t> region_b(static_cast<std::size_t>(n) * 512);
  // Per page: both copies sit in the buffers; the walk reached it; the
  // device flagged a copy bad.
  std::vector<bool> in_buffer(n, false);
  std::vector<bool> reached(n, false);
  std::vector<bool> bad_a(n, false);
  std::vector<bool> bad_b(n, false);
  // Reached pages whose copies are buffered (voted next) or still on disk
  // (read by the next round).
  std::vector<std::uint32_t> ready;
  std::vector<std::uint32_t> unread;
  auto reach = [&](std::uint32_t pid) {
    if (!reached[pid]) {
      reached[pid] = true;
      (in_buffer[pid] ? ready : unread).push_back(pid);
    }
  };
  if (root < n) {
    reach(root);
  }
  HomeBatch repairs(disk_, durability_.batched_writeback);
  const bool degraded = health_->degraded();
  // The primaries' buffer doubles as the winners: a winning replica is
  // copied into its primary's slot once the election is made.
  std::vector<bool> present(n, false);
  images->sectors_read = 0;
  while (!ready.empty() || !unread.empty()) {
    if (ready.empty()) {
      std::sort(unread.begin(), unread.end());
      CEDAR_RETURN_IF_ERROR(ReadRound(unread, region_a, region_b, &in_buffer,
                                      &bad_a, &bad_b, &images->sectors_read));
      ready.swap(unread);
    }
    const std::uint32_t pid = ready.back();
    ready.pop_back();
    auto a = std::span<std::uint8_t>(region_a).subspan(
        static_cast<std::size_t>(pid) * 512, 512);
    auto b = std::span<const std::uint8_t>(region_b)
                 .subspan(static_cast<std::size_t>(pid) * 512, 512);
    const Vote vote = VoteCopies(a, !bad_a[pid], b, !bad_b[pid],
                                 /*read_b=*/true,
                                 health_->c.corruption_detected);
    if (!vote.any()) {
      continue;  // a lost page: the rebuild's walk reports it
    }
    MergeSeq(vote.seq);
    if (vote.b_wins) {
      std::copy(b.begin(), b.end(), a.begin());
    }
    present[pid] = true;
    if (vote.diverged && !degraded) {
      repairs.QueueWrite(LoserOf(vote, pid), a);
      health_->CountNtRepair();
    }
    for (const btree::PageId child :
         btree::BTree::ChildrenOf(a.first(kPayload), n)) {
      reach(child);
    }
  }
  CEDAR_RETURN_IF_ERROR(Flush(repairs));
  images->sectors = std::move(region_a);
  images->present = std::move(present);
  return OkStatus();
}

Status NtStore::ReadRound(std::span<const std::uint32_t> pids,
                          std::span<std::uint8_t> region_a,
                          std::span<std::uint8_t> region_b,
                          std::vector<bool>* in_buffer,
                          std::vector<bool>* bad_a, std::vector<bool>* bad_b,
                          std::uint64_t* sectors_read) {
  // Pages less than a track apart share one run: reading through the gap
  // costs less than the revolution a separate request would lose. A run
  // stops short of a buffered page (its slot may already hold an elected
  // replica), at the scheduler's transfer cap and at a band's end, where
  // the next page's copies sit on the next cylinder.
  constexpr std::uint32_t kMaxRun = 1024;
  const std::uint32_t track = disk_->geometry().sectors_per_track;
  struct Run {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    std::array<std::vector<std::uint32_t>, 2> bad;
  };
  std::vector<Run> runs;
  for (const std::uint32_t pid : pids) {
    if (!runs.empty()) {
      Run& run = runs.back();
      const std::uint32_t end = run.first + run.count;
      if (pid - (end - 1) < track && pid + 1 - run.first <= kMaxRun &&
          layout_.SameNtBand(run.first, pid) &&
          std::none_of(in_buffer->begin() + end, in_buffer->begin() + pid,
                       [](bool buffered) { return buffered; })) {
        run.count = pid + 1 - run.first;
        continue;
      }
    }
    runs.push_back(Run{.first = pid, .count = 1, .bad = {}});
  }
  auto slice = [](std::span<std::uint8_t> region, const Run& run) {
    return region.subspan(static_cast<std::size_t>(run.first) * 512,
                          static_cast<std::size_t>(run.count) * 512);
  };
  sim::IoScheduler sched(disk_, durability_.batched_writeback, kMaxRun);
  auto home = [&](int copy, const Run& run) {
    return layout_.NtHome(copy, run.first);
  };
  for (Run& run : runs) {
    sched.QueueRead(home(FsdLayout::kPrimary, run), slice(region_a, run),
                    &run.bad[0]);
    sched.QueueRead(home(FsdLayout::kReplica, run), slice(region_b, run),
                    &run.bad[1]);
  }
  CEDAR_RETURN_IF_ERROR(sched.Flush());
  for (Run& run : runs) {
    CEDAR_RETURN_IF_ERROR(PatchRemapped(home(FsdLayout::kPrimary, run),
                                        run.count, slice(region_a, run),
                                        &run.bad[0]));
    CEDAR_RETURN_IF_ERROR(PatchRemapped(home(FsdLayout::kReplica, run),
                                        run.count, slice(region_b, run),
                                        &run.bad[1]));
    for (std::uint32_t i = 0; i < run.count; ++i) {
      (*in_buffer)[run.first + i] = true;
    }
    for (const std::uint32_t i : run.bad[0]) {
      (*bad_a)[run.first + i] = true;
    }
    for (const std::uint32_t i : run.bad[1]) {
      (*bad_b)[run.first + i] = true;
    }
    *sectors_read += 2 * std::uint64_t{run.count};
  }
  return OkStatus();
}

Result<NtStore::Copies> NtStore::ReadCopies(std::uint32_t pid,
                                            obs::Counter* corruption) {
  const Homes homes = HomesOf(pid);
  Copies copies;
  std::array<bool, 2> readable{};
  for (int c = 0; c < 2; ++c) {
    std::vector<std::uint32_t> bad;
    const Status read = health_->ReadWithRetry(
        c == 0 ? homes.primary : homes.replica, copies.sector[c], &bad);
    if (read.code() == ErrorCode::kDeviceCrashed) {
      return read;
    }
    readable[c] = read.ok() && bad.empty();
  }
  copies.vote = VoteCopies(copies.sector[0], readable[0], copies.sector[1],
                           readable[1], /*read_b=*/true, corruption);
  return copies;
}

Status NtStore::PatchRemapped(sim::Lba base, std::uint32_t count,
                              std::span<std::uint8_t> buf,
                              std::vector<std::uint32_t>* bad) {
  std::vector<std::pair<sim::Lba, sim::Lba>> moved;
  {
    std::lock_guard<std::mutex> lock(remap_mu_);
    for (auto it = remap_.lower_bound(base);
         it != remap_.end() && it->first < base + count; ++it) {
      moved.push_back(*it);
    }
  }
  for (const auto& [home, spare] : moved) {
    const auto i = static_cast<std::uint32_t>(home - base);
    bad->erase(std::remove(bad->begin(), bad->end(), i), bad->end());
    std::vector<std::uint32_t> spare_bad;
    const Status read = health_->ReadWithRetry(
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

Result<NtStore::Repair> NtStore::RepairCopy(
    sim::Lba lba, std::span<const std::uint8_t> image) {
  const Status wrote = disk_->Write(lba, image);
  if (wrote.ok()) {
    return Repair::kWritten;
  }
  if (wrote.code() == ErrorCode::kDeviceCrashed) {
    return wrote;
  }
  const std::optional<CopyRef> copy = CopyAt(lba);
  if (!copy) {
    return wrote;  // not (or no longer) a name-table copy: nothing to remap
  }
  const sim::Lba home = layout_.NtHome(
      copy->replica ? FsdLayout::kReplica : FsdLayout::kPrimary, copy->pid);
  const sim::Lba spare_low = layout_.remap_base + FsdLayout::kRemapDirCopies;
  const sim::Lba spare_high = layout_.remap_base + layout_.remap_sectors;
  for (sim::Lba spare = spare_low; spare < spare_high; ++spare) {
    // A spare already serving any copy is off limits — including this
    // copy's own current spare, which is the sector that just failed when a
    // remap moves.
    if (CopyAt(spare).has_value()) {
      continue;
    }
    const Status moved = disk_->Write(spare, image);
    if (moved.code() == ErrorCode::kDeviceCrashed) {
      return moved;
    }
    if (!moved.ok()) {
      continue;  // this spare is bad too; try the next
    }
    {
      std::lock_guard<std::mutex> lock(remap_mu_);
      remap_[home] = spare;
    }
    CEDAR_RETURN_IF_ERROR(SaveRemapTable());
    health_->c.remaps->Increment();
    return Repair::kRemapped;
  }
  health_->NoteUnrepairable(
      "spare pool exhausted remapping name-table home lba " +
      std::to_string(home));
  return MakeError(ErrorCode::kNoFreeSpace, "name-table spare pool exhausted");
}

Status NtStore::WriteHomes(std::span<const HomeWrite> pages) {
  HomeBatch primary(disk_, durability_.batched_writeback);
  HomeBatch replica(disk_, durability_.batched_writeback);
  for (const HomeWrite& page : pages) {
    primary.QueueWrite(page.primary, page.image);
    if (page.replica != kNoLba) {
      replica.QueueWrite(page.replica, page.image);
    }
  }
  CEDAR_RETURN_IF_ERROR(Flush(primary));
  return Flush(replica);
}

Status NtStore::Flush(HomeBatch& batch) {
  if (batch.writes.empty()) {
    return OkStatus();
  }
  sim::BatchStats stats;
  const Status status = batch.sched.Flush(&stats);
  c_.batches->Increment();
  c_.requests->Add(stats.requests_queued);
  c_.coalesced->Add(stats.requests_merged);
  if (status.ok() || status.code() == ErrorCode::kDeviceCrashed) {
    return status;
  }
  // The elevator flush hit bad media somewhere in the batch; replay the
  // writes one at a time so the one bad sector is isolated, retried and,
  // for a name-table copy, remapped instead of failing the whole sweep.
  for (const auto& [lba, image] : batch.writes) {
    if (CopyAt(lba).has_value()) {
      CEDAR_RETURN_IF_ERROR(RepairCopy(lba, image).status());
      continue;
    }
    // A leader page: reconstructible from its name-table entry, so the loss
    // degrades reads but never the namespace. Attribute it and keep going.
    const Status wrote = disk_->Write(lba, image);
    if (wrote.code() == ErrorCode::kDeviceCrashed) {
      return wrote;
    }
    if (!wrote.ok()) {
      health_->NoteUnrepairable("unwritable sector at lba " +
                                std::to_string(lba) + ": " + wrote.message());
    }
  }
  return OkStatus();
}

std::vector<std::uint8_t> NtStore::EncodeRemapDirectory(
    const std::map<sim::Lba, sim::Lba>& table) {
  ByteWriter w;
  w.U32(kRemapMagic);
  w.U32(static_cast<std::uint32_t>(table.size()));
  for (const auto& [from, to] : table) {
    // Wire stays 32-bit: volume LBAs are bounded to 2^31 by FsdLayout.
    w.U32(static_cast<std::uint32_t>(from));
    w.U32(static_cast<std::uint32_t>(to));
  }
  return SealSector(std::move(w));
}

Result<std::map<sim::Lba, sim::Lba>> NtStore::DecodeRemapDirectory(
    std::span<const std::uint8_t> sector, const FsdLayout& layout) {
  auto corrupt = [](const std::string& why) {
    return MakeError(ErrorCode::kCorruptMetadata, "remap directory " + why);
  };
  ByteReader r(sector);
  if (r.U32() != kRemapMagic) {
    return MakeError(ErrorCode::kNotFound, "no remap directory");
  }
  const std::uint32_t count = r.U32();
  if (count > (512 - 12) / 8) {
    return corrupt("entry count out of range");
  }
  std::vector<std::pair<sim::Lba, sim::Lba>> entries(count);
  for (auto& [from, to] : entries) {
    from = r.U32();
    to = r.U32();
  }
  if (!r.ok() || !CheckSeal(sector, r.position())) {
    return corrupt("crc mismatch");
  }
  // A valid CRC vouches for the bytes, not for what they say: an entry
  // that is not a home -> own-spare pair would route name-table reads and
  // writes to an arbitrary sector.
  const sim::Lba spare_low = layout.remap_base + FsdLayout::kRemapDirCopies;
  std::vector<bool> spare_taken(layout.remap_sectors, false);
  std::map<sim::Lba, sim::Lba> table;
  for (const auto& [from, to] : entries) {
    if (!layout.NtCopyAt(from).has_value() || to < spare_low ||
        to >= layout.remap_base + layout.remap_sectors ||
        spare_taken[to - layout.remap_base] ||
        !table.emplace(from, to).second) {
      return corrupt("entry " + std::to_string(from) + " -> " +
                     std::to_string(to) + " is not a home -> own spare");
    }
    spare_taken[to - layout.remap_base] = true;
  }
  return table;
}

Status NtStore::SaveRemapTable() {
  std::vector<std::uint8_t> dir;
  {
    std::lock_guard<std::mutex> lock(remap_mu_);
    dir = EncodeRemapDirectory(remap_);
  }
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
  health_->NoteUnrepairable("remap directory unwritable: " + first.message());
  return first;
}

Status NtStore::LoadRemapTable() {
  {
    std::lock_guard<std::mutex> lock(remap_mu_);
    remap_.clear();
  }
  bool damage_seen = false;
  for (std::uint32_t copy = 0; copy < FsdLayout::kRemapDirCopies; ++copy) {
    std::vector<std::uint8_t> dir(512);
    std::vector<std::uint32_t> bad;
    const Status read =
        health_->ReadWithRetry(layout_.remap_base + copy, dir, &bad);
    if (read.code() == ErrorCode::kDeviceCrashed) {
      return read;
    }
    if (!read.ok() || !bad.empty()) {
      damage_seen = true;
      continue;
    }
    Result<std::map<sim::Lba, sim::Lba>> table =
        DecodeRemapDirectory(dir, layout_);
    if (!table.ok()) {
      // No magic at all is a blank sector, not damage.
      damage_seen =
          damage_seen || table.status().code() != ErrorCode::kNotFound;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(remap_mu_);
      remap_ = std::move(*table);
    }
    if (copy != 0 && !health_->degraded()) {
      // Copy 0 was lost or stale; refresh it from the survivor.
      if (disk_->Write(layout_.remap_base, dir).ok()) {
        health_->c.repairs->Increment();
      }
    }
    return OkStatus();
  }
  // No valid directory. An empty table is the common (undamaged) case; only
  // note when damage was seen — mappings may exist that cannot be
  // recovered, and reads through dead originals will surface per page.
  if (damage_seen) {
    health_->NoteUnrepairable("remap directory unreadable (both copies)");
  }
  return OkStatus();
}

Status NtImageStore::ReadPage(btree::PageId id, std::span<std::uint8_t> out) {
  if (id >= images_->present.size() || !images_->present[id]) {
    health_->NoteLostNtPage(id);
    return MakeError(ErrorCode::kSectorDamaged,
                     "both name-table copies unreadable, page " +
                         std::to_string(id));
  }
  std::copy_n(images_->sectors.begin() + static_cast<std::size_t>(id) * 512,
              NtStore::kPayload, out.begin());
  return OkStatus();
}

}  // namespace cedar::core
