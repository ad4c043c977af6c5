// Fsd::Fsck — the fsck-style invariant checker (paper section 5.8).
//
// The robustness story of FSD is mutual checking between redundant
// structures: two name-table copies, leader pages vs. entries, the VAM vs.
// the reachable-sector set, and a self-describing log. Fsck audits each of
// those pairings and classifies every disagreement:
//
//   warning    — a state the system repairs in normal operation (a stale
//                leader, a leaked sector, a replica divergence while the
//                primary is readable). Recovery may legitimately leave
//                these behind; Scrub() clears them.
//   violation  — a state that can lose or corrupt data (both copies of a
//                live page unreadable, a referenced sector marked free, a
//                structurally broken tree, an unparsable entry).
//
// Fsck issues no writes of its own. Reads go through the normal read path,
// which may self-repair a damaged copy — that is the documented behavior of
// the read path, not a mutation by Fsck.

#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/fsd.h"
#include "src/fsapi/name_key.h"
#include "src/util/bitmap.h"
#include "src/util/check.h"

namespace cedar::core {
namespace {

std::string LbaRange(sim::Lba start, std::uint32_t count) {
  std::string s = "lba " + std::to_string(start);
  if (count > 1) {
    s += ".." + std::to_string(start + count - 1);
  }
  return s;
}

}  // namespace

std::string FsckReport::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "fsck: %llu files, %llu nt pages, %llu leaders checked; "
                "%llu violation(s), %llu warning(s)",
                static_cast<unsigned long long>(files_checked),
                static_cast<unsigned long long>(nt_pages_checked),
                static_cast<unsigned long long>(leaders_checked),
                static_cast<unsigned long long>(violations()),
                static_cast<unsigned long long>(warnings()));
  return buf;
}

Result<FsckReport> Fsd::Fsck() {
  // Quiesce client operations (and the rounds): close the op gate, drain
  // in-flight ops, and hold force_mu_, so the audit sees a consistent
  // cache/VAM/tree snapshot — the same exclusive view a log capture gets.
  ScopedQuiesce quiesce(this);
  if (!mounted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not mounted");
  }
  FsckReport report;
  auto add = [&report](FsckIssue::Severity severity, std::string code,
                       std::string detail) {
    report.issues.push_back(FsckIssue{.severity = severity,
                                      .code = std::move(code),
                                      .detail = std::move(detail)});
  };
  auto warn = [&add](std::string code, std::string detail) {
    add(FsckIssue::Severity::kWarning, std::move(code), std::move(detail));
  };
  auto violate = [&add](std::string code, std::string detail) {
    add(FsckIssue::Severity::kViolation, std::move(code), std::move(detail));
  };

  // ---- 1. Log well-formedness: both pointer copies readable and in range.
  if (Status s = log_->ValidatePointer(); !s.ok()) {
    violate("log-pointer-bad", s.message());
  }

  // ---- 2. Name-table tree structure (ordering, separators, fill).
  if (Status s = tree_->CheckInvariants(); !s.ok()) {
    violate("nt-tree-broken", s.message());
    // The passes below walk the tree; a broken tree makes their results
    // unreliable, so stop at the structural verdict.
    return report;
  }

  // ---- 3. A/B copies of every live tree page.
  std::vector<btree::PageId> live_pages;
  CEDAR_RETURN_IF_ERROR(tree_->CollectPages(&live_pages));
  const std::unordered_set<btree::PageId> live_set(live_pages.begin(),
                                                   live_pages.end());
  for (btree::PageId pid : live_pages) {
    ++report.nt_pages_checked;
    // A dirty cached frame means the home copies are legitimately stale —
    // possibly never written at all (the log holds the truth until a
    // checkpoint or flush writes them home) — so no home-copy judgement is
    // possible for this page.
    if (const cache::Frame* frame = cache_.Find(pid);
        frame != nullptr && frame->dirty) {
      continue;
    }
    // Home reads go through the remap table; a CRC-invalid trailer on a
    // readable sector is silent corruption and counts as unreadable (the
    // content cannot be trusted any more than a failed read can).
    // Read-only: the vote counts nothing here.
    CEDAR_ASSIGN_OR_RETURN(const NtStore::Copies copies,
                           nt_.ReadCopies(pid, /*corruption=*/nullptr));
    const NtStore::Vote& vote = copies.vote;
    if (!vote.any()) {
      violate("nt-both-copies-bad",
              "live name-table page " + std::to_string(pid) +
                  ": both home copies unreadable or corrupt");
      continue;
    }
    if (!vote.ok_a || !vote.ok_b) {
      warn("nt-copy-unreadable",
           "name-table page " + std::to_string(pid) + ": " +
               (vote.ok_a ? "replica" : "primary") +
               " copy unreadable or corrupt (repairable from the other)");
      continue;
    }
    if (vote.diverged) {
      warn("nt-copies-diverge",
           "name-table page " + std::to_string(pid) +
               ": primary and replica differ (newest valid copy wins; "
               "repairable)");
    }
  }

  // ---- 4. Entries: parse, leader cross-check, reachable-sector set.
  Bitmap referenced(disk_->geometry().TotalSectors(), false);
  auto reference = [&](sim::Lba start, std::uint32_t count,
                       const std::string& what) {
    if (start < layout_.data_low || start + count > layout_.data_high ||
        layout_.InMetadataComplex(start, count)) {
      violate("extent-out-of-bounds",
              what + " " + LbaRange(start, count) +
                  " lies outside the file data region");
      return;
    }
    for (sim::Lba lba = start; lba < start + count; ++lba) {
      if (referenced.Get(lba)) {
        violate("extent-double-referenced",
                what + ": sector " + std::to_string(lba) +
                    " is claimed by more than one run");
      }
      referenced.Set(lba, true);
    }
  };
  Status scan = tree_->Scan({}, [&](std::span<const std::uint8_t> key,
                                    std::span<const std::uint8_t> value) {
    std::string name;
    std::uint32_t version = 0;
    FsdEntry entry;
    if (!fs::DecodeNameKey(key, &name, &version)) {
      violate("nt-key-unparsable", "undecodable name-table key");
      return true;
    }
    const std::string ident = name + "!" + std::to_string(version);
    if (!ParseEntry(value, &entry).ok()) {
      violate("nt-entry-unparsable", ident + ": undecodable entry value");
      return true;
    }
    ++report.files_checked;
    reference(entry.leader_lba, 1, ident + " leader");
    for (const fs::Extent& run : entry.runs) {
      reference(run.start, run.count, ident + " run");
    }

    // Leader cross-check: prefer a buffered (pending) leader image, exactly
    // like the scrub does. A stale or unreadable leader is a warning — the
    // entry is authoritative and the leader is rebuilt from it.
    ++report.leaders_checked;
    if (!LeaderMatches(entry, version, /*charge=*/false)) {
      warn("leader-stale",
           ident + ": leader page disagrees with the entry (repairable)");
    }
    return true;
  });
  CEDAR_RETURN_IF_ERROR(scan);

  // ---- 5. VAM vs. the reachable-sector set. Used-but-unreferenced is a
  // leak (self-healing via Scrub; also the documented residue of a torn
  // force under VAM logging). Referenced-but-free is the dangerous
  // direction: the allocator could hand a live file's sector to a new one.
  std::uint64_t leaked = 0;
  for (sim::Lba lba = layout_.data_low; lba < layout_.data_high; ++lba) {
    if (layout_.InMetadataComplex(lba)) {
      continue;  // the central metadata complex is not file space
    }
    const bool used = !vam_.IsFree(lba);
    if (used && !referenced.Get(lba)) {
      ++leaked;
    } else if (!used && referenced.Get(lba)) {
      violate("vam-referenced-free",
              "sector " + std::to_string(lba) +
                  " is referenced by the name table but marked free");
    }
  }
  if (leaked > 0) {
    warn("vam-leaked-sectors",
         std::to_string(leaked) +
             " sector(s) marked used but unreferenced (reclaimable)");
  }

  // ---- 6. Name-table page map vs. the live tree. A live page marked free
  // could be reallocated and overwritten — a violation; a free page marked
  // used is only a leak.
  std::uint64_t nt_leaked = 0;
  for (std::uint32_t pid = 0; pid < config_.nt_pages; ++pid) {
    const bool used = !vam_.nt_free().Get(pid);
    const bool live = live_set.contains(pid);
    if (live && !used) {
      violate("nt-live-page-free",
              "live name-table page " + std::to_string(pid) +
                  " is marked free in the allocation map");
    } else if (!live && used) {
      ++nt_leaked;
    }
  }
  if (nt_leaked > 0) {
    warn("nt-pages-leaked",
         std::to_string(nt_leaked) +
             " name-table page(s) marked used but unreachable (reclaimable)");
  }

  return report;
}

}  // namespace cedar::core
