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

#include "src/core/fsd.h"
#include "src/core/recovery.h"

namespace cedar::core {

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
  if (Status s = log_.ValidatePointer(); !s.ok()) {
    violate("log-pointer-bad", s.message());
  }

  // ---- 2. Name-table tree structure (ordering, separators, fill).
  if (Status s = tree_->CheckInvariants(); !s.ok()) {
    violate("nt-tree-broken", s.message());
    // The passes below walk the tree; a broken tree makes their results
    // unreliable, so stop at the structural verdict.
    return report;
  }

  // ---- 3. A/B copies of every live tree page: the walk's page pass.
  auto check_copies = [&](std::span<const btree::PageId> live) -> Status {
    for (btree::PageId pid : live) {
      ++report.nt_pages_checked;
      // A dirty cached frame means the home copies are legitimately stale —
      // possibly never written at all (the log holds the truth until a
      // checkpoint or flush writes them home) — so no home-copy judgement
      // is possible for this page.
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
      const std::string page = "name-table page " + std::to_string(pid);
      if (!vote.any()) {
        violate("nt-both-copies-bad",
                "live " + page + ": both home copies unreadable or corrupt");
      } else if (!vote.ok_a || !vote.ok_b) {
        warn("nt-copy-unreadable",
             page + ": " + (vote.ok_a ? "replica" : "primary") +
                 " copy unreadable or corrupt (repairable from the other)");
      } else if (vote.diverged) {
        warn("nt-copies-diverge",
             page + ": primary and replica differ (newest valid copy wins; "
                    "repairable)");
      }
    }
    return OkStatus();
  };

  // ---- 4. Entries: the walk parses each, checks its extents and collects
  // the reachable-sector set. The leader cross-check prefers a buffered
  // (pending) leader image, exactly like the scrub does; a stale or
  // unreadable leader is a warning — the entry is authoritative and the
  // leader is rebuilt from it.
  NtWalk walk;
  CEDAR_RETURN_IF_ERROR(WalkNameTable(
      *tree_, layout_, check_copies,
      [&](const std::string& name, std::uint32_t version,
          const FsdEntry& entry) {
        ++report.leaders_checked;
        if (!LeaderMatches(entry, version, /*charge=*/false)) {
          warn("leader-stale",
               name + "!" + std::to_string(version) +
                   ": leader page disagrees with the entry (repairable)");
        }
      },
      &walk));
  report.files_checked = walk.entries;
  // Indexed by NtWalk::Problem.
  static constexpr const char* kFindingCodes[] = {
      "nt-key-unparsable", "nt-entry-unparsable", "extent-out-of-bounds",
      "extent-double-referenced"};
  for (const NtWalk::Finding& finding : walk.findings) {
    violate(kFindingCodes[static_cast<int>(finding.problem)], finding.detail);
  }

  // ---- 5-6. The allocation map vs. the walk. A used but unreferenced
  // sector or page is a leak (self-healing via Scrub; also the documented
  // residue of a torn force under VAM logging). The other direction is
  // dangerous: the allocator could hand a live file's sector, or a live
  // page, to something new.
  std::uint64_t leaked = 0;
  std::uint64_t nt_leaked = 0;
  CompareAllocation(
      vam_, layout_, walk.referenced, walk.live, [&](const VamDelta& fix) {
        const std::string at = std::to_string(fix.start);
        if (fix.op == VamDelta::Op::kFree) {
          ++leaked;
        } else if (fix.op == VamDelta::Op::kNtFree) {
          ++nt_leaked;
        } else if (fix.op == VamDelta::Op::kAlloc) {
          violate("vam-referenced-free",
                  "sector " + at +
                      " is referenced by the name table but marked free");
        } else {
          violate("nt-live-page-free", "live name-table page " + at +
                                           " is marked free in the "
                                           "allocation map");
        }
      });
  if (leaked > 0) {
    warn("vam-leaked-sectors",
         std::to_string(leaked) +
             " sector(s) marked used but unreferenced (reclaimable)");
  }
  if (nt_leaked > 0) {
    warn("nt-pages-leaked",
         std::to_string(nt_leaked) +
             " name-table page(s) marked used but unreachable (reclaimable)");
  }

  return report;
}

}  // namespace cedar::core
