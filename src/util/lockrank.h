// Debug-build lock-rank checker.
//
// The fine-grained FSD locking scheme (DESIGN.md §4f) is a strict hierarchy:
// a thread may only acquire a mutex whose rank is *greater* than every rank
// it already holds (equal ranks are allowed only for the name-shard rank,
// where ordered pair acquisition — lower shard index first — makes same-rank
// nesting safe). This checker enforces that discipline at runtime in debug /
// sanitizer builds: each thread keeps a thread-local stack of held ranks, and
// an out-of-order acquisition aborts with a diagnostic. Release builds
// compile it all away.
//
// Enable with -DCEDAR_LOCK_RANK_CHECKS=1 (the tsan and asan CMake presets do).

#ifndef CEDAR_UTIL_LOCKRANK_H_
#define CEDAR_UTIL_LOCKRANK_H_

#include <cstdint>
#include <mutex>

#if defined(CEDAR_LOCK_RANK_CHECKS) && CEDAR_LOCK_RANK_CHECKS
#include <cstdio>
#include <cstdlib>
#include <vector>
#endif

namespace cedar::util {

// The FSD lock hierarchy, in acquisition order. Gaps leave room for growth.
// Every other mutex FSD reaches is an unranked leaf below it, held for a
// short critical section: the page cache's, the MediaHealth sink's and the
// name-table remap table's, and the disk's, which may take the tracer's and
// the metrics registry's. DESIGN.md section 4f gives the measured
// contention behind each rank that stays.
enum class LockRank : std::uint8_t {
  kNameShard = 10,    // per-shard name mutex (equal-rank nesting allowed,
                      // ordered by shard index)
  kForce = 20,        // force_mu_: serializes log capture/append
  kOpGate = 30,       // op gate internal mutex (begin/end/drain)
  kTree = 40,         // B-tree structure lock (tree_mu_)
  kTreeLeaf = 45,     // B-tree leaf latch (under shared tree_mu_)
  kAlloc = 50,        // alloc_mu_: VAM maps, allocator, tombstone and
                      // delta queues
  kOpenFiles = 58,    // open-file table (open_mu_)
  kCommitQueue = 90,  // commit-queue mutex (waited on with at most shards)
  kRounds = 95,       // round-runner request state: a leaf, taken under the
                      // commit queue or force_mu_; never held by a round
};

#if defined(CEDAR_LOCK_RANK_CHECKS) && CEDAR_LOCK_RANK_CHECKS

namespace lockrank_internal {
inline thread_local std::vector<std::uint8_t> held_ranks;
}  // namespace lockrank_internal

// RAII rank frame. Construct *before* locking the mutex it describes and keep
// it alive for the lock scope (RankedLockGuard below bundles the two).
class LockRankFrame {
 public:
  explicit LockRankFrame(LockRank rank)
      : rank_(static_cast<std::uint8_t>(rank)) {
    auto& held = lockrank_internal::held_ranks;
    if (!held.empty()) {
      const std::uint8_t top = held.back();
      const bool same_shard_pair =
          rank_ == top &&
          rank_ == static_cast<std::uint8_t>(LockRank::kNameShard);
      if (rank_ <= top && !same_shard_pair) {
        std::fprintf(stderr,
                     "lockrank: acquiring rank %u while holding rank %u "
                     "(hierarchy inversion)\n",
                     rank_, top);
        std::abort();
      }
    }
    held.push_back(rank_);
  }

  ~LockRankFrame() {
    auto& held = lockrank_internal::held_ranks;
    // Release order may differ from acquisition order (e.g. hand-over-hand
    // shard pairs); remove the newest matching entry.
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
      if (*it == rank_) {
        held.erase(std::next(it).base());
        return;
      }
    }
    std::fprintf(stderr, "lockrank: releasing rank %u not held\n", rank_);
    std::abort();
  }

  LockRankFrame(const LockRankFrame&) = delete;
  LockRankFrame& operator=(const LockRankFrame&) = delete;

 private:
  std::uint8_t rank_;
};

#else  // !CEDAR_LOCK_RANK_CHECKS

class LockRankFrame {
 public:
  explicit LockRankFrame(LockRank) {}
};

#endif  // CEDAR_LOCK_RANK_CHECKS

// lock_guard plus rank bookkeeping. The frame is a member declared before the
// guard, so the rank check runs before the mutex is acquired (a would-be
// deadlock aborts instead of hanging).
template <typename Mutex>
class RankedLockGuard {
 public:
  RankedLockGuard(Mutex& mu, LockRank rank) : frame_(rank), lock_(mu) {}

  RankedLockGuard(const RankedLockGuard&) = delete;
  RankedLockGuard& operator=(const RankedLockGuard&) = delete;

 private:
  LockRankFrame frame_;
  std::lock_guard<Mutex> lock_;
};

}  // namespace cedar::util

#endif  // CEDAR_UTIL_LOCKRANK_H_
