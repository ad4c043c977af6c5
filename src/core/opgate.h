// Log-space admission gate for parallel FSD operations, in the shape of
// xv6's begin_op/end_op protocol (SNIPPETS.md): a mutator enters the gate
// before touching shared state and leaves when its updates are recorded.
// Admission is refused — not queued behind a global lock — when the pages
// pending capture approach what one log group can hold, so the caller can
// force the log and retry. Commit (log capture) closes the gate and waits
// for the outstanding ops to drain, which is the only serialization the
// commit path imposes: ops on disjoint names otherwise proceed in parallel.
//
// Rank: the internal mutex is LockRank::kOpGate — above the name shards
// (mutators hold their shard while begining an op) and below every
// structure lock.

#ifndef CEDAR_CORE_OPGATE_H_
#define CEDAR_CORE_OPGATE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/util/check.h"
#include "src/util/lockrank.h"

namespace cedar::core {

class OpGate {
 public:
  // `budget` is the page capacity of one log group (Log::MaxGroupPages());
  // set at Mount/Format, before any concurrency starts.
  void SetBudget(std::size_t budget) { budget_ = budget; }

  // Admits one operation. Returns false (without admitting) when the pages
  // already pending capture leave no headroom for this op's worst case —
  // the caller should force the log and try again. Blocks while a commit
  // capture is in progress.
  bool TryBegin() {
    util::LockRankFrame rank(util::LockRank::kOpGate);
    std::unique_lock<std::mutex> lock(mu_);
    open_cv_.wait(lock, [this] { return !committing_; });
    if (capture_pages_.load(std::memory_order_relaxed) >= SpaceLimit()) {
      return false;
    }
    ++outstanding_;
    return true;
  }

  // Retires one admitted operation.
  void End() {
    util::LockRankFrame rank(util::LockRank::kOpGate);
    std::lock_guard<std::mutex> lock(mu_);
    CEDAR_CHECK(outstanding_ > 0);
    --outstanding_;
    if (outstanding_ == 0 && committing_) {
      drained_cv_.notify_all();
    }
  }

  // Closes the gate for a log capture: new ops block in TryBegin, and the
  // call returns once every admitted op has retired. Pair with Reopen().
  void CloseForCommit() {
    util::LockRankFrame rank(util::LockRank::kOpGate);
    std::unique_lock<std::mutex> lock(mu_);
    CEDAR_CHECK(!committing_);
    committing_ = true;
    drained_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

  void Reopen() {
    util::LockRankFrame rank(util::LockRank::kOpGate);
    std::lock_guard<std::mutex> lock(mu_);
    CEDAR_CHECK(committing_);
    committing_ = false;
    open_cv_.notify_all();
  }

  // ---- Capture-page accounting. Mutators call NotePendingCapture when a
  // page transitions clean→pending (it will be captured by the next log
  // group); delete paths release reservations for pages that vanish before
  // capture; the capture path resets the count once it has swallowed
  // everything. Relaxed atomics: the count is a throttle, not a guarantee —
  // the gate's SpaceLimit headroom absorbs the slack of in-flight ops.
  void NotePendingCapture(std::size_t pages) {
    capture_pages_.fetch_add(pages, std::memory_order_relaxed);
  }

  void ReleasePendingCapture(std::size_t pages) {
    // Saturating subtract: a release can race a capture-side reset.
    std::size_t cur = capture_pages_.load(std::memory_order_relaxed);
    while (cur > 0 &&
           !capture_pages_.compare_exchange_weak(
               cur, cur > pages ? cur - pages : 0,
               std::memory_order_relaxed, std::memory_order_relaxed)) {
    }
  }

  void ResetPendingCapture() {
    capture_pages_.store(0, std::memory_order_relaxed);
  }

  std::size_t pending_capture_pages() const {
    return capture_pages_.load(std::memory_order_relaxed);
  }

 private:
  // Admission stops short of the full budget so ops already admitted can
  // still dirty a few pages each without overflowing the group; when the
  // budget is tiny (test logs), degrade to admit-one-page-at-a-time rather
  // than admit-nothing.
  std::size_t SpaceLimit() const {
    constexpr std::size_t kHeadroomPages = 16;
    return budget_ > kHeadroomPages ? budget_ - kHeadroomPages : 1;
  }

  std::mutex mu_;
  std::condition_variable open_cv_;     // waited by TryBegin while committing
  std::condition_variable drained_cv_;  // waited by CloseForCommit
  std::size_t budget_ = 0;
  std::size_t outstanding_ = 0;
  bool committing_ = false;
  std::atomic<std::size_t> capture_pages_{0};
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_OPGATE_H_
