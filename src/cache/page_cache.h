// Page cache shared by the file-system implementations.
//
// CFS uses it as a read cache with write-through updates (its B-tree package
// had no atomic update, so every modified page went straight to disk).
//
// FSD uses it as the write-back buffer pool at the heart of the logging
// design (paper section 5.3): updates are applied to cached pages, captured
// into the redo log at group commit, and written to their home sectors only
// by a checkpoint — at the latest when the log is about to overwrite their
// third — or at shutdown. The frame carries the bookkeeping that algorithm
// needs: the LSN of the record the page was last logged into, whether it
// has been re-dirtied since it was last captured, and the exact image that
// was captured (what a checkpoint writes home, so the home never runs ahead
// of the log).
//
// Recency is tracked with an intrusive doubly-linked LRU list threaded
// through the frames (std::unordered_map nodes are pointer-stable), so
// Find/Insert are O(1). Eviction takes the least recently used clean frame;
// dirty frames are never evicted (the log may hold their only durable copy).
// To keep eviction O(1), the walk from the LRU tail moves each dirty frame
// it meets off the list onto a pinned list, so no later eviction walks past
// it again. A pinned frame stays there until it is touched (back to the
// front of the list, like any touch) or becomes clean. FSD flips dirty bits
// on frames, not through a cache setter, so the cache looks at a frame's
// flags after each closure that can flip them without a touch (Apply,
// EraseIf, ForEach); a pinned frame found clean there moves to a cleaned set
// ordered by recency stamp. A pinned or cleaned frame is untouched since a
// walk took it off the list, so it is older than every frame on the list
// (walks take frames from the tail, and the list only grows at the front);
// the oldest cleaned frame, when there is one, is therefore the least
// recently used clean frame of all, and the victim sequence is exactly that
// of a tail walk over one LRU list.
//
// Interior pages. An owner may pass a classifier that marks a frame as a
// B-tree interior page (FSD does, for its name table). Every lookup passes
// through the tree's root and upper levels, yet under plain LRU a miss
// cluster of leaves pushes them out: interior frames are therefore kept on
// a recency list of their own, which the LRU walk never reaches, and the
// oldest clean interior frame is the victim only when no other clean frame
// is left (so a cache too small for the tree's upper levels still evicts).
// The victim order is: the oldest cleaned frame, then the LRU tail walk,
// then a walk from the interior list's tail to its oldest clean frame. The
// flag is re-evaluated after every call that may change a frame's data
// (Insert, InsertIfAbsent, Upsert, Apply, and the EraseIf/ForEach
// closures); a frame whose class changed moves to the other list at the
// position its recency stamp gives it, so both lists stay in recency order.
// Without a classifier every frame is a leaf and the cache is plain LRU.
// Raw Frame pointers (Find/Insert) may change flags only until the next
// cache call: a pinned frame's flags must change through the closures, and
// a frame's data only through the calls above.
//
// Counters: hits, misses, evictions and eviction-walk steps are registry
// counters ("cache.hits", "cache.misses", "cache.evictions",
// "cache.eviction_scan_steps"). An owner with a metrics registry passes it
// in, so the cache reports beside the owner's other counters; without one
// the cache keeps a registry of its own.
//
// Thread safety: an internal mutex guards the map and the LRU list. Two
// access disciplines coexist:
//
//   - Closure APIs (ReadInto / Apply / Upsert / InsertIfAbsent) run entirely
//     under the cache mutex, so frame *contents and flags* accessed through
//     them are safe from any number of concurrent threads. FSD's parallel
//     operation paths use only these: page reads copy out an atomic image,
//     flag flips happen under the lock, and no Frame pointer ever escapes.
//   - Raw APIs (Find / Insert / ForEach returning or exposing Frame&) cover
//     only the cache *structure*; contents are the caller's to serialize.
//     FSD's quiesced paths (format, mount, shutdown, fsck, scrub — all ops
//     drained) and CFS's single-threaded use keep these.
//
// Returned Frame pointers stay valid until the frame is erased, which the
// owning file system serializes for the raw paths.

#ifndef CEDAR_CACHE_PAGE_CACHE_H_
#define CEDAR_CACHE_PAGE_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace cedar::cache {

struct Frame {
  std::vector<std::uint8_t> data;  // current (possibly uncommitted) content

  // FSD bookkeeping.
  bool dirty = false;            // home sectors are stale
  bool dirty_since_log = false;  // changed since the last log capture
  std::vector<std::uint8_t> logged_image;  // latest image in the log
  std::uint64_t logged_lsn = 0;  // LSN of the record holding logged_image
  bool is_leader = false;        // leader page (single home, no replica)

  // Recency bookkeeping, maintained by the cache. `key` is duplicated here
  // so eviction can erase the map entry without a search. The links thread
  // the LRU list, the pinned list or the interior list, whichever `place`
  // names; `stamp` orders the cleaned set and places a reclassified frame.
  enum class Place : std::uint8_t { kLru, kPinned, kCleaned, kInterior };
  Frame* lru_prev = nullptr;
  Frame* lru_next = nullptr;
  std::uint32_t key = 0;
  std::uint64_t stamp = 0;  // recency: renewed at every touch
  Place place = Place::kLru;
  bool interior = false;  // B-tree interior page, per the owner's classifier

  // Neither flag is set: the home copies are current, so the frame may go.
  bool Evictable() const { return !dirty && !dirty_since_log; }
};

class PageCache {
 public:
  // Says whether the frame for `key` holding `data` is a B-tree interior
  // page, which is evicted only when no other clean frame is left. Called
  // under the cache mutex; it must not reenter the cache.
  using Classifier = bool (*)(std::uint32_t key,
                              std::span<const std::uint8_t> data);

  // `capacity` bounds the number of frames, dirty and clean together: an
  // insert at capacity evicts the least recently used clean frame, so every
  // dirty frame shrinks the clean working set by one. Dirty frames are never
  // evicted (the log may hold their only durable copy); when all frames are
  // dirty the cache grows past capacity until a checkpoint cleans some.
  // A null `interior` classes every frame a leaf (plain LRU).
  explicit PageCache(std::size_t capacity,
                     obs::MetricsRegistry* metrics = nullptr,
                     Classifier interior = nullptr)
      : capacity_(capacity), interior_of_(interior) {
    CEDAR_CHECK(capacity >= 8);
    if (metrics == nullptr) {
      own_metrics_ = std::make_unique<obs::MetricsRegistry>();
      metrics = own_metrics_.get();
    }
    hits_ = metrics->GetCounter("cache.hits");
    misses_ = metrics->GetCounter("cache.misses");
    evictions_ = metrics->GetCounter("cache.evictions");
    eviction_scan_steps_ = metrics->GetCounter("cache.eviction_scan_steps");
  }

  // Returns the frame for `key`, or nullptr on miss. Bumps LRU.
  Frame* Find(std::uint32_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = frames_.find(key);
    if (it == frames_.end()) {
      misses_->Increment();
      return nullptr;
    }
    hits_->Increment();
    Touch(&it->second);
    return &it->second;
  }

  // Inserts (or replaces) the frame for `key`, evicting a clean LRU frame
  // if over capacity.
  Frame& Insert(std::uint32_t key, std::vector<std::uint8_t> data) {
    std::lock_guard<std::mutex> lock(mu_);
    Frame& frame = FindOrAdd(key, nullptr);
    frame.data = std::move(data);
    frame.dirty = false;
    frame.dirty_since_log = false;
    frame.logged_image.clear();
    frame.logged_lsn = 0;
    frame.is_leader = false;
    Settle(&frame);
    return frame;
  }

  // Removes the frame for `key`. Returns true when the erased frame was
  // dirty-since-log, so FSD can release its log-space reservation.
  bool Erase(std::uint32_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = frames_.find(key);
    if (it == frames_.end()) {
      return false;
    }
    const bool was_pending = it->second.dirty_since_log;
    Detach(&it->second);
    frames_.erase(it);
    return was_pending;
  }

  // Runs `fn(Frame&)` under the cache mutex if `key` is present and erases
  // the frame when `fn` returns true — one atomic decide-and-erase. Returns
  // whether a frame was erased. `fn` must not reenter the cache.
  template <typename Fn>
  bool EraseIf(std::uint32_t key, Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = frames_.find(key);
    if (it == frames_.end()) {
      return false;
    }
    if (!fn(it->second)) {
      Settle(&it->second);
      return false;
    }
    Detach(&it->second);
    frames_.erase(it);
    return true;
  }

  // ---- Closure APIs: content access under the cache mutex (safe against
  // concurrent mutators; see the header comment).

  // Copies the cached image for `key` into `out` (an atomic snapshot even
  // while another thread is updating the frame in place). Bumps LRU and the
  // hit/miss counters like Find. Returns false on miss.
  bool ReadInto(std::uint32_t key, std::span<std::uint8_t> out) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = frames_.find(key);
    if (it == frames_.end()) {
      misses_->Increment();
      return false;
    }
    hits_->Increment();
    Touch(&it->second);
    const std::size_t n = std::min(out.size(), it->second.data.size());
    std::copy_n(it->second.data.begin(), n, out.begin());
    return true;
  }

  // Runs `fn(Frame&)` under the cache mutex if `key` is present; returns
  // whether it was. Does not bump LRU (flag maintenance must not perturb
  // eviction order). `fn` must not reenter the cache.
  template <typename Fn>
  bool Apply(std::uint32_t key, Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = frames_.find(key);
    if (it == frames_.end()) {
      return false;
    }
    fn(it->second);
    Settle(&it->second);
    return true;
  }

  // Finds or inserts the frame for `key` and runs `fn(Frame&, inserted)`
  // under the cache mutex. Unlike Insert, an existing frame keeps its data
  // and bookkeeping flags — `fn` decides what to update. A new frame starts
  // with default (clean) flags. Bumps LRU; may evict a clean frame.
  template <typename Fn>
  void Upsert(std::uint32_t key, Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    bool inserted = false;
    Frame& frame = FindOrAdd(key, &inserted);
    fn(frame, inserted);
    Settle(&frame);
  }

  // Inserts a clean frame holding a copy of `data` only when `key` is
  // absent — a cache fill that can never clobber a concurrently dirtied
  // frame. Returns whether it inserted.
  bool InsertIfAbsent(std::uint32_t key, std::span<const std::uint8_t> data) {
    std::lock_guard<std::mutex> lock(mu_);
    if (frames_.contains(key)) {
      return false;
    }
    Frame& frame = Add(key);
    frame.data.assign(data.begin(), data.end());
    Settle(&frame);
    return true;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    frames_.clear();
    lru_ = {};
    pinned_ = {};
    interior_ = {};
    cleaned_.clear();
  }

  // Iterates all frames (order unspecified) with the cache lock held. The
  // visitor may mutate frames but must not insert, erase, or reenter the
  // cache.
  void ForEach(const std::function<void(std::uint32_t, Frame&)>& visit) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, frame] : frames_) {
      visit(key, frame);
      Settle(&frame);
    }
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_.size();
  }
  std::uint64_t hits() const { return hits_->value(); }
  std::uint64_t misses() const { return misses_->value(); }
  std::uint64_t evictions() const { return evictions_->value(); }
  // Frames examined by evictions: each victim, plus each dirty frame a walk
  // moved to the pinned list, plus each dirty interior frame the rare
  // interior walk passed. On the LRU side a dirty frame is moved at most
  // once per touch.
  std::uint64_t eviction_scan_steps() const {
    return eviction_scan_steps_->value();
  }

 private:
  // An intrusive recency list: head most recent, tail least recent.
  struct List {
    Frame* head = nullptr;
    Frame* tail = nullptr;
  };

  // LRU/eviction helpers run with mu_ held by the public entry point.

  // A new frame for the absent `key`, after an eviction at capacity.
  Frame& Add(std::uint32_t key) {
    MaybeEvict();
    Frame& frame = frames_.try_emplace(key).first->second;
    frame.key = key;
    PushFront(&frame);
    return frame;
  }

  // The frame for `key`, touched, or a new one; `*inserted`, when given,
  // says which.
  Frame& FindOrAdd(std::uint32_t key, bool* inserted) {
    auto it = frames_.find(key);
    if (inserted != nullptr) {
      *inserted = it == frames_.end();
    }
    if (it == frames_.end()) {
      return Add(key);
    }
    Touch(&it->second);
    return it->second;
  }

  List& ListAt(Frame::Place place) {
    switch (place) {
      case Frame::Place::kPinned:
        return pinned_;
      case Frame::Place::kInterior:
        return interior_;
      default:
        return lru_;
    }
  }

  // Links `frame` into `list` just before `next` (nullptr: at the tail).
  static void LinkBefore(List* list, Frame* frame, Frame* next) {
    Frame* prev = next != nullptr ? next->lru_prev : list->tail;
    frame->lru_prev = prev;
    frame->lru_next = next;
    (prev != nullptr ? prev->lru_next : list->head) = frame;
    (next != nullptr ? next->lru_prev : list->tail) = frame;
  }

  // Links `frame` into `list` at the position its stamp gives it. A frame
  // just touched has the newest stamp and goes straight to the head; only a
  // frame reclassified without a touch walks.
  static void LinkByStamp(List* list, Frame* frame) {
    Frame* next = list->head;
    while (next != nullptr && next->stamp > frame->stamp) {
      next = next->lru_next;
    }
    LinkBefore(list, frame, next);
  }

  // Makes `frame` the most recent of its class.
  void PushFront(Frame* frame) {
    frame->stamp = ++next_stamp_;
    frame->place = frame->interior ? Frame::Place::kInterior
                                   : Frame::Place::kLru;
    LinkBefore(&ListAt(frame->place), frame, ListAt(frame->place).head);
  }

  // Takes `frame` out of whichever place holds it.
  void Detach(Frame* frame) {
    if (frame->place == Frame::Place::kCleaned) {
      cleaned_.erase(frame->stamp);
    } else {
      List& list = ListAt(frame->place);
      (frame->lru_prev != nullptr ? frame->lru_prev->lru_next : list.head) =
          frame->lru_next;
      (frame->lru_next != nullptr ? frame->lru_next->lru_prev : list.tail) =
          frame->lru_prev;
    }
    frame->lru_prev = nullptr;
    frame->lru_next = nullptr;
  }

  void Touch(Frame* frame) {
    Detach(frame);
    PushFront(frame);
  }

  // Takes `frame` out of its place and files it by class, stamp and flags:
  // an interior frame into the interior list by stamp; a leaf newer than
  // the LRU tail into the LRU list by stamp; an older leaf into the cleaned
  // set when clean, else onto the pinned list. So every pinned or cleaned
  // frame stays older than the whole LRU list.
  void Refile(Frame* frame) {
    Detach(frame);
    if (frame->interior) {
      frame->place = Frame::Place::kInterior;
      LinkByStamp(&interior_, frame);
    } else if (lru_.tail != nullptr && frame->stamp > lru_.tail->stamp) {
      frame->place = Frame::Place::kLru;
      LinkByStamp(&lru_, frame);
    } else if (frame->Evictable()) {
      frame->place = Frame::Place::kCleaned;
      cleaned_.emplace(frame->stamp, frame);
    } else {
      frame->place = Frame::Place::kPinned;
      LinkBefore(&pinned_, frame, pinned_.head);
    }
  }

  // Re-evaluates a frame after a call that may have changed its data or
  // flags: a frame whose class changed moves to the other side, a pinned
  // frame found clean to the cleaned set, and a cleaned one found dirty
  // back to the pinned list, so the pinned list holds only dirty frames and
  // the cleaned set only clean ones.
  void Settle(Frame* frame) {
    const bool interior =
        interior_of_ != nullptr && interior_of_(frame->key, frame->data);
    const bool misfiled =
        (frame->place == Frame::Place::kPinned && frame->Evictable()) ||
        (frame->place == Frame::Place::kCleaned && !frame->Evictable());
    if (interior != frame->interior || misfiled) {
      frame->interior = interior;
      Refile(frame);
    }
  }

  void MaybeEvict() {
    if (frames_.size() < capacity_) {
      return;
    }
    // The oldest cleaned frame is older than the whole LRU list; otherwise
    // walk from the LRU end, pinning the dirty frames (which must survive:
    // the log may hold their only durable copy), to the oldest clean frame.
    // Only when no clean leaf is left does an interior frame go: the oldest
    // clean one, found by a walk that leaves the dirty ones in place.
    Frame* victim = nullptr;
    if (!cleaned_.empty()) {
      eviction_scan_steps_->Increment();
      victim = cleaned_.begin()->second;
      CEDAR_CHECK(victim->Evictable());
    }
    for (Frame* frame = lru_.tail; victim == nullptr && frame != nullptr;) {
      eviction_scan_steps_->Increment();
      if (frame->Evictable()) {
        victim = frame;
        break;
      }
      Frame* newer = frame->lru_prev;
      Refile(frame);  // dirty and older than the rest: onto the pinned list
      frame = newer;
    }
    for (Frame* frame = interior_.tail; victim == nullptr && frame != nullptr;
         frame = frame->lru_prev) {
      eviction_scan_steps_->Increment();
      if (frame->Evictable()) {
        victim = frame;
      }
    }
    if (victim != nullptr) {
      Detach(victim);
      frames_.erase(victim->key);
      evictions_->Increment();
    }
    // If everything is dirty, grow past capacity; the next checkpoint will
    // make frames clean again.
  }

  mutable std::mutex mu_;
  std::size_t capacity_;
  Classifier interior_of_;
  std::unordered_map<std::uint32_t, Frame> frames_;
  List lru_;       // clean and dirty leaf frames not yet walked past
  List pinned_;    // dirty leaf frames an eviction walk moved aside
  List interior_;  // interior frames, clean and dirty
  std::map<std::uint64_t, Frame*> cleaned_;  // pinned, since cleaned; by stamp
  std::uint64_t next_stamp_ = 0;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;  // when none was given
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* eviction_scan_steps_ = nullptr;
};

}  // namespace cedar::cache

#endif  // CEDAR_CACHE_PAGE_CACHE_H_
