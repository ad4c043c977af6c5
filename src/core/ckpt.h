// The continuous checkpoint daemon (sibling of the commit daemon).
//
// FSD has one home-writeback path, Fsd::CheckpointTo: write home every page
// whose latest logged image is older than a target LSN, retire those
// frames, then move the log's oldest-record pointer up to the target. It
// has two callers. Third entry runs it synchronously, unchunked, to the end
// of the third the log is about to reuse — the paper's cheap bound on
// recovery, but a stop-the-world drain that stalls the parallel commit path
// and caps how large the log can usefully be. The checkpoint daemon runs it
// continuously instead: a background thread watches live-log growth (the
// force path notifies it whenever an append pushes the live span past the
// configured recovery window) and checkpoints the oldest log region in
// small elevator-ordered batches, so a crash-now mount replays a bounded
// window instead of up to three thirds. When the daemon keeps up, third
// entry finds nothing left to write (fsd.third_flush_fallbacks stays 0).
//
// Division of labor: this class owns only the thread and its wakeup state
// (mutex at rank kCkpt — above kForce, so the force path can notify while
// holding force_mu_). All file-system work happens in the round callback
// supplied by Fsd, which takes force_mu_ itself; the daemon never holds its
// own mutex while calling the round, so the rank order is never inverted
// and ScopedQuiesce (which holds force_mu_) transparently blocks
// checkpointing for Format/Mount/Shutdown/Fsck.

#ifndef CEDAR_CORE_CKPT_H_
#define CEDAR_CORE_CKPT_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

namespace cedar::core {

class CkptDaemon {
 public:
  // One checkpoint round: check the live span and, if it exceeds the
  // window, flush + advance. Runs on the daemon thread with no locks held
  // by the daemon itself.
  using RoundFn = std::function<void()>;

  explicit CkptDaemon(RoundFn round);
  ~CkptDaemon();

  CkptDaemon(const CkptDaemon&) = delete;
  CkptDaemon& operator=(const CkptDaemon&) = delete;

  // Spawns the daemon thread (no-op if already running).
  void Start();

  // Wakes the daemon and joins it. Safe to call when not running. Callers
  // must not hold force_mu_ (the in-flight round may be waiting for it).
  void Stop();

  bool running() const;

  // Flags work and wakes the daemon. Called from the force path with
  // force_mu_ held (rank kForce < kCkpt, so this nests cleanly). No-op
  // when the daemon is not running.
  void Notify();

  std::uint64_t rounds() const;

 private:
  void Loop();

  RoundFn round_;
  mutable std::mutex mu_;  // rank kCkpt
  std::condition_variable cv_;
  bool work_ = false;
  bool stop_ = false;
  std::uint64_t rounds_ = 0;
  std::thread thread_;
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_CKPT_H_
