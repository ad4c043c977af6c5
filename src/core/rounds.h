// FSD's background work, done in rounds (DESIGN.md sections 4e and 4g).
//
// Two jobs run as rounds. A commit round is one group commit (paper section
// 3.2): read the latest update sequence, capture every dirty page, append
// them to the log in one write, and publish the sequence now durable. A
// checkpoint round keeps the recovery window bounded: while the live log
// exceeds the window it writes home the pages of the oldest records and
// advances the persisted pointer past them (Fsd::CheckpointTo).
//
// Callers Request() a round; the runner's executor decides where it runs.
//   - kThread: a dedicated thread wakes and runs it — the commit and
//     checkpoint daemons of commit.daemon = true.
//   - kStepped: Step() runs it on the calling thread, at points fixed by the
//     caller, so the schedule is a deterministic function of the operation
//     order. Inline mode is this executor: a commit round runs where the
//     caller asks for it (before admission, in Force, for space), and a
//     checkpoint round, requested by a force with force_mu_ held, runs at
//     the caller's next point that holds no lock (an op's tail, Tick, the
//     return of Force). A stepped request is always fresh, so one arriving
//     just after another thread's round published runs one more: the
//     executor serves one client thread at a time.
// A round is the same code under either executor; only its placement
// differs. A deadline round, for one, captures before the op that noticed
// the deadline when stepped, and usually after it on a thread, so the two
// modes can group the same updates into different log records.

#ifndef CEDAR_CORE_ROUNDS_H_
#define CEDAR_CORE_ROUNDS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace cedar::core {

class RoundRunner {
 public:
  enum class Executor : std::uint8_t { kThread, kStepped };
  // One round. Runs with no lock of the runner's held; takes force_mu_
  // itself, so quiesced sections block rounds without stopping them.
  using RoundFn = std::function<void()>;

  RoundRunner(Executor executor, RoundFn round);
  ~RoundRunner();

  RoundRunner(const RoundRunner&) = delete;
  RoundRunner& operator=(const RoundRunner&) = delete;

  // Arms the runner (kThread: spawns the thread). No-op when running.
  void Start();
  // Disarms the runner, dropping a request no round has taken; kThread
  // joins the thread after its current round. Callers must not hold
  // force_mu_ (a round in flight may be waiting for it).
  void Stop();
  bool running() const;
  bool stepped() const { return executor_ == Executor::kStepped; }

  // Flags a round as due (kThread: wakes the thread). The runner's mutex is
  // a leaf (rank kRounds), so this is safe with force_mu_ or the commit
  // queue's mutex held. No-op when stopped.
  void Request();
  // A round is due and no executor has taken it yet.
  bool pending() const;
  // kStepped: runs the due round, if any, on the calling thread, which must
  // hold no lock the round takes beyond a name shard. kThread: no-op.
  void Step();

 private:
  void Loop();

  const Executor executor_;
  const RoundFn round_;
  mutable std::mutex mu_;       // rank kRounds
  std::condition_variable cv_;  // the thread waits here for a request
  bool running_ = false;
  bool due_ = false;
  std::thread thread_;
};

// Group-commit rendezvous between client threads and the commit round
// ("if several processes are waiting, one log write commits them all").
//
// Sequence discipline:
//   - Every mutating operation calls RecordUpdate() after applying its
//     change, obtaining a monotonically increasing update sequence number.
//   - A client needing durability calls Request(seq) for a ticket and then
//     Await(ticket) holding no lock a round takes (a name shard at most).
//     Tickets number rounds in the order they begin, so a ticket is
//     redeemed once that many rounds have published.
//   - The round reads latest_update(), calls BeginForce(seq) so later
//     requests covered by it piggyback, captures and appends, then
//     Publish(captured, status) wakes every waiter whose round is done.
//
// Counters (registry): commit.force_requests counts requests that asked
// the runner for a round, commit.piggybacked those served by a round
// already pending or in flight, commit.rounds the rounds published. Stepped
// rounds count like thread rounds.
class CommitQueue {
 public:
  CommitQueue(RoundRunner* runner, obs::MetricsRegistry* metrics);

  std::uint64_t RecordUpdate() {
    return update_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  std::uint64_t latest_update() const {
    return update_seq_.load(std::memory_order_relaxed);
  }

  // Asks for a commit round covering `seq` and returns its ticket (0: no
  // round needed). The piggyback rule: a round that is pending, or in
  // flight with a capture covering `seq`, serves the request. Under the
  // thread executor a `seq` already durable needs no round unless `fresh`
  // (a space force needs a capture even when no update was recorded).
  // Under the stepped executor every request is fresh — an inline force
  // always runs, so an empty Force() still restarts the group-commit
  // timer — and the round runs here, on the caller.
  std::uint64_t Request(std::uint64_t seq, bool fresh);
  // Blocks until the ticket's round has published and returns the status
  // of the latest round; kFailedPrecondition when the runner stops first.
  Status Await(std::uint64_t ticket);
  // True when Await(ticket) would not block on a round.
  bool Published(std::uint64_t ticket) const;

  // Round side: the round is about to capture every update <= `seq`.
  void BeginForce(std::uint64_t seq);
  // Round side: the round made updates <= `captured_seq` durable, or
  // failed with `status` and left them for the next round; wakes the
  // waiters it redeems.
  void Publish(std::uint64_t captured_seq, const Status& status);

  // Stops the commit runner and fails every waiter it strands. The runner
  // is started directly; sequence numbers and tickets continue across a
  // restart.
  void Stop();

 private:
  RoundRunner* runner_;
  obs::Counter* force_requests_;
  obs::Counter* piggybacked_;
  obs::Counter* rounds_;
  std::atomic<std::uint64_t> update_seq_{0};

  mutable std::mutex mu_;            // rank kCommitQueue
  std::condition_variable done_cv_;  // clients wait here
  std::uint64_t durable_seq_ = 0;    // everything <= this is in the log
  std::uint64_t requested_seq_ = 0;  // covered by the newest begun round
  std::uint64_t begun_ = 0;          // rounds that called BeginForce
  std::uint64_t published_ = 0;      // rounds that called Publish
  Status last_status_ = OkStatus();
};

}  // namespace cedar::core

#endif  // CEDAR_CORE_ROUNDS_H_
