#include "src/core/rounds.h"

#include <utility>

#include "src/util/check.h"
#include "src/util/lockrank.h"

namespace cedar::core {

RoundRunner::RoundRunner(Executor executor, RoundFn round)
    : executor_(executor), round_(std::move(round)) {
  CEDAR_CHECK(round_ != nullptr);
}

RoundRunner::~RoundRunner() { Stop(); }

void RoundRunner::Start() {
  {
    util::RankedLockGuard lock(mu_, util::LockRank::kRounds);
    if (running_) {
      return;
    }
    running_ = true;
    due_ = false;
  }
  if (executor_ == Executor::kThread) {
    thread_ = std::thread([this] { Loop(); });
  }
}

void RoundRunner::Stop() {
  {
    util::RankedLockGuard lock(mu_, util::LockRank::kRounds);
    running_ = false;
    due_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

bool RoundRunner::running() const {
  util::RankedLockGuard lock(mu_, util::LockRank::kRounds);
  return running_;
}

void RoundRunner::Request() {
  {
    util::RankedLockGuard lock(mu_, util::LockRank::kRounds);
    if (!running_) {
      return;
    }
    due_ = true;
  }
  cv_.notify_one();
}

bool RoundRunner::pending() const {
  util::RankedLockGuard lock(mu_, util::LockRank::kRounds);
  return due_;
}

void RoundRunner::Step() {
  if (executor_ != Executor::kStepped) {
    return;
  }
  {
    util::RankedLockGuard lock(mu_, util::LockRank::kRounds);
    if (!running_ || !due_) {
      return;
    }
    due_ = false;
  }
  round_();
}

void RoundRunner::Loop() {
  for (;;) {
    {
      util::LockRankFrame rank(util::LockRank::kRounds);
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return due_ || !running_; });
      if (!running_) {
        return;
      }
      due_ = false;
    }
    // The round takes force_mu_ itself; the runner's mutex is released
    // first, so it stays a leaf.
    round_();
  }
}

CommitQueue::CommitQueue(RoundRunner* runner, obs::MetricsRegistry* metrics)
    : runner_(runner),
      force_requests_(metrics->GetCounter("commit.force_requests")),
      piggybacked_(metrics->GetCounter("commit.piggybacked")),
      rounds_(metrics->GetCounter("commit.rounds")) {}

std::uint64_t CommitQueue::Request(std::uint64_t seq, bool fresh) {
  std::uint64_t ticket = 0;
  {
    util::RankedLockGuard lock(mu_, util::LockRank::kCommitQueue);
    if (durable_seq_ >= seq && !fresh && !runner_->stepped()) {
      return 0;
    }
    if (runner_->pending()) {
      // Not begun yet: it reads the sequence when it begins.
      piggybacked_->Increment();
      ticket = begun_ + 1;
    } else if (begun_ > published_ && requested_seq_ >= seq) {
      piggybacked_->Increment();
      ticket = begun_;
    } else {
      force_requests_->Increment();
      runner_->Request();
      ticket = begun_ + 1;
    }
  }
  runner_->Step();
  return ticket;
}

Status CommitQueue::Await(std::uint64_t ticket) {
  if (ticket == 0) {
    return OkStatus();
  }
  util::LockRankFrame rank(util::LockRank::kCommitQueue);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock,
                [&] { return published_ >= ticket || !runner_->running(); });
  if (published_ >= ticket) {
    return last_status_;
  }
  return MakeError(ErrorCode::kFailedPrecondition, "commit rounds stopped");
}

bool CommitQueue::Published(std::uint64_t ticket) const {
  util::RankedLockGuard lock(mu_, util::LockRank::kCommitQueue);
  return published_ >= ticket;
}

void CommitQueue::BeginForce(std::uint64_t seq) {
  util::RankedLockGuard lock(mu_, util::LockRank::kCommitQueue);
  ++begun_;
  requested_seq_ = seq;
}

void CommitQueue::Publish(std::uint64_t captured_seq, const Status& status) {
  util::RankedLockGuard lock(mu_, util::LockRank::kCommitQueue);
  ++published_;
  rounds_->Increment();
  // A failed round re-queued what it captured, so its sequence is not
  // durable: the next request must run a round that retries it.
  if (status.ok() && captured_seq > durable_seq_) {
    durable_seq_ = captured_seq;
  }
  last_status_ = status;
  done_cv_.notify_all();
}

void CommitQueue::Stop() {
  runner_->Stop();
  util::RankedLockGuard lock(mu_, util::LockRank::kCommitQueue);
  done_cv_.notify_all();
}

}  // namespace cedar::core
