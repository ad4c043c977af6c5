#include "src/workload/replay.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

namespace cedar::workload {
namespace {

// Shared replay state: per-tenant stats under one mutex, first-error
// capture, and the paced-mode clock bookkeeping.
struct ReplayShared {
  explicit ReplayShared(std::size_t tenants) : per_tenant(tenants) {}

  std::mutex mu;
  std::vector<ReplayStats> per_tenant;
  Status failure = OkStatus();
  bool failed = false;

  void Fold(std::uint16_t tenant, const ReplayStats& stats) {
    std::lock_guard<std::mutex> lock(mu);
    per_tenant[tenant].Merge(stats);
  }
  void Fail(const Status& status) {
    std::lock_guard<std::mutex> lock(mu);
    if (!failed) {
      failed = true;
      failure = status;
    }
  }
};

// Runs one op: optional pacing advance, tenant root scope, apply.
Status DriveOp(fs::FileSystem* file_system, const TraceEntry& entry,
               std::uint64_t pace_delta_us, obs::DiskTracer* tracer,
               ReplayStats* stats,
               const std::function<Status(sim::Micros)>& advance) {
  if (pace_delta_us > 0) {
    CEDAR_RETURN_IF_ERROR(advance(pace_delta_us));
  }
  const std::string root = "wl.t" + std::to_string(entry.tenant);
  obs::ScopedOp scope(tracer, root);
  return ApplyTraceOp(file_system, entry, stats, advance);
}

// Runs worker(0) .. worker(threads - 1), one thread each, and joins them.
// A single worker runs on the calling thread.
void RunOnThreads(int threads, const std::function<void(int)>& worker) {
  if (threads == 1) {
    worker(0);
    return;
  }
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(worker, t);
  }
  for (std::thread& t : pool) {
    t.join();
  }
}

}  // namespace

Result<MultiReplayStats> ReplayTraceMulti(
    fs::FileSystem* file_system, std::span<const TraceEntry> entries,
    const ReplayConfig& config,
    const std::function<Status(sim::Micros)>& advance,
    obs::DiskTracer* tracer) {
  std::uint16_t max_tenant = 0;
  for (const TraceEntry& entry : entries) {
    max_tenant = std::max(max_tenant, entry.tenant);
  }
  ReplayShared shared(static_cast<std::size_t>(max_tenant) + 1);
  const int threads = std::max(1, config.threads);

  // Paced mode: each op owes the clock the recorded gap since the op that
  // precedes it *on the same driving lane* (global order for turnstile,
  // the thread's subsequence for free-run), never going backwards.
  auto pace_delta = [&](std::uint64_t prev_vtime, const TraceEntry& entry) {
    if (!config.paced || entry.vtime_us <= prev_vtime) {
      return std::uint64_t{0};
    }
    return entry.vtime_us - prev_vtime;
  };

  if (config.mode == ReplayMode::kTurnstile) {
    // Turnstile: op i runs on lane i % threads, strictly in i order — the
    // disk sees the single-lane request stream exactly.
    std::mutex mu;
    std::condition_variable cv;
    std::size_t next = 0;
    std::uint64_t prev_vtime = entries.empty() ? 0 : entries.front().vtime_us;
    auto lane = [&](int tid) {
      for (std::size_t i = tid; i < entries.size();
           i += static_cast<std::size_t>(threads)) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return next == i || shared.failed; });
        if (shared.failed) {
          // Release every later turn so all lanes drain.
          next = entries.size();
          cv.notify_all();
          return;
        }
        const TraceEntry& entry = entries[i];
        ReplayStats local;
        const Status status =
            DriveOp(file_system, entry, pace_delta(prev_vtime, entry),
                    tracer, &local, advance);
        prev_vtime = std::max(prev_vtime, entry.vtime_us);
        shared.Fold(entry.tenant, local);
        if (!status.ok()) {
          shared.Fail(status);
          next = entries.size();
        } else {
          ++next;
        }
        cv.notify_all();
      }
    };
    RunOnThreads(threads, lane);
  } else {
    // Free-run: partition the trace across threads — by tenant when the
    // trace is multi-tenant (each tenant's ops keep their order, and
    // tenant namespaces make the lanes name-disjoint), by contiguous
    // blocks otherwise.
    std::vector<std::vector<const TraceEntry*>> lanes(threads);
    const bool by_tenant = max_tenant > 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::size_t lane =
          by_tenant ? entries[i].tenant % static_cast<std::size_t>(threads)
                    : i * static_cast<std::size_t>(threads) / entries.size();
      lanes[std::min(lane, static_cast<std::size_t>(threads) - 1)].push_back(
          &entries[i]);
    }
    auto worker = [&](int tid) {
      ReplayStats local;
      std::uint16_t tenant = 0;
      std::uint64_t prev_vtime =
          lanes[tid].empty() ? 0 : lanes[tid].front()->vtime_us;
      for (const TraceEntry* entry : lanes[tid]) {
        if (shared.failed) {
          break;
        }
        if (entry->tenant != tenant && local.ops > 0) {
          shared.Fold(tenant, local);
          local = ReplayStats{};
        }
        tenant = entry->tenant;
        const Status status = DriveOp(
            file_system, *entry, pace_delta(prev_vtime, *entry), tracer,
            &local, advance);
        prev_vtime = std::max(prev_vtime, entry->vtime_us);
        if (!status.ok()) {
          shared.Fail(status);
          break;
        }
      }
      if (local.ops > 0) {
        shared.Fold(tenant, local);
      }
    };
    RunOnThreads(threads, worker);
  }

  if (shared.failed) {
    return shared.failure;
  }
  MultiReplayStats stats;
  stats.threads = threads;
  stats.per_tenant = std::move(shared.per_tenant);
  for (const ReplayStats& tenant_stats : stats.per_tenant) {
    stats.totals.Merge(tenant_stats);
  }
  return stats;
}

Result<ReplayStats> ReplayTrace(
    fs::FileSystem* file_system, std::span<const TraceEntry> entries,
    const std::function<Status(sim::Micros)>& advance) {
  CEDAR_ASSIGN_OR_RETURN(
      const MultiReplayStats stats,
      ReplayTraceMulti(file_system, entries, ReplayConfig{}, advance));
  return stats.totals;
}

}  // namespace cedar::workload
