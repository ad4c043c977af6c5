#include "src/workload/replay.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "src/util/random.h"
#include "src/workload/zipf.h"

namespace cedar::workload {
namespace {

bool HasFileName(TraceOp op) {
  switch (op) {
    case TraceOp::kForce:
    case TraceOp::kAdvance:
    case TraceOp::kList:  // carries a prefix, not a file identity
      return false;
    default:
      return true;
  }
}

}  // namespace

std::string TenantPrefix(std::uint16_t tenant) {
  return std::string("t").append(std::to_string(tenant)) + "/";
}

std::vector<TraceEntry> ExpandTrace(std::span<const TraceEntry> entries,
                                    const ReplayConfig& config) {
  // 1. Zipf popularity remap over the trace's distinct file names, in
  // first-appearance order (rank 0 = first-seen). The redraw sequence is a
  // function of (seed, op position) only, so the plan is deterministic.
  std::vector<TraceEntry> base(entries.begin(), entries.end());
  if (config.zipf_s > 0.0) {
    std::vector<std::string> distinct;
    std::map<std::string, std::uint32_t, std::less<>> seen;
    for (const TraceEntry& entry : base) {
      if (HasFileName(entry.op) && !seen.contains(entry.name)) {
        seen.emplace(entry.name, static_cast<std::uint32_t>(distinct.size()));
        distinct.push_back(entry.name);
      }
    }
    if (!distinct.empty()) {
      const ZipfSampler zipf(static_cast<std::uint32_t>(distinct.size()),
                             config.zipf_s);
      Rng rng(config.seed);
      for (TraceEntry& entry : base) {
        if (HasFileName(entry.op)) {
          entry.name = distinct[zipf.Sample(rng)];
        }
      }
    }
  }

  // 2. Scale: repeat (or truncate) the op stream. Repeats create new
  // versions of the same files — the Cedar version semantics make that the
  // natural "more of the same workload".
  const std::size_t total = base.empty()
                                ? 0
                                : static_cast<std::size_t>(
                                      config.scale *
                                          static_cast<double>(base.size()) +
                                      0.5);
  std::vector<TraceEntry> plan;
  plan.reserve(total);
  for (std::size_t k = 0; k < total; ++k) {
    plan.push_back(base[k % base.size()]);
  }

  // 3. Tenant multiplexing: deal ops round-robin across config.tenants and
  // namespace every name "t<k>/...". tenants == 0 keeps the tenants (and
  // names) recorded in the trace.
  if (config.tenants > 0) {
    std::uint32_t k = 0;
    for (TraceEntry& entry : plan) {
      if (entry.op == TraceOp::kAdvance) {
        continue;  // think time belongs to the whole rig, not a tenant
      }
      entry.tenant = static_cast<std::uint16_t>(k % config.tenants);
      if (entry.op != TraceOp::kForce) {
        entry.name = TenantPrefix(entry.tenant) + entry.name;
      }
      ++k;
    }
  }
  return plan;
}

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

// Runs one plan op: optional pacing advance, tenant root scope, apply.
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

}  // namespace

Result<MultiReplayStats> ReplayTraceMulti(
    fs::FileSystem* file_system, std::span<const TraceEntry> entries,
    const ReplayConfig& config,
    const std::function<Status(sim::Micros)>& advance,
    obs::DiskTracer* tracer) {
  const std::vector<TraceEntry> plan = ExpandTrace(entries, config);
  std::uint16_t max_tenant = 0;
  for (const TraceEntry& entry : plan) {
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
    if (threads <= 1) {
      ReplayStats local;
      std::uint64_t prev_vtime = plan.empty() ? 0 : plan.front().vtime_us;
      for (const TraceEntry& entry : plan) {
        const Status status =
            DriveOp(file_system, entry, pace_delta(prev_vtime, entry), tracer,
                    &local, advance);
        prev_vtime = std::max(prev_vtime, entry.vtime_us);
        shared.Fold(entry.tenant, local);
        local = ReplayStats{};
        if (!status.ok()) {
          return status;
        }
      }
    } else {
      // Turnstile: op i runs on thread i % threads, strictly in i order —
      // the disk sees the single-threaded request stream exactly.
      std::mutex mu;
      std::condition_variable cv;
      std::size_t next = 0;
      std::uint64_t prev_vtime = plan.empty() ? 0 : plan.front().vtime_us;
      auto worker = [&](int tid) {
        for (std::size_t i = tid; i < plan.size();
             i += static_cast<std::size_t>(threads)) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return next == i || shared.failed; });
          if (shared.failed) {
            // Release every later turn so all workers drain.
            next = plan.size();
            cv.notify_all();
            return;
          }
          const TraceEntry& entry = plan[i];
          ReplayStats local;
          const Status status =
              DriveOp(file_system, entry, pace_delta(prev_vtime, entry),
                      tracer, &local, advance);
          prev_vtime = std::max(prev_vtime, entry.vtime_us);
          shared.Fold(entry.tenant, local);
          if (!status.ok()) {
            shared.Fail(status);
            next = plan.size();
          } else {
            ++next;
          }
          cv.notify_all();
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back(worker, t);
      }
      for (std::thread& t : pool) {
        t.join();
      }
    }
  } else {
    // Free-run: partition the plan across threads — by tenant when the
    // plan is multi-tenant (each tenant's ops keep their order, and
    // tenant namespaces make the lanes name-disjoint), by contiguous
    // blocks otherwise.
    std::vector<std::vector<const TraceEntry*>> lanes(threads);
    const bool by_tenant = max_tenant > 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const std::size_t lane =
          by_tenant ? plan[i].tenant % static_cast<std::size_t>(threads)
                    : i * static_cast<std::size_t>(threads) / plan.size();
      lanes[std::min(lane, static_cast<std::size_t>(threads) - 1)].push_back(
          &plan[i]);
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
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(worker, t);
    }
    for (std::thread& t : pool) {
      t.join();
    }
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

}  // namespace cedar::workload
