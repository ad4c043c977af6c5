// Multi-threaded trace replay: the "replay" half of the workload engine.
//
// A recorded trace is driven, op for op as recorded, against any
// fs::FileSystem by a thread pool in one of two modes:
//
//   kTurnstile — op i runs on thread i % threads, strictly in i order
//     (the concurrency_test determinism pin generalized to traces). The
//     disk sees an identical request stream at any thread count, so the
//     numbers are exactly reproducible: these are the metrics the CI
//     perf gate compares against checked-in baselines.
//
//   kFreeRun — ops are partitioned by tenant across threads and each
//     thread runs its subsequence at full speed. Virtual-time interleaving
//     is schedule-dependent (seek order, group-commit rendezvous), so
//     free-running numbers are reported as informational context — they
//     show real contention behavior, not a gateable constant.
//
// Pacing: open-loop replay honors the trace's recorded virtual-time deltas
// as think time (each thread advances the shared clock before its op, which
// is what lets the group-commit timer fire as it did at record time);
// closed-loop replay issues ops back-to-back, measuring the system's own
// service time only.
//
// Tenants: each entry carries the tenant that issued it (the tenant mix in
// src/workload/workload.h names tenant k's files "t<k>/..."). When a
// DiskTracer is attached, each op runs under a root ScopedOp "wl.t<k>", so
// RootAggregates() splits disk time by tenant.

#ifndef CEDAR_WORKLOAD_REPLAY_H_
#define CEDAR_WORKLOAD_REPLAY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/fsapi/file_system.h"
#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/workload/trace.h"

namespace cedar::workload {

enum class ReplayMode : std::uint8_t {
  kTurnstile,  // deterministic: identical footprint at any thread count
  kFreeRun,    // concurrent: real contention, schedule-dependent timing
};

struct ReplayConfig {
  int threads = 1;
  ReplayMode mode = ReplayMode::kTurnstile;
  // Open-loop pacing: honor recorded vtime deltas as think time. When
  // paced, `advance` must be safe to call from the replay threads (the
  // shared virtual clock is; pass a thread-safe Tick, or use closed-loop
  // for free-running replay).
  bool paced = false;
};

struct MultiReplayStats {
  ReplayStats totals;
  std::vector<ReplayStats> per_tenant;  // indexed by tenant id
  int threads = 0;
};

// Replays `entries` with `config.threads` workers (a single worker runs on
// the calling thread). `advance` receives think time: wire it to the rig
// clock plus the system's Tick, which drives group commit. `tracer` is
// optional; when set, every op runs under a root "wl.t<k>" scope for
// per-tenant disk-time attribution. The first op failure aborts the
// replay and is returned.
Result<MultiReplayStats> ReplayTraceMulti(
    fs::FileSystem* file_system, std::span<const TraceEntry> entries,
    const ReplayConfig& config,
    const std::function<Status(sim::Micros)>& advance,
    obs::DiskTracer* tracer = nullptr);

// Replays `entries` in order on the calling thread, closed-loop.
Result<ReplayStats> ReplayTrace(
    fs::FileSystem* file_system, std::span<const TraceEntry> entries,
    const std::function<Status(sim::Micros)>& advance);

}  // namespace cedar::workload

#endif  // CEDAR_WORKLOAD_REPLAY_H_
