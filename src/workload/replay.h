// Multi-threaded trace replay: the "replay" half of the workload engine.
//
// A recorded (or synthesized) trace is first *expanded* into a concrete op
// plan — scale factor, Zipf popularity remap, tenant multiplexing — and
// then *driven* against any fs::FileSystem by a thread pool in one of two
// modes:
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
// Tenant namespaces: expanded ops are prefixed "t<k>/", so each tenant
// lives in its own lexicographic region of the name table — the per-tenant
// path-prefix model. When a DiskTracer is attached, each op runs under a
// root ScopedOp "wl.t<k>", so RootAggregates() splits disk time by tenant.

#ifndef CEDAR_WORKLOAD_REPLAY_H_
#define CEDAR_WORKLOAD_REPLAY_H_

#include <cstdint>
#include <functional>
#include <string>
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
  // Op-stream multiplier: 2.0 repeats the trace twice (new versions of the
  // same files), 0.5 replays the first half. Applied before tenanting.
  double scale = 1.0;
  // Tenant multiplexing: ops are dealt round-robin across this many
  // tenants and namespaced "t<k>/...". 0 keeps the tenants recorded in the
  // trace.
  std::uint32_t tenants = 0;
  // Zipf popularity remap: when s > 0, every op's file identity is redrawn
  // from a Zipf(s) distribution over the trace's distinct names (rank 0 =
  // first-seen name). Misses (reads before the remapped create) are
  // tolerated, exactly like replaying against a partially recovered
  // volume. s = 0 keeps recorded identities.
  double zipf_s = 0.0;
  // Open-loop pacing: honor recorded vtime deltas as think time.
  bool paced = false;
  std::uint64_t seed = 1;  // drives the Zipf redraw only
};

// Pure, deterministic plan expansion (exposed for tests): applies
// zipf_s/scale/tenants to `entries` and returns the concrete op stream the
// replayer will drive. kAdvance think-time entries are preserved; pacing
// on recorded vtime deltas is applied by the driver (ReplayTraceMulti),
// not materialized here. When paced, `advance` must be safe to call from
// the replay threads (the shared virtual clock is; pass a thread-safe
// Tick, or use closed-loop for free-running replay).
std::vector<TraceEntry> ExpandTrace(std::span<const TraceEntry> entries,
                                    const ReplayConfig& config);

struct MultiReplayStats {
  ReplayStats totals;
  std::vector<ReplayStats> per_tenant;  // indexed by tenant id
  int threads = 0;
};

// Expands `entries` per `config` and replays the plan with
// `config.threads` workers (a single worker runs on the calling thread).
// `advance` receives think time: wire it to the rig clock plus the
// system's Tick, which drives group commit. `tracer` is optional; when
// set, every op runs under a root "wl.t<k>" scope for per-tenant disk-time
// attribution. The first op failure aborts the replay and is returned.
Result<MultiReplayStats> ReplayTraceMulti(
    fs::FileSystem* file_system, std::span<const TraceEntry> entries,
    const ReplayConfig& config,
    const std::function<Status(sim::Micros)>& advance,
    obs::DiskTracer* tracer = nullptr);

// Replays `entries` as recorded, in order, on the calling thread: the
// default ReplayConfig's plan.
Result<ReplayStats> ReplayTrace(
    fs::FileSystem* file_system, std::span<const TraceEntry> entries,
    const std::function<Status(sim::Micros)>& advance);

// The tenant namespace prefix used by ExpandTrace ("t3/" for tenant 3).
std::string TenantPrefix(std::uint16_t tenant);

}  // namespace cedar::workload

#endif  // CEDAR_WORKLOAD_REPLAY_H_
