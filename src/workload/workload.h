// Workload generators for the benchmarks.
//
//  - SizeDistribution reproduces the paper's section 5.6 measurement: 50%
//    of files are under 4000 bytes but hold only ~8% of the sectors.
//  - PopulateVolume fills a volume to a target utilization ("moderately
//    full" for the recovery benchmarks).
//  - MakeDo models the Cedar build tool used as the metadata-intensive
//    benchmark in Table 3: scan a module tree, stat everything, read the
//    stale sources, emit new object-file versions, delete the old ones.
//  - BulkUpdate models the section 5.4 workload: bursts of property updates
//    and version replacements localized to one subdirectory, the hot-spot
//    pattern group commit absorbs.
//  - RunTenantMix is the multi-tenant Zipf client the workload and
//    scale-out benches drive; it writes its own trace when asked, which
//    bench_workload replays and `workloadgen record` saves.

#ifndef CEDAR_WORKLOAD_WORKLOAD_H_
#define CEDAR_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/fsapi/file_system.h"
#include "src/sim/clock.h"
#include "src/util/random.h"
#include "src/util/status.h"
#include "src/workload/trace.h"

namespace cedar::workload {

// `size` bytes drawn from an Rng seeded with `seed`: a payload is named by
// its seed, so a replay reproduces every file's contents exactly.
std::vector<std::uint8_t> Payload(std::uint64_t size, std::uint64_t seed);

class SizeDistribution {
 public:
  // Half the draws are "small" (uniform 128..4000 bytes), half follow an
  // exponential tail with the given mean, floored at 4000 bytes.
  explicit SizeDistribution(double large_mean_bytes = 24000.0)
      : large_mean_(large_mean_bytes) {}

  std::uint64_t Sample(Rng& rng) const;

 private:
  double large_mean_;
};

// Creates `count` files named <prefix>NNN with sizes from `sizes`. Returns
// the total bytes written.
Result<std::uint64_t> PopulateVolume(fs::FileSystem* file_system,
                                     std::string_view prefix,
                                     std::uint32_t count,
                                     const SizeDistribution& sizes, Rng& rng);

struct MakeDoConfig {
  std::uint32_t modules = 50;
  double stale_fraction = 0.3;  // modules needing recompilation
  std::uint32_t source_bytes = 6000;
  std::uint32_t object_bytes = 9000;
};

struct MakeDoResult {
  std::uint32_t modules_scanned = 0;
  std::uint32_t modules_rebuilt = 0;
};

// Sets up a module tree (sources + objects) under `prefix`.
Status MakeDoSetup(fs::FileSystem* file_system, std::string_view prefix,
                   const MakeDoConfig& config, Rng& rng);

// Runs one build pass: list, stat, read stale sources, write new objects,
// delete old object versions.
Result<MakeDoResult> MakeDoBuild(fs::FileSystem* file_system,
                                 std::string_view prefix,
                                 const MakeDoConfig& config, Rng& rng);

struct BulkUpdateConfig {
  std::uint32_t files = 40;       // subdirectory size
  std::uint32_t rounds = 10;      // bursts
  std::uint32_t touches_per_round = 30;
  std::uint32_t rewrites_per_round = 5;
  sim::Micros think_time = 150 * sim::kMillisecond;  // between operations
};

// Runs the bulk-update pattern. `advance` is called with the think time
// between operations so group commit timers can fire (pass the virtual
// clock's Advance + the file system's Tick).
Status BulkUpdate(fs::FileSystem* file_system, std::string_view prefix,
                  const BulkUpdateConfig& config, Rng& rng,
                  const std::function<Status(sim::Micros)>& advance);

// The tenant namespace prefix ("t3/" for tenant 3).
std::string TenantPrefix(std::uint16_t tenant);

// The tenant mix. Op i runs as tenant i % tenants on file t<k>/f<rank>.db,
// its rank drawn Zipf(zipf_s) over files_per_tenant names. Then one draw
// out of eight picks the op:
//   0-1  create a new version of 256..4096 fresh bytes;
//   2-4  open, read the head (at most 4 KB), close;
//   5    open, overwrite the head (at most 512 bytes), close;
//   6    touch, or with rename_slot a rename to t<k>/mv<rank>.db and back;
//   7    delete one time in four, else touch.
// Reads and overwrites skip absent and empty files, and a touch, delete or
// rename that misses is part of the mix. After each op a think time of
// 1..15 ms goes to `think` with the op's file name; one Force ends the mix.
// Every draw comes from one Rng seeded with `seed`, so the op stream does
// not depend on how fast the file system underneath runs.
struct TenantMix {
  std::uint32_t ops = 6000;
  std::uint32_t files_per_tenant = 200;
  std::uint32_t tenants = 3;
  double zipf_s = 1.0;
  std::uint64_t seed = 42;
  bool rename_slot = false;
};

// Runs `mix` against `file_system` and returns how many updates (creates,
// overwrites, renames and deletes) succeeded, or the first failure of a
// create, read, overwrite, close, think or the final force.
//
// With `trace` set (and `clock` with it), the mix also appends each op it
// issued, stamped with its tenant and with `clock`'s time after the op
// returned: every open, hit or miss; a read, write or close that
// succeeded; a touch or delete that succeeded or missed; and the final
// force (tenant 0). A payload is stored as its CRC32, the seed a replay
// writes it from. A trace has no rename, so a rename_slot mix is refused
// with kInvalidArgument before any op runs.
Result<std::uint64_t> RunTenantMix(
    fs::FileSystem* file_system, const TenantMix& mix,
    const std::function<Status(const std::string& name, sim::Micros think)>&
        think,
    std::vector<TraceEntry>* trace = nullptr,
    const sim::VirtualClock* clock = nullptr);

}  // namespace cedar::workload

#endif  // CEDAR_WORKLOAD_WORKLOAD_H_
