// tracedump: inspect and summarize binary disk traces.
//
//   tracedump <trace.bin>            per-op-class summary of the ring
//   tracedump <trace.bin> --jsonl    re-emit the events as JSONL on stdout
//   tracedump --selftest <dir>       run a small FSD workload with tracing
//                                    on, dump <dir>/trace.bin, reload it,
//                                    and summarize — the smoke test
//
// The binary format is produced by obs::DiskTracer::DumpBinary (magic
// "CEDTRC04"); see src/obs/trace.h.

#include <cstdio>
#include <cstring>
#include <inttypes.h>
#include <string>
#include <vector>

#include "src/core/allocator.h"
#include "src/core/fsd.h"
#include "src/obs/trace.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/check.h"

namespace {

using cedar::obs::DiskTracer;
using cedar::obs::TraceEvent;

void Summarize(const DiskTracer& tracer) {
  const std::vector<TraceEvent> events = tracer.Events();
  std::printf("%zu events in ring (%" PRIu64 " recorded, %" PRIu64
              " dropped)\n\n",
              events.size(), tracer.total_events(), tracer.dropped_events());
  std::printf("%-24s %8s %8s %10s %10s %10s %10s\n", "op class", "reqs",
              "sectors", "seek ms", "rot ms", "xfer ms", "total ms");
  for (const auto& [name, agg] : tracer.Aggregates()) {
    std::printf("%-24s %8" PRIu64 " %8" PRIu64 " %10.1f %10.1f %10.1f %10.1f\n",
                name.c_str(), agg.requests, agg.sectors, agg.seek_us / 1000.0,
                agg.rotational_us / 1000.0, agg.transfer_us / 1000.0,
                agg.TotalUs() / 1000.0);
  }
}

int Dump(const std::string& path, bool jsonl) {
  auto tracer = DiskTracer::LoadBinary(path);
  if (!tracer.ok()) {
    std::fprintf(stderr, "tracedump: %s: %s\n", path.c_str(),
                 tracer.status().message().c_str());
    return 1;
  }
  if (jsonl) {
    for (const TraceEvent& event : tracer->Events()) {
      std::printf("{\"seq\":%" PRIu64 ",\"t_us\":%" PRIu64
                  ",\"op\":\"%.*s\",\"lba\":%" PRIu64 ",\"sectors\":%u}\n",
                  event.seq, event.start_us,
                  static_cast<int>(tracer->OpName(event.op_id).size()),
                  tracer->OpName(event.op_id).data(), event.lba,
                  event.sectors);
    }
    return 0;
  }
  Summarize(*tracer);
  return 0;
}

// Runs a small traced FSD workload, dumps, reloads, summarizes. Exercises
// the whole pipeline end to end; exits nonzero on any mismatch.
int SelfTest(const std::string& dir) {
  cedar::sim::VirtualClock clock;
  cedar::sim::SimDisk disk(cedar::sim::TestGeometry(),
                           cedar::sim::DiskTimingParams{}, &clock);
  DiskTracer tracer;
  disk.set_tracer(&tracer);
  cedar::core::Fsd fsd(&disk);
  CEDAR_CHECK_OK(fsd.Format());
  for (int i = 0; i < 20; ++i) {
    CEDAR_CHECK_OK(fsd.CreateFile("t/f" + std::to_string(i),
                                  std::vector<std::uint8_t>(900, 5))
                       .status());
  }
  CEDAR_CHECK_OK(fsd.Force());
  auto handle = fsd.Open("t/f0");
  CEDAR_CHECK_OK(handle.status());
  std::vector<std::uint8_t> out(900);
  CEDAR_CHECK_OK(fsd.Read(*handle, 0, out));

  // Exercise the self-healing paths so their op attributions land in the
  // trace: lose a track of the small-file area, then scrub. The patrol's
  // reads carry "fsd.scrub"; the leader rewrites carry "fsd.repair".
  const auto chs = disk.geometry().ToChs(
      cedar::core::RunAllocator::FirstSmallFileStart(fsd.layout(), 1));
  disk.DamageTrack(chs.cylinder, chs.head);
  auto scrubbed = fsd.Scrub();
  CEDAR_CHECK_OK(scrubbed.status());
  if (scrubbed->leaders_repaired == 0) {
    std::fprintf(stderr, "selftest: scrub repaired no leaders\n");
    return 1;
  }
  CEDAR_CHECK_OK(fsd.Shutdown());

  const std::string bin = dir + "/trace.bin";
  const std::string jsonl = dir + "/trace.jsonl";
  CEDAR_CHECK_OK(tracer.DumpBinary(bin));
  CEDAR_CHECK_OK(tracer.DumpJsonl(jsonl));

  auto reloaded = DiskTracer::LoadBinary(bin);
  CEDAR_CHECK_OK(reloaded.status());
  if (reloaded->Events().size() != tracer.Events().size()) {
    std::fprintf(stderr, "selftest: reload lost events (%zu != %zu)\n",
                 reloaded->Events().size(), tracer.Events().size());
    return 1;
  }
  const auto created = tracer.AggregateFor("fsd.create");
  const auto roundtrip = reloaded->AggregateFor("fsd.create");
  if (created.requests == 0 || roundtrip.requests != created.requests) {
    std::fprintf(stderr, "selftest: fsd.create aggregate mismatch\n");
    return 1;
  }
  for (const char* op : {"fsd.scrub", "fsd.repair"}) {
    if (reloaded->AggregateFor(op).requests == 0) {
      std::fprintf(stderr, "selftest: no %s ops attributed in the trace\n", op);
      return 1;
    }
  }
  Summarize(*reloaded);
  std::printf("\nselftest OK: %s, %s\n", bin.c_str(), jsonl.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return SelfTest(argc >= 3 ? argv[2] : ".");
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: tracedump <trace.bin> [--jsonl] | --selftest [dir]\n");
    return 2;
  }
  const bool jsonl = argc >= 3 && std::strcmp(argv[2], "--jsonl") == 0;
  return Dump(argv[1], jsonl);
}
