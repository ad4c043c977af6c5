// crashtest: systematic crash-point exploration of FSD recovery.
//
//   crashtest                        bounded sweep (both VAM modes), fast
//                                    enough for CI (< ~30 s)
//   crashtest --exhaustive           every clean/torn/reorder variant of
//                                    every write, no case cap
//   crashtest --mode=plain|vamlog    restrict to one recovery mode
//   crashtest --max-cases=N          override the bounded-sweep cap
//   crashtest --double-crash=N       recovery re-crash points per clean cut
//   crashtest --seed=N               sampling seed
//   crashtest --cache-frames=N       FSD page-cache frames (default 512,
//                                    which holds the whole name table)
//   crashtest --ckpt-daemon          run the stepped checkpoint round with
//                                    the smallest valid recovery window
//   crashtest --dump-dir=DIR        dump failing disk images + schedules
//   crashtest --quiet               summary + failures only, no table
//
// For each crash point of the standard create/write/rename/delete workload
// the harness clones the volume, arms the crash, recovers with Mount(),
// and judges the result with Fsd::Fsck() plus a durability oracle (every
// op acked by the last completed Force must survive). Clean cuts are
// additionally re-crashed DURING recovery. Exit status is 0 only when
// every enumerated case passes in every requested mode.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <inttypes.h>
#include <map>
#include <string>
#include <vector>

#include "src/crash/harness.h"

namespace {

using cedar::crash::CaseResult;
using cedar::crash::CrashHarness;
using cedar::crash::HarnessOptions;
using cedar::crash::HarnessReport;
using cedar::crash::ScheduleEntry;

struct PointRow {
  std::uint64_t cases = 0;
  std::uint64_t failed = 0;
};

void PrintTable(const HarnessReport& report) {
  // One row per crash point (write index), aggregating its variants.
  std::map<std::uint64_t, PointRow> rows;
  for (const CaseResult& r : report.results) {
    PointRow& row = rows[r.c.plan.at_write_index];
    ++row.cases;
    row.failed += r.pass ? 0 : 1;
  }
  std::printf("  %-5s %-8s %-4s %-6s %-26s %6s %6s  %s\n", "write", "lba",
              "len", "batch", "op", "cases", "fail", "verdict");
  for (const auto& [w, row] : rows) {
    const ScheduleEntry& e = report.run.writes[w];
    std::printf("  %-5" PRIu64 " %-8" PRIu64 " %-4u %-6u %-26s %6" PRIu64
                " %6" PRIu64 "  %s\n",
                w, e.lba, e.sectors, e.batch, e.op.c_str(), row.cases,
                row.failed, row.failed == 0 ? "PASS" : "FAIL");
  }
}

void PrintFailures(const HarnessReport& report) {
  for (const CaseResult& r : report.results) {
    if (!r.pass) {
      std::printf("  FAIL w%" PRIu64 " [%s]: %s\n", r.c.plan.at_write_index,
                  r.c.variant.c_str(), r.failure.c_str());
    }
  }
}

int RunMode(const char* label, const HarnessOptions& options, bool quiet) {
  CrashHarness harness(options);
  auto report = harness.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "crashtest: %s: harness error: %s\n", label,
                 report.status().message().c_str());
    return 1;
  }
  std::printf("mode %-7s schedule %zu writes, enumerated %" PRIu64
              " cases, ran %zu (+%" PRIu64 " double-crash)\n",
              label, report->run.writes.size(), report->enumerated,
              report->results.size() - report->double_crash_cases,
              report->double_crash_cases);
  if (!quiet) {
    PrintTable(*report);
  }
  PrintFailures(*report);
  std::printf("mode %-7s %" PRIu64 " passed, %" PRIu64 " failed\n", label,
              report->passed(), report->failed());
  return report->AllPassed() && !report->results.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool exhaustive = false;
  bool quiet = false;
  std::uint64_t max_cases = 600;
  std::uint32_t double_crash = 2;
  std::uint64_t seed = 0x5EEDCA5Eu;
  std::string dump_dir;
  std::string mode = "both";
  std::size_t cache_frames = HarnessOptions{}.cache_frames;
  bool checkpoint_daemon = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg == "--exhaustive") {
      exhaustive = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--ckpt-daemon") {
      checkpoint_daemon = true;
    } else if (arg.rfind("--max-cases=", 0) == 0) {
      max_cases = std::strtoull(value("--max-cases="), nullptr, 10);
    } else if (arg.rfind("--double-crash=", 0) == 0) {
      double_crash = static_cast<std::uint32_t>(
          std::strtoul(value("--double-crash="), nullptr, 10));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(value("--seed="), nullptr, 10);
    } else if (arg.rfind("--cache-frames=", 0) == 0) {
      cache_frames = std::strtoull(value("--cache-frames="), nullptr, 10);
    } else if (arg.rfind("--dump-dir=", 0) == 0) {
      dump_dir = value("--dump-dir=");
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode = value("--mode=");
    } else {
      std::fprintf(stderr,
                   "usage: crashtest [--exhaustive] [--quiet] "
                   "[--mode=plain|vamlog|both] [--max-cases=N] "
                   "[--double-crash=N] [--seed=N] [--cache-frames=N] "
                   "[--ckpt-daemon] [--dump-dir=DIR]\n");
      return 2;
    }
  }
  if (mode != "plain" && mode != "vamlog" && mode != "both") {
    std::fprintf(stderr, "crashtest: bad --mode '%s'\n", mode.c_str());
    return 2;
  }
  if (cache_frames < 8) {
    std::fprintf(stderr, "crashtest: --cache-frames must be at least 8\n");
    return 2;
  }

  HarnessOptions options;
  options.max_cases = exhaustive ? 0 : max_cases;
  options.exhaustive_torn = exhaustive;
  options.double_crash_points = double_crash;
  options.seed = seed;
  options.dump_dir = dump_dir;
  options.cache_frames = cache_frames;
  options.checkpoint_daemon = checkpoint_daemon;

  int status = 0;
  if (mode != "vamlog") {
    options.vam_logging = false;
    status |= RunMode("plain", options, quiet);
  }
  if (mode != "plain") {
    options.vam_logging = true;
    status |= RunMode("vamlog", options, quiet);
  }
  return status;
}
