// workloadgen: record and replay CEDWRK02 workload traces.
//
//   workloadgen record <out.trace> [--ops N] [--seed S]
//       Run the tenant mix (src/workload/workload.h; bench_workload's
//       shape: three tenants, Zipf over 200 files each) against a live FSD
//       and save the trace it records — the same capture path the bench
//       uses. Files are named t<k>/f<rank>.db.
//
//   workloadgen replay <in.trace> [--threads N] [--freerun] [--paced]
//       Replay the trace against a fresh FSD volume and print replay
//       stats, the disk-time split, and the post-replay fsck verdict.
//
//   workloadgen --selftest <dir>
//       record -> save -> load -> replay at 1 and 4 threads (footprints
//       must match). The ctest smoke test.
//
// Every flag is checked: an unknown flag, a missing value, a value that
// does not parse whole or lies out of range (--threads at most 64) exits 2
// before anything runs.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/fsd.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/check.h"
#include "src/workload/replay.h"
#include "src/workload/trace.h"
#include "src/workload/workload.h"

namespace {

using cedar::core::Fsd;
using cedar::core::FsdConfig;
using cedar::workload::ReplayConfig;
using cedar::workload::ReplayMode;
using cedar::workload::TraceEntry;

struct Rig {
  cedar::sim::VirtualClock clock;
  cedar::sim::SimDisk disk;
  Rig() : disk(cedar::sim::DiskGeometry{}, cedar::sim::DiskTimingParams{},
               &clock) {}
};

// The most replay threads a run may ask for.
constexpr std::uint64_t kMaxThreads = 64;

// A flag a command takes. A switch sets `*on`; any other parses its value
// whole into `*value`, which must lie in [min, max].
struct Flag {
  const char* name;
  std::uint64_t* value = nullptr;
  bool* on = nullptr;
  std::uint64_t min = 0;
  std::uint64_t max = 4294967295;
};

// Parses argv[3..] into the targets of `flags`. An unknown flag, a missing
// value, or a value that does not parse whole or lies out of range is
// refused: false, after saying why on stderr.
bool ParseFlags(int argc, char** argv, std::initializer_list<Flag> flags) {
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Flag& f) { return f.name == arg; });
    if (flag == flags.end()) {
      std::fprintf(stderr, "workloadgen: unknown flag %s\n", argv[i]);
      return false;
    }
    if (flag->on != nullptr) {
      *flag->on = true;
      continue;
    }
    const std::string_view text = i + 1 < argc ? argv[++i] : "";
    const char* end = text.data() + text.size();
    std::uint64_t value = 0;
    const std::from_chars_result parsed =
        std::from_chars(text.data(), end, value);
    if (text.empty() || parsed.ec != std::errc() || parsed.ptr != end ||
        value < flag->min || value > flag->max) {
      std::fprintf(stderr, "workloadgen: bad value for %s: '%.*s'\n",
                   flag->name, static_cast<int>(text.size()), text.data());
      return false;
    }
    *flag->value = value;
  }
  return true;
}

// Records the tenant mix with `ops` ops drawn from `seed`.
std::vector<TraceEntry> Record(std::uint32_t ops, std::uint64_t seed) {
  Rig rig;
  Fsd fsd(&rig.disk, FsdConfig{});
  CEDAR_CHECK_OK(fsd.Format());
  std::vector<TraceEntry> trace;
  CEDAR_CHECK_OK(cedar::workload::RunTenantMix(
                     &fsd, {.ops = ops, .seed = seed},
                     [&](const std::string&, cedar::sim::Micros think) {
                       rig.clock.Advance(think);
                       return fsd.Tick();
                     },
                     &trace, &rig.clock)
                     .status());
  CEDAR_CHECK_OK(fsd.Shutdown());
  return trace;
}

struct ReplayOutcome {
  cedar::workload::MultiReplayStats stats;
  cedar::sim::DiskStats disk;
  std::uint64_t violations = 0;
  std::uint64_t warnings = 0;
};

ReplayOutcome Replay(const std::vector<TraceEntry>& trace,
                     const ReplayConfig& config) {
  Rig rig;
  FsdConfig fsd_config;
  // Free-running threads rendezvous through the commit daemon; turnstile
  // keeps the deterministic inline force.
  fsd_config.commit.daemon = config.mode == ReplayMode::kFreeRun;
  Fsd fsd(&rig.disk, fsd_config);
  CEDAR_CHECK_OK(fsd.Format());
  rig.disk.ResetStats();
  auto result = cedar::workload::ReplayTraceMulti(
      &fsd, trace, config, [&](cedar::sim::Micros think) {
        rig.clock.Advance(think);
        return fsd.Tick();
      });
  CEDAR_CHECK_OK(result.status());
  ReplayOutcome outcome;
  outcome.stats = std::move(result).value();
  outcome.disk = rig.disk.stats();
  auto report = fsd.Fsck();
  CEDAR_CHECK_OK(report.status());
  for (const auto& issue : report.value().issues) {
    if (issue.severity ==
        cedar::core::FsckIssue::Severity::kViolation) {
      ++outcome.violations;
    } else {
      ++outcome.warnings;
    }
  }
  CEDAR_CHECK_OK(fsd.Shutdown());
  return outcome;
}

void PrintOutcome(const ReplayOutcome& outcome, int threads) {
  std::printf("%8d %8llu %8llu %8llu %8llu %10.1f %6llu %6llu\n", threads,
              (unsigned long long)outcome.stats.totals.ops,
              (unsigned long long)outcome.stats.totals.not_found,
              (unsigned long long)outcome.disk.reads,
              (unsigned long long)outcome.disk.writes,
              outcome.disk.busy_us / 1000.0,
              (unsigned long long)outcome.violations,
              (unsigned long long)outcome.warnings);
}

int Selftest(const std::string& dir) {
  const std::string path = dir + "/workloadgen_selftest.trace";
  const std::vector<TraceEntry> recorded = Record(160, 11);
  CEDAR_CHECK_OK(cedar::workload::SaveTraceBinary(path, recorded));
  auto loaded = cedar::workload::LoadTraceBinary(path);
  CEDAR_CHECK_OK(loaded.status());
  CEDAR_CHECK(loaded.value() == recorded);
  std::printf("recorded %zu entries -> %s (round-trips)\n", recorded.size(),
              path.c_str());

  std::printf("%8s %8s %8s %8s %8s %10s %6s %6s\n", "threads", "ops",
              "misses", "reads", "writes", "busy ms", "viol", "warn");
  ReplayConfig config;
  config.threads = 1;
  const ReplayOutcome one = Replay(loaded.value(), config);
  PrintOutcome(one, 1);
  config.threads = 4;
  const ReplayOutcome four = Replay(loaded.value(), config);
  PrintOutcome(four, 4);
  CEDAR_CHECK(one.disk.reads == four.disk.reads &&
              one.disk.writes == four.disk.writes &&
              one.disk.busy_us == four.disk.busy_us);
  CEDAR_CHECK(one.violations == 0 && four.violations == 0);
  std::printf("workloadgen selftest: PASS\n");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: workloadgen record <out.trace> [--ops N] [--seed S]\n"
               "       workloadgen replay <in.trace> [--threads N] "
               "[--freerun] [--paced]\n"
               "       workloadgen --selftest <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--selftest") == 0) {
    return Selftest(argv[2]);
  }
  if (argc < 3) {
    return Usage();
  }
  const std::string command = argv[1];
  const std::string path = argv[2];
  std::uint64_t ops = 400;
  std::uint64_t seed = 1;
  std::uint64_t threads = 1;
  bool freerun = false;
  bool paced = false;
  if (command == "record") {
    if (!ParseFlags(argc, argv,
                    {{.name = "--ops", .value = &ops},
                     {.name = "--seed", .value = &seed, .max = ~0ull}})) {
      return Usage();
    }
    const std::vector<TraceEntry> trace =
        Record(static_cast<std::uint32_t>(ops), seed);
    CEDAR_CHECK_OK(cedar::workload::SaveTraceBinary(path, trace));
    std::printf("recorded %zu entries to %s\n", trace.size(), path.c_str());
    return 0;
  }
  if (command == "replay") {
    if (!ParseFlags(
            argc, argv,
            {{.name = "--threads", .value = &threads, .min = 1,
              .max = kMaxThreads},
             {.name = "--freerun", .on = &freerun},
             {.name = "--paced", .on = &paced}})) {
      return Usage();
    }
    auto trace = cedar::workload::LoadTraceBinary(path);
    if (!trace.ok()) {
      std::fprintf(stderr, "workloadgen: %s\n",
                   trace.status().message().c_str());
      return 1;
    }
    ReplayConfig config;
    config.threads = static_cast<int>(threads);
    config.mode = freerun ? ReplayMode::kFreeRun : ReplayMode::kTurnstile;
    config.paced = paced;
    std::printf("%8s %8s %8s %8s %8s %10s %6s %6s\n", "threads", "ops",
                "misses", "reads", "writes", "busy ms", "viol", "warn");
    const ReplayOutcome outcome = Replay(trace.value(), config);
    PrintOutcome(outcome, config.threads);
    return outcome.violations == 0 ? 0 : 1;
  }
  return Usage();
}
