// workloadgen: record, synthesize, and replay CEDWRK02 workload traces.
//
//   workloadgen synthesize <out.trace> [--ops N] [--files N] [--zipf S]
//                                      [--tenants K] [--seed S]
//       Generate a deterministic trace (optionally Zipf-skewed and
//       multiplexed across K tenant namespaces) and save it.
//
//   workloadgen record <out.trace> [--ops N] [--seed S]
//       Drive the built-in synthetic client against a live FSD wrapped in
//       workload::RecordingFs and save what the recorder captured — the
//       same capture path a bench or test rig uses.
//
//   workloadgen replay <in.trace> [--threads N] [--freerun] [--scale X]
//                                 [--tenants K] [--zipf S] [--paced]
//       Replay the trace against a fresh FSD volume and print replay
//       stats, the disk-time split, and the post-replay fsck verdict.
//
//   workloadgen --selftest <dir>
//       synthesize -> save -> load -> replay at 1 and 4 threads (footprints
//       must match), then record -> replay. The ctest smoke test.
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
#include "src/util/random.h"
#include "src/workload/recorder.h"
#include "src/workload/replay.h"
#include "src/workload/trace.h"

namespace {

using cedar::Rng;
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
constexpr double kMaxThreads = 64;

// A flag a command takes. A switch sets `*on`; any other parses its value
// whole into `*whole` or `*real`, which must lie in [min, max].
struct Flag {
  const char* name;
  std::uint64_t* whole = nullptr;
  double* real = nullptr;
  bool* on = nullptr;
  double min = 0;
  double max = 4294967295.0;
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
    std::uint64_t whole = 0;
    double value = 0;
    const std::from_chars_result parsed =
        flag->whole != nullptr ? std::from_chars(text.data(), end, whole)
                               : std::from_chars(text.data(), end, value);
    if (flag->whole != nullptr) {
      value = static_cast<double>(whole);
    }
    if (text.empty() || parsed.ec != std::errc() || parsed.ptr != end ||
        !(value >= flag->min && value <= flag->max)) {
      std::fprintf(stderr, "workloadgen: bad value for %s: '%.*s'\n",
                   flag->name, static_cast<int>(text.size()), text.data());
      return false;
    }
    if (flag->whole != nullptr) {
      *flag->whole = whole;
    } else {
      *flag->real = value;
    }
  }
  return true;
}

std::vector<TraceEntry> Synthesize(std::uint32_t ops, std::uint32_t files,
                                   double zipf_s, std::uint32_t tenants,
                                   std::uint64_t seed) {
  cedar::workload::TraceGenConfig gen;
  gen.operations = ops;
  gen.name_space = files;
  Rng rng(seed);
  std::vector<TraceEntry> base = cedar::workload::GenerateTrace(gen, rng);
  ReplayConfig expand;
  expand.zipf_s = zipf_s;
  expand.tenants = tenants;
  expand.seed = seed;
  return cedar::workload::ExpandTrace(base, expand);
}

std::vector<TraceEntry> Record(std::uint32_t ops, std::uint64_t seed) {
  Rig rig;
  Fsd fsd(&rig.disk, FsdConfig{});
  CEDAR_CHECK_OK(fsd.Format());
  cedar::workload::RecordingFs rec(&fsd, &rig.clock);
  Rng rng(seed);
  std::vector<std::uint8_t> payload;
  for (std::uint32_t i = 0; i < ops; ++i) {
    cedar::workload::ScopedTenant scope(
        static_cast<std::uint16_t>(i % 3));
    const std::string name =
        cedar::workload::TenantPrefix(static_cast<std::uint16_t>(i % 3)) +
        "g" + std::to_string(rng.Below(24)) + ".dat";
    switch (rng.Below(4)) {
      case 0:
        payload.resize(rng.Between(128, 2048));
        for (auto& b : payload) {
          b = static_cast<std::uint8_t>(rng.Next());
        }
        CEDAR_CHECK_OK(rec.CreateFile(name, payload).status());
        break;
      case 1: {
        auto handle = rec.Open(name);
        if (handle.ok() && handle.value().byte_size > 0) {
          payload.resize(handle.value().byte_size);
          CEDAR_CHECK_OK(rec.Read(handle.value(), 0, payload));
          CEDAR_CHECK_OK(rec.Close(handle.value()));
        }
        break;
      }
      case 2:
        (void)rec.Touch(name);
        break;
      default:
        if (rng.Chance(0.2)) {
          (void)rec.DeleteFile(name);
        } else {
          (void)rec.SetKeep(name, static_cast<std::uint16_t>(
                                      rng.Between(1, 3)));
        }
        break;
    }
    rig.clock.Advance(rng.Between(1, 20) * cedar::sim::kMillisecond);
    CEDAR_CHECK_OK(fsd.Tick());
  }
  CEDAR_CHECK_OK(rec.Force());
  std::vector<TraceEntry> trace = rec.Trace();
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
  const std::vector<TraceEntry> synth = Synthesize(160, 24, 1.0, 3, 11);
  CEDAR_CHECK_OK(cedar::workload::SaveTraceBinary(path, synth));
  auto loaded = cedar::workload::LoadTraceBinary(path);
  CEDAR_CHECK_OK(loaded.status());
  CEDAR_CHECK(loaded.value() == synth);
  std::printf("synthesized %zu entries -> %s (round-trips)\n", synth.size(),
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

  const std::vector<TraceEntry> recorded = Record(120, 5);
  CEDAR_CHECK(!recorded.empty());
  config.threads = 2;
  const ReplayOutcome replayed = Replay(recorded, config);
  PrintOutcome(replayed, 2);
  CEDAR_CHECK(replayed.violations == 0);
  std::printf("workloadgen selftest: PASS\n");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: workloadgen synthesize <out.trace> [--ops N] "
               "[--files N] [--zipf S] [--tenants K] [--seed S]\n"
               "       workloadgen record <out.trace> [--ops N] [--seed S]\n"
               "       workloadgen replay <in.trace> [--threads N] "
               "[--freerun] [--scale X] [--tenants K] [--zipf S] [--paced]\n"
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
  std::uint64_t ops = command == "record" ? 400 : 500;
  std::uint64_t files = 40;
  std::uint64_t tenants = 0;
  std::uint64_t seed = 1;
  std::uint64_t threads = 1;
  double zipf = 0.0;
  double scale = 1.0;
  bool freerun = false;
  bool paced = false;
  const Flag ops_flag{"--ops", &ops};
  const Flag seed_flag{.name = "--seed", .whole = &seed, .max = 2e19};
  const Flag tenants_flag{.name = "--tenants", .whole = &tenants, .max = 65536};
  const Flag zipf_flag{.name = "--zipf", .real = &zipf, .max = 1000};

  if (command == "synthesize") {
    if (!ParseFlags(argc, argv,
                    {ops_flag, {.name = "--files", .whole = &files, .min = 1},
                     zipf_flag, tenants_flag, seed_flag})) {
      return Usage();
    }
    const std::vector<TraceEntry> trace = Synthesize(
        static_cast<std::uint32_t>(ops), static_cast<std::uint32_t>(files),
        zipf, static_cast<std::uint32_t>(tenants), seed);
    CEDAR_CHECK_OK(cedar::workload::SaveTraceBinary(path, trace));
    std::printf("wrote %zu entries to %s\n", trace.size(), path.c_str());
    return 0;
  }
  if (command == "record") {
    if (!ParseFlags(argc, argv, {ops_flag, seed_flag})) {
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
            {{.name = "--threads", .whole = &threads, .min = 1,
              .max = kMaxThreads},
             {.name = "--freerun", .on = &freerun},
             {.name = "--scale", .real = &scale, .max = 1000},
             tenants_flag, zipf_flag,
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
    config.scale = scale;
    config.tenants = static_cast<std::uint32_t>(tenants);
    config.zipf_s = zipf;
    config.paced = paced;
    std::printf("%8s %8s %8s %8s %8s %10s %6s %6s\n", "threads", "ops",
                "misses", "reads", "writes", "busy ms", "viol", "warn");
    const ReplayOutcome outcome = Replay(trace.value(), config);
    PrintOutcome(outcome, config.threads);
    return outcome.violations == 0 ? 0 : 1;
  }
  return Usage();
}
