// Shared helpers for the bench programs: strict flag parsing, the smoke
// switch, the simulated disk rig, virtual-time and I/O counters, and the
// paper-comparison row layout.

#ifndef CEDAR_BENCH_BENCH_COMMON_H_
#define CEDAR_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>

#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/check.h"

namespace cedar::bench {

// ---- Command-line helpers shared by every bench binary. ----

// A flag a bench accepts: its exact "--name", and whether it consumes a
// value (given as the next token or "--name=value").
struct FlagSpec {
  const char* name;
  bool takes_value = false;
};

// Strict argv validation: every bench declares its flags up front and any
// unknown "--flag" (or stray positional) aborts with exit code 2 instead
// of being silently ignored — a mistyped CI gate invocation must fail
// loudly, not pass vacuously. `passthrough_prefixes` whitelists flag
// families owned by an embedded library (bench_micro forwards
// "--benchmark_*" to google-benchmark).
inline void CheckFlags(int argc, char** argv,
                       std::initializer_list<FlagSpec> specs,
                       std::initializer_list<const char*> passthrough_prefixes =
                           {}) {
  auto reject = [&](const char* arg) {
    std::fprintf(stderr, "%s: unknown argument '%s'\naccepted flags:", argv[0],
                 arg);
    for (const FlagSpec& spec : specs) {
      std::fprintf(stderr, " %s%s", spec.name, spec.takes_value ? " <v>" : "");
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      reject(arg);
    }
    bool matched = false;
    for (const FlagSpec& spec : specs) {
      const std::size_t n = std::strlen(spec.name);
      if (std::strcmp(arg, spec.name) == 0) {
        if (spec.takes_value) {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: flag '%s' needs a value\n", argv[0],
                         spec.name);
            std::exit(2);
          }
          ++i;  // value consumed
        }
        matched = true;
        break;
      }
      if (spec.takes_value && std::strncmp(arg, spec.name, n) == 0 &&
          arg[n] == '=') {
        matched = true;
        break;
      }
    }
    for (const char* prefix : passthrough_prefixes) {
      matched = matched || std::strncmp(arg, prefix, std::strlen(prefix)) == 0;
    }
    if (!matched) {
      reject(arg);
    }
  }
}

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

// Parses `--name VALUE` (or `--name=VALUE`); nullptr when absent.
inline const char* StringFlag(int argc, char** argv, const char* flag,
                              const char* fallback = nullptr) {
  const std::size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], flag, flag_len) == 0 &&
        argv[i][flag_len] == '=') {
      return argv[i] + flag_len + 1;
    }
  }
  return fallback;
}

// Every bench binary accepts --smoke: a reduced workload that exercises the
// same code paths in a couple of seconds, so CI can run the whole bench
// suite as a build-health check. Smoke numbers are NOT the paper
// reproduction — run without the flag for the real tables.
inline bool SmokeMode(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  if (smoke) {
    std::printf("[smoke mode: reduced workload, not the paper numbers]\n");
  }
  return smoke;
}

// The simulated "Dorado with a Trident-class 300 MB drive" (or a smaller
// drive of the same kind).
struct Rig {
  sim::VirtualClock clock;
  sim::SimDisk disk;

  explicit Rig(const sim::DiskGeometry& geometry = {})
      : disk(geometry, sim::DiskTimingParams{}, &clock) {}
};

// Measures the virtual time consumed by `body` in milliseconds.
inline double TimedMs(sim::VirtualClock& clock,
                      const std::function<void()>& body) {
  const sim::Micros before = clock.now();
  body();
  return static_cast<double>(clock.now() - before) / 1000.0;
}

// Measures the disk I/O requests issued by `body`.
inline std::uint64_t CountedIos(sim::SimDisk& disk,
                                const std::function<void()>& body) {
  const std::uint64_t before = disk.stats().TotalIos();
  body();
  return disk.stats().TotalIos() - before;
}

// One table row: measured A vs B with the paper's numbers alongside.
inline void PrintRow(const char* label, double a, double b,
                     double paper_a, double paper_b) {
  const double ratio = b != 0 ? a / b : 0;
  const double paper_ratio = paper_b != 0 ? paper_a / paper_b : 0;
  std::printf("%-22s %10.1f %10.1f  x%-6.2f | paper: %8.0f %8.0f  x%-6.2f\n",
              label, a, b, ratio, paper_a, paper_b, paper_ratio);
}

inline void PrintRowHeader(const char* label, const char* a, const char* b) {
  std::printf("%-22s %10s %10s  %-7s | %-6s %8s %8s  %-7s\n", label, a, b,
              "ratio", "", a, b, "ratio");
}

}  // namespace cedar::bench

#endif  // CEDAR_BENCH_BENCH_COMMON_H_
