// faultcampaign: seeded media-fault campaigns against FSD's self-healing.
//
//   faultcampaign                     64 seeds x every fault class
//   faultcampaign --smoke             4 seeds x every class (CI-sized)
//   faultcampaign --seeds=N           seeds per class
//   faultcampaign --seed-base=N       first seed value (default 1)
//   faultcampaign --classes=a,b       subset of persistent,write-fault,
//                                     corruption,mixed
//   faultcampaign --dump-dir=DIR      dump failing disk images + notes
//   faultcampaign --quiet             summary + failures only, no table
//
// Each N is a whole unsigned decimal; any other value exits 2 with the
// usage line.
//
// Each case restores a pristine volume, injects one fault class under the
// seed's RNG, runs the standard crash-harness workload, remounts, scrubs,
// runs Fsck, and verifies the media contract: every acked byte survives
// (healed/remapped as needed) or is reported with attribution — an OK read
// returning bytes the workload never wrote fails the campaign. Exit status
// is 0 only when every case passes.

#include <cstdio>
#include <cstring>
#include <inttypes.h>
#include <map>
#include <string>
#include <vector>

#include "src/crash/faultcampaign.h"
#include "tools/parse_whole.h"

namespace {

using cedar::crash::CampaignCase;
using cedar::crash::CampaignOptions;
using cedar::crash::CampaignReport;
using cedar::crash::FaultCampaign;
using cedar::crash::FaultClass;
using cedar::crash::FaultClassName;
using cedar::tools::ParseWhole;

struct ClassRow {
  std::uint64_t cases = 0;
  std::uint64_t failed = 0;
  std::uint64_t injected = 0;
  std::uint64_t repairs = 0;
  std::uint64_t remaps = 0;
  std::uint64_t corruption_detected = 0;
  std::uint64_t scrub_healed = 0;
  std::uint64_t scrub_unrepairable = 0;
  std::uint64_t degraded = 0;
  std::uint64_t attributed_losses = 0;
  std::uint64_t escapes = 0;
  std::uint64_t fsck_violations = 0;
};

void PrintTable(const CampaignReport& report) {
  std::map<std::string, ClassRow> rows;
  for (const CampaignCase& r : report.results) {
    ClassRow& row = rows[FaultClassName(r.fault_class)];
    ++row.cases;
    row.failed += r.pass ? 0 : 1;
    row.injected += r.injected + r.fault_events;
    row.repairs += r.health.repairs;
    row.remaps += r.health.remaps;
    row.corruption_detected += r.health.corruption_detected;
    row.scrub_healed += r.scrub.healed;
    row.scrub_unrepairable += r.scrub.unrepairable;
    row.degraded += r.degraded ? 1 : 0;
    row.attributed_losses += r.attributed_losses;
    row.escapes += r.escapes;
    row.fsck_violations += r.fsck_violations;
  }
  std::printf("  %-12s %5s %5s %6s %7s %6s %7s %6s %5s %7s %7s %6s\n",
              "class", "cases", "fail", "inject", "repairs", "remaps",
              "crc-det", "scrubH", "degr", "attrib", "violatn", "escape");
  for (const auto& [name, row] : rows) {
    std::printf("  %-12s %5" PRIu64 " %5" PRIu64 " %6" PRIu64 " %7" PRIu64
                " %6" PRIu64 " %7" PRIu64 " %6" PRIu64 " %5" PRIu64
                " %7" PRIu64 " %7" PRIu64 " %6" PRIu64 "\n",
                name.c_str(), row.cases, row.failed, row.injected,
                row.repairs, row.remaps, row.corruption_detected,
                row.scrub_healed, row.degraded, row.attributed_losses,
                row.fsck_violations, row.escapes);
  }
}

void PrintFailures(const CampaignReport& report) {
  for (const CampaignCase& r : report.results) {
    if (r.pass) {
      continue;
    }
    std::printf("  FAIL %s seed=%" PRIu64 ": %s\n",
                FaultClassName(r.fault_class), r.seed, r.failure.c_str());
    for (const std::string& line : r.injection_log) {
      std::printf("       injected: %s\n", line.c_str());
    }
  }
}

bool ParseClasses(const std::string& list, std::vector<FaultClass>* out) {
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string name =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (name == "persistent") {
      out->push_back(FaultClass::kPersistent);
    } else if (name == "write-fault") {
      out->push_back(FaultClass::kWriteFault);
    } else if (name == "corruption") {
      out->push_back(FaultClass::kCorruption);
    } else if (name == "mixed") {
      out->push_back(FaultClass::kMixed);
    } else {
      return false;
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  CampaignOptions options;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    bool ok = true;
    if (arg == "--smoke") {
      options.seeds = 4;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--seeds=", 0) == 0) {
      ok = ParseWhole(value("--seeds="), &options.seeds);
    } else if (arg.rfind("--seed-base=", 0) == 0) {
      ok = ParseWhole(value("--seed-base="), &options.seed_base);
    } else if (arg.rfind("--classes=", 0) == 0) {
      if (!ParseClasses(value("--classes="), &options.classes)) {
        std::fprintf(stderr, "faultcampaign: bad --classes '%s'\n",
                     value("--classes="));
        return 2;
      }
    } else if (arg.rfind("--dump-dir=", 0) == 0) {
      options.dump_dir = value("--dump-dir=");
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: faultcampaign [--smoke] [--seeds=N] "
                   "[--seed-base=N] [--classes=a,b] [--dump-dir=DIR] "
                   "[--quiet]\n");
      return 2;
    }
  }

  FaultCampaign campaign(options);
  auto report = campaign.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "faultcampaign: harness error: %s\n",
                 report.status().message().c_str());
    return 1;
  }
  std::printf("faultcampaign: %zu cases (%" PRIu64 " seeds per class)\n",
              report->results.size(), options.seeds);
  if (!quiet) {
    PrintTable(*report);
  }
  PrintFailures(*report);
  std::printf("faultcampaign: %" PRIu64 " passed, %" PRIu64 " failed\n",
              report->passed(), report->failed());
  return report->AllPassed() && !report->results.empty() ? 0 : 1;
}
