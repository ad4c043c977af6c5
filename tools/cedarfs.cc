// cedarfs — a command-line front end for FSD volumes stored in host-file
// disk images. Each invocation loads the image, mounts, performs one
// command, cleanly shuts down and saves the image — unless --crash is
// given, which skips the shutdown so the next mount exercises log recovery.
//
//   cedarfs <image> mkfs [--big] [--vamlog]
//   cedarfs <image> put <name> <hostfile> [--crash]
//   cedarfs <image> get <name> <hostfile>
//   cedarfs <image> ls [prefix]
//   cedarfs <image> rm <name> [--crash]
//   cedarfs <image> stat <name>
//   cedarfs <image> scrub
//   cedarfs <image> damage <lba> <count>
//   cedarfs <image> replay <tracefile> [--crash]   (a CEDWRK02 trace, e.g.
//                                                  from workloadgen)
//   cedarfs <image> info
//
// The image embeds its geometry; mkfs --big makes a full 300 MB Trident,
// the default is the small 5.5 MB test geometry (fast to save/load).

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"
#include "src/util/file.h"
#include "src/workload/replay.h"
#include "src/workload/trace.h"

namespace {

using namespace cedar;

struct Options {
  std::string image;
  std::string command;
  std::vector<std::string> args;
  bool big = false;
  bool vamlog = false;
  bool crash = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: cedarfs <image> "
               "{mkfs|put|get|ls|rm|stat|scrub|damage|replay|info} [...]\n"
               "flags: --big --vamlog (mkfs), --crash (put/rm/replay)\n");
  return 2;
}

// The geometry is probed from the image file size at open; mkfs chooses it.
sim::DiskGeometry GeometryFor(bool big) {
  return big ? sim::DiskGeometry{} : sim::TestGeometry();
}

core::FsdConfig ConfigFor(bool big, bool vamlog) {
  core::FsdConfig config;
  if (!big) {
    config.log_sectors = 400;
    config.nt_pages = 256;
    config.cache_frames = 1024;
  }
  config.durability.vam_logging = vamlog;
  return config;
}

// Loads the image at `path` onto a disk of the geometry its header names,
// the small test one or (`*big`) the full Trident.
Result<std::unique_ptr<sim::SimDisk>> LoadDisk(const std::string& path,
                                               sim::VirtualClock* clock,
                                               bool* big) {
  Status loaded;
  for (const bool try_big : {false, true}) {
    auto disk = std::make_unique<sim::SimDisk>(GeometryFor(try_big),
                                               sim::DiskTimingParams{}, clock);
    loaded = disk->LoadImage(path);
    if (loaded.ok()) {
      *big = try_big;
      return disk;
    }
    if (loaded.code() != ErrorCode::kInvalidArgument) {
      break;  // not a geometry mismatch: the other geometry fails too
    }
  }
  return loaded;
}

int Run(const Options& options) {
  sim::VirtualClock clock;

  // mkfs creates a fresh image; everything else loads an existing one.
  const bool fresh = options.command == "mkfs";
  bool big = options.big;
  bool vamlog = options.vamlog;
  Result<std::unique_ptr<sim::SimDisk>> loaded =
      fresh ? std::make_unique<sim::SimDisk>(GeometryFor(big),
                                             sim::DiskTimingParams{}, &clock)
            : LoadDisk(options.image, &clock, &big);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cedarfs: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  sim::SimDisk& disk = **loaded;

  // `damage` operates below the file system.
  if (options.command == "damage") {
    if (options.args.size() != 2) {
      return Usage();
    }
    disk.DamageSectors(
        static_cast<sim::Lba>(std::stoul(options.args[0])),
        static_cast<std::uint32_t>(std::stoul(options.args[1])));
    CEDAR_CHECK_OK(disk.SaveImage(options.image));
    std::printf("damaged %s sectors at lba %s\n", options.args[1].c_str(),
                options.args[0].c_str());
    return 0;
  }

  core::Fsd fsd(&disk, ConfigFor(big, vamlog));
  Status mounted = fresh ? fsd.Format() : fsd.Mount();
  if (!mounted.ok()) {
    std::fprintf(stderr, "cedarfs: mount: %s\n", mounted.ToString().c_str());
    return 1;
  }

  Status result = OkStatus();
  if (options.command == "mkfs") {
    std::printf("formatted %s volume (%" PRIu64 " sectors, vam_logging=%s)\n",
                big ? "300 MB" : "5.5 MB",
                disk.geometry().TotalSectors(), vamlog ? "on" : "off");
  } else if (options.command == "put" && options.args.size() == 2) {
    auto contents = ReadFileBytes(options.args[1], "host file");
    result = contents.status();
    if (result.ok()) {
      result = fsd.CreateFile(options.args[0], *contents).status();
      if (result.ok()) {
        std::printf("put %s (%zu bytes)\n", options.args[0].c_str(),
                    contents->size());
      }
    }
  } else if (options.command == "get" && options.args.size() == 2) {
    auto handle = fsd.Open(options.args[0]);
    result = handle.status();
    if (result.ok()) {
      std::vector<std::uint8_t> out(handle->byte_size);
      result = fsd.Read(*handle, 0, out);
      if (result.ok()) {
        result = WriteFileBytes(options.args[1], out, "host file");
        std::printf("got %s!%u (%zu bytes)\n", options.args[0].c_str(),
                    handle->version, out.size());
      }
    }
  } else if (options.command == "ls") {
    auto list = fsd.List(options.args.empty() ? "" : options.args[0]);
    result = list.status();
    if (result.ok()) {
      for (const auto& info : *list) {
        std::printf("%10llu  %s!%u\n", (unsigned long long)info.byte_size,
                    info.name.c_str(), info.version);
      }
      std::printf("%zu files, %u sectors free\n", list->size(),
                  fsd.FreeSectors());
    }
  } else if (options.command == "rm" && options.args.size() == 1) {
    result = fsd.DeleteFile(options.args[0]);
  } else if (options.command == "stat" && options.args.size() == 1) {
    auto info = fsd.Stat(options.args[0]);
    result = info.status();
    if (result.ok()) {
      std::printf("%s!%u  %llu bytes  uid %llx  keep %u\n",
                  info->name.c_str(), info->version,
                  (unsigned long long)info->byte_size,
                  (unsigned long long)info->uid, info->keep);
    }
  } else if (options.command == "scrub") {
    auto report = fsd.Scrub();
    result = report.status();
    if (result.ok()) {
      std::printf("scrub: %llu files, %llu leaders repaired, %llu leaked "
                  "sectors reclaimed, %llu nt pages reconciled\n",
                  (unsigned long long)report->files_checked,
                  (unsigned long long)report->leaders_repaired,
                  (unsigned long long)report->leaked_sectors_reclaimed,
                  (unsigned long long)report->nt_pages_reconciled);
    }
  } else if (options.command == "replay" && options.args.size() == 1) {
    auto entries = workload::LoadTraceBinary(options.args[0]);
    result = entries.status();
    if (result.ok()) {
      auto stats =
          workload::ReplayTrace(&fsd, *entries, [&](sim::Micros think) {
            clock.Advance(think);
            return fsd.Tick();
          });
      result = stats.status();
      if (result.ok()) {
        std::printf("replayed %llu ops (%llu not-found tolerated)\n",
                    (unsigned long long)stats->ops,
                    (unsigned long long)stats->not_found);
      }
    }
  } else if (options.command == "info") {
    // Only an unclean root makes Mount read the log for replay; a clean
    // one starts a fresh log instead. The registry is this process's, so
    // the counters cover this one mount.
    const obs::MetricsSnapshot mount = fsd.SnapshotMetrics();
    if (mount.CounterValue("fsd.mount_replay_read_us") == 0) {
      std::printf("mount: clean\n");
    } else {
      std::printf("mount: recovered (%llu pages replayed from the log)\n",
                  (unsigned long long)mount.CounterValue(
                      "fsd.recovery_pages_replayed"));
    }
    std::printf("geometry: %u cyl x %u heads x %u sectors (%0.1f MB)\n",
                disk.geometry().cylinders, disk.geometry().heads,
                disk.geometry().sectors_per_track,
                disk.geometry().TotalBytes() / 1e6);
    std::printf("free sectors: %u\n", fsd.FreeSectors());
    std::printf("log: %llu records so far this mount\n",
                (unsigned long long)fsd.SnapshotMetrics()
                    .FindHistogram("log.record_sectors")
                    ->count);
  } else {
    return Usage();
  }

  if (!result.ok()) {
    std::fprintf(stderr, "cedarfs: %s\n", result.ToString().c_str());
    return 1;
  }

  if (options.crash) {
    std::printf("(crashing without shutdown: next mount will recover)\n");
  } else {
    Status shutdown = fsd.Shutdown();
    if (!shutdown.ok()) {
      std::fprintf(stderr, "cedarfs: shutdown: %s\n",
                   shutdown.ToString().c_str());
      return 1;
    }
  }
  CEDAR_CHECK_OK(disk.SaveImage(options.image));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--big") {
      options.big = true;
    } else if (arg == "--vamlog") {
      options.vamlog = true;
    } else if (arg == "--crash") {
      options.crash = true;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 2) {
    return Usage();
  }
  options.image = positional[0];
  options.command = positional[1];
  options.args.assign(positional.begin() + 2, positional.end());
  return Run(options);
}
