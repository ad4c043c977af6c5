// Crash recovery walkthrough: the paper's headline robustness scenario.
//
// Creates files, forces some, leaves others in the group-commit window,
// tears the disk mid-write, and then remounts — demonstrating log replay,
// the at-most-half-a-second loss window, and VAM reconstruction.

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/fsd.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"

int main() {
  using namespace cedar;

  sim::VirtualClock clock;
  sim::SimDisk disk(sim::DiskGeometry{}, sim::DiskTimingParams{}, &clock);
  auto fsd = std::make_unique<core::Fsd>(&disk, core::FsdConfig{});
  CEDAR_CHECK_OK(fsd->Format());

  // Committed work: these survive anything.
  for (int i = 0; i < 20; ++i) {
    std::vector<std::uint8_t> contents(3000, static_cast<std::uint8_t>(i));
    CEDAR_CHECK_OK(
        fsd->CreateFile("safe/doc" + std::to_string(i), contents).status());
  }
  CEDAR_CHECK_OK(fsd->Force());
  std::printf("created and committed 20 files under safe/\n");

  // Uncommitted work: created after the last force — the half-second
  // uncertainty window of section 5.4.
  for (int i = 0; i < 3; ++i) {
    std::vector<std::uint8_t> contents(1000, 0xEE);
    CEDAR_CHECK_OK(
        fsd->CreateFile("risky/new" + std::to_string(i), contents).status());
  }
  std::printf("created 3 more under risky/ (not yet committed)\n");

  // Crash: the next disk write is torn after one sector, with one sector
  // detectably damaged at the cut — the paper's failure model.
  disk.ArmCrash(sim::CrashPlan{
      .at_write_index = 0, .sectors_completed = 1, .sectors_damaged = 1});
  Status s = fsd->Force();  // this log write is the victim
  std::printf("force during crash -> %s\n", s.ToString().c_str());

  // Reboot: new instance, same platters.
  disk.Reopen();
  fsd = std::make_unique<core::Fsd>(&disk, core::FsdConfig{});
  const sim::Micros t0 = clock.now();
  CEDAR_CHECK_OK(fsd->Mount());
  std::printf("recovery mount took %.2f virtual seconds "
              "(%llu log pages replayed)\n",
              static_cast<double>(clock.now() - t0) / 1e6,
              (unsigned long long)fsd->SnapshotMetrics().CounterValue(
                  "fsd.recovery_pages_replayed"));

  auto safe = fsd->List("safe/");
  CEDAR_CHECK_OK(safe.status());
  auto risky = fsd->List("risky/");
  CEDAR_CHECK_OK(risky.status());
  std::printf("after recovery: %zu/20 committed files, %zu/3 uncommitted\n",
              safe->size(), risky->size());

  // Committed data is intact, bit for bit.
  auto handle = fsd->Open("safe/doc7");
  CEDAR_CHECK_OK(handle.status());
  std::vector<std::uint8_t> out(handle->byte_size);
  CEDAR_CHECK_OK(fsd->Read(*handle, 0, out));
  std::printf("safe/doc7 contents verified: %s\n",
              out == std::vector<std::uint8_t>(3000, 7) ? "intact" : "BAD");

  // And the volume is fully usable — the lost files' sectors were reclaimed
  // when the VAM was rebuilt from the name table.
  CEDAR_CHECK_OK(
      fsd->CreateFile("post/fresh", std::vector<std::uint8_t>(500, 1))
          .status());
  CEDAR_CHECK_OK(fsd->Force());
  std::printf("volume writable after recovery; done.\n");
  return 0;
}
