#include "src/model/scripts.h"

#include "src/core/allocator.h"
#include "src/core/layout.h"

namespace cedar::model {

std::uint32_t FsdSmallFilePermille(const sim::DiskGeometry& geometry,
                                   const core::FsdConfig& config) {
  const core::FsdLayout layout = core::FsdLayout::Compute(geometry, config);
  const std::uint64_t cylinder =
      geometry.ToChs(core::RunAllocator::FirstSmallFileStart(layout, 1))
          .cylinder;
  const std::uint64_t last = geometry.cylinders - 1;
  return static_cast<std::uint32_t>((cylinder * 1000 + last / 2) / last);
}

OpScript CfsCreate(std::uint32_t data_pages, const CpuParams& cpu) {
  const std::uint32_t n = data_pages;
  OpScript s;
  s.name = "cfs-create-" + std::to_string(n);
  // 1) Verify free pages: seek to the allocation site, read 2+n labels.
  s.Controller().SeekTo(20).Latency().Transfer(2 + n);
  // 2) Write header labels: the two sectors just passed under the head.
  s.Controller().RevMinus(2 + n).Transfer(2);
  // 3) Write data labels: sector 2 follows, but controller overhead misses
  //    it — nearly a full revolution.
  s.Controller().RevMinus(n).Transfer(n);
  // 4) Write the header (size still zero): back to sector 0.
  s.Controller().RevMinus(2 + n).Transfer(2);
  // 5) Name table update: write-through leaf (4 sectors) in the NT region.
  s.Controller().ShortSeek().Latency().Transfer(4);
  // 6) Write the data: back at the file.
  s.Controller().ShortSeek().Latency().Transfer(n);
  // 7) Rewrite the header with the final byte size.
  s.Controller().RevMinus(2 + n).Transfer(2);
  s.Cpu(cpu.cfs_per_op + cpu.cfs_per_sector * (3 * n + 10));
  return s;
}

OpScript CfsOpen(const CpuParams& cpu) {
  OpScript s;
  s.name = "cfs-open";
  s.Controller().SeekTo(20).Latency().Transfer(2);  // header pair
  s.Cpu(cpu.cfs_per_op + cpu.cfs_per_sector * 2);
  return s;
}

OpScript CfsReadPage(const CpuParams& cpu) {
  OpScript s;
  s.name = "cfs-read-page";
  s.Controller().SeekTo(20).Latency().Transfer(1);
  s.Cpu(cpu.cfs_per_op + cpu.cfs_per_sector);
  return s;
}

OpScript CfsDelete(std::uint32_t data_pages, const CpuParams& cpu) {
  const std::uint32_t n = data_pages;
  OpScript s;
  s.name = "cfs-delete-" + std::to_string(n);
  // Read the header to get the run table.
  s.Controller().SeekTo(20).Latency().Transfer(2);
  // Free the header labels (sectors just passed).
  s.Controller().RevMinus(2).Transfer(2);
  // Free the data labels.
  s.Controller().RevMinus(n).Transfer(n);
  // Remove the name table entry (write-through leaf).
  s.Controller().ShortSeek().Latency().Transfer(4);
  s.Cpu(cpu.cfs_per_op + cpu.cfs_per_sector * (n + 8));
  return s;
}

OpScript FsdCreate(std::uint32_t data_pages, std::uint32_t data_permille,
                   const CpuParams& cpu) {
  OpScript s;
  s.name = "fsd-create-" + std::to_string(data_pages);
  // One synchronous I/O: leader + data pages, single request.
  s.Controller().SeekTo(data_permille).Latency().Transfer(1 + data_pages);
  s.Cpu(cpu.fsd_per_op + cpu.fsd_per_sector * (1 + data_pages));
  return s;
}

OpScript FsdOpenHit(const CpuParams& cpu) {
  OpScript s;
  s.name = "fsd-open-hit";
  s.Cpu(cpu.fsd_per_op);
  return s;
}

OpScript FsdReadPage(std::uint32_t data_permille, const CpuParams& cpu) {
  OpScript s;
  s.name = "fsd-read-page";
  s.Controller().SeekTo(data_permille).Latency().Transfer(1);
  s.Cpu(cpu.fsd_per_op + cpu.fsd_per_sector);
  return s;
}

OpScript FsdDelete(const CpuParams& cpu) {
  OpScript s;
  s.name = "fsd-delete";
  s.Cpu(cpu.fsd_per_op + 3 * cpu.fsd_per_sector);  // shadow free + tree update
  return s;
}

}  // namespace cedar::model
